//===- explore/ProgramShrinker.cpp - Delta-debugging minimizer -------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "explore/ProgramShrinker.h"

#include "explore/ExploreSchedulers.h"
#include "mir/OpTable.h"
#include "mir/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace light;
using namespace light::explore;
using namespace light::mir;

uint32_t light::explore::statementCount(const Program &P) {
  uint32_t N = 0;
  for (const Function &F : P.Functions)
    for (const Instr &I : F.Body)
      if (I.Op != Opcode::Nop)
        ++N;
  return N;
}

namespace {

/// A statement site: function index + instruction index.
struct Site {
  uint32_t Fn;
  uint32_t At;
};

class Shrinker {
public:
  Shrinker(const Program &Prog, const DecisionTrace &Schedule,
           const FailPredicate &StillFails, const ShrinkOptions &Opts)
      : Best(Prog), Sched(Schedule), StillFails(StillFails), Opts(Opts) {}

  ShrinkResult run() {
    ShrinkResult Out;
    Out.OriginalStatements = statementCount(Best);

    // The pair must actually fail, or there is nothing to minimize.
    if (!Best.verify().empty() || !StillFails(Best, Sched)) {
      Out.Shrunk = Best;
      Out.Schedule = Sched;
      Out.ShrunkStatements = Out.OriginalStatements;
      Out.ProbesRun = Probes;
      return Out;
    }

    for (uint32_t Round = 0; Round < Opts.MaxRounds; ++Round) {
      bool Changed = false;
      Changed |= dropWorkers();
      Changed |= dropLockPairs();
      Changed |= ddminStatements();
      Changed |= dropGlobals();
      Changed |= truncateSchedule();
      if (!Changed || Probes >= Opts.MaxProbes)
        break;
    }
    compact();

    Out.Shrunk = Best;
    Out.Schedule = Sched;
    Out.ShrunkStatements = statementCount(Best);
    Out.ProbesRun = Probes;
    return Out;
  }

private:
  Program Best;
  DecisionTrace Sched;
  const FailPredicate &StillFails;
  ShrinkOptions Opts;
  uint64_t Probes = 0;

  /// One predicate evaluation, budget- and verify-gated.
  bool probe(const Program &Cand, const DecisionTrace &S) {
    if (Probes >= Opts.MaxProbes)
      return false;
    ++Probes;
    if (!Cand.verify().empty())
      return false;
    return StillFails(Cand, S);
  }

  /// Tries Nopping the instructions at \p Sites; accepts on success.
  bool tryDrop(const std::vector<Site> &Sites) {
    Program Cand = Best;
    for (const Site &S : Sites)
      Cand.Functions[S.Fn].Body[S.At] = Instr(); // Nop
    if (!probe(Cand, Sched))
      return false;
    Best = std::move(Cand);
    return true;
  }

  /// Drops ThreadStart/ThreadJoin pairs one worker at a time.
  bool dropWorkers() {
    bool Changed = false;
    bool Progress = true;
    while (Progress && Probes < Opts.MaxProbes) {
      Progress = false;
      for (uint32_t Fn = 0; !Progress && Fn < Best.Functions.size(); ++Fn) {
        // A successful tryDrop reassigns Best and frees the old function
        // bodies; !Progress must short-circuit before Body is touched.
        const std::vector<Instr> &Body = Best.Functions[Fn].Body;
        for (uint32_t I = 0; !Progress && I < Body.size(); ++I) {
          if (Body[I].Op != Opcode::ThreadStart)
            continue;
          for (uint32_t J = I + 1; J < Body.size(); ++J) {
            if (Body[J].Op != Opcode::ThreadJoin || Body[J].A != Body[I].A)
              continue;
            if (tryDrop({{Fn, I}, {Fn, J}})) {
              Progress = true;
              Changed = true;
            }
            break;
          }
        }
      }
    }
    return Changed;
  }

  /// Drops matched MonitorEnter/MonitorExit pairs (innermost matching by
  /// register, nesting-ordered).
  bool dropLockPairs() {
    bool Changed = false;
    bool Progress = true;
    while (Progress && Probes < Opts.MaxProbes) {
      Progress = false;
      for (uint32_t Fn = 0; !Progress && Fn < Best.Functions.size(); ++Fn) {
        // Same dangling-Body hazard as dropWorkers: check !Progress first.
        const std::vector<Instr> &Body = Best.Functions[Fn].Body;
        std::vector<Site> Stack;
        for (uint32_t I = 0; !Progress && I < Body.size(); ++I) {
          if (Body[I].Op == Opcode::MonitorEnter) {
            Stack.push_back({Fn, I});
          } else if (Body[I].Op == Opcode::MonitorExit) {
            for (size_t S = Stack.size(); S-- > 0;) {
              if (Body[Stack[S].At].A != Body[I].A)
                continue;
              if (tryDrop({Stack[S], {Fn, I}})) {
                Progress = true;
                Changed = true;
              }
              Stack.erase(Stack.begin() + S);
              break;
            }
          }
        }
      }
    }
    return Changed;
  }

  /// Chunked ddmin over droppable statements: try removing chunks of
  /// halving size until single statements.
  bool ddminStatements() {
    bool Changed = false;
    std::vector<Site> Cands = candidates();
    size_t Chunk = Cands.size() / 2;
    if (Chunk == 0 && !Cands.empty())
      Chunk = 1;
    while (Chunk >= 1 && Probes < Opts.MaxProbes) {
      bool Removed = false;
      for (size_t Start = 0; Start < Cands.size(); Start += Chunk) {
        size_t End = std::min(Start + Chunk, Cands.size());
        std::vector<Site> Sub(Cands.begin() + Start, Cands.begin() + End);
        if (tryDrop(Sub)) {
          Cands.erase(Cands.begin() + Start, Cands.begin() + End);
          Start -= Chunk; // re-test the same window
          Removed = true;
          Changed = true;
        }
        if (Probes >= Opts.MaxProbes)
          break;
      }
      if (Chunk == 1 && !Removed)
        break;
      if (!Removed)
        Chunk /= 2;
      else if (Chunk > Cands.size() && !Cands.empty())
        Chunk = Cands.size();
    }
    return Changed;
  }

  /// Statements the statement pass may neutralize on its own. Structural
  /// ones (control flow, thread structure, lock and rendezvous pairing) are
  /// handled by dedicated passes or kept, so most probes stay well-formed
  /// and terminating.
  std::vector<Site> candidates() const {
    std::vector<Site> Out;
    for (uint32_t Fn = 0; Fn < Best.Functions.size(); ++Fn) {
      const std::vector<Instr> &Body = Best.Functions[Fn].Body;
      for (uint32_t I = 0; I < Body.size(); ++I)
        if (!opInfo(Body[I].Op).Structural)
          Out.push_back({Fn, I});
    }
    return Out;
  }

  /// Drops globals: neutralize every access, erase the declaration, and
  /// renumber the remaining references.
  bool dropGlobals() {
    bool Changed = false;
    for (uint32_t G = 0; G < Best.Globals.size() && Probes < Opts.MaxProbes;) {
      Program Cand = Best;
      Cand.Globals.erase(Cand.Globals.begin() + G);
      for (Function &F : Cand.Functions)
        for (Instr &I : F.Body) {
          if (I.Op != Opcode::GetGlobal && I.Op != Opcode::PutGlobal)
            continue;
          if (I.Imm == static_cast<int64_t>(G))
            I = Instr(); // Nop
          else if (I.Imm > static_cast<int64_t>(G))
            --I.Imm;
        }
      if (probe(Cand, Sched)) {
        Best = std::move(Cand);
        Changed = true;
        // Same index now names the next global.
      } else {
        ++G;
      }
    }
    return Changed;
  }

  /// Truncates the schedule prefix; the default policy extends it.
  bool truncateSchedule() {
    bool Changed = false;
    if (!Sched.empty() && Probes < Opts.MaxProbes) {
      // Best case first: the program fails on the default schedule alone.
      if (probe(Best, {})) {
        Sched.clear();
        return true;
      }
    }
    size_t Cut = Sched.size() / 2;
    while (Cut >= 1 && Probes < Opts.MaxProbes) {
      DecisionTrace Shorter(Sched.begin(), Sched.end() - Cut);
      if (probe(Best, Shorter)) {
        Sched = std::move(Shorter);
        Changed = true;
        if (Cut > Sched.size())
          Cut = Sched.size();
      } else {
        Cut /= 2;
      }
    }
    return Changed;
  }

  /// Removes the accumulated Nops, remapping branch targets to the next
  /// surviving instruction. Kept only when the compacted program still
  /// verifies and fails.
  void compact() {
    Program Cand = Best;
    for (Function &F : Cand.Functions) {
      std::vector<int32_t> NewIndex(F.Body.size() + 1, -1);
      std::vector<Instr> Compacted;
      // NewIndex[I] = index of the first surviving instruction at or after
      // I (computed back-to-front).
      for (size_t I = F.Body.size(); I-- > 0;) {
        if (F.Body[I].Op != Opcode::Nop)
          Compacted.push_back(F.Body[I]);
      }
      std::reverse(Compacted.begin(), Compacted.end());
      int32_t Next = -1;
      uint32_t Survivors = static_cast<uint32_t>(Compacted.size());
      for (size_t I = F.Body.size(); I-- > 0;) {
        if (F.Body[I].Op != Opcode::Nop)
          Next = static_cast<int32_t>(--Survivors);
        NewIndex[I] = Next;
      }
      for (Instr &I : Compacted)
        for (unsigned K = 0; K < opInfo(I.Op).targets(); ++K) {
          int32_t &T = I.target(K);
          if (T < 0 || static_cast<size_t>(T) >= F.Body.size() ||
              NewIndex[T] < 0)
            return; // a branch would fall off the end; keep the Nop form
          T = NewIndex[T];
        }
      F.Body = std::move(Compacted);
    }
    if (probe(Cand, Sched))
      Best = std::move(Cand);
  }
};

} // namespace

ShrinkResult light::explore::shrink(const Program &Prog,
                                    const DecisionTrace &Schedule,
                                    const FailPredicate &StillFails,
                                    const ShrinkOptions &Opts) {
  obs::TraceSpan Span("explore.shrink", "explore");
  ShrinkResult Out = Shrinker(Prog, Schedule, StillFails, Opts).run();
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("explore.shrink_probes").add(Out.ProbesRun);
  Reg.counter("explore.shrink_statements_removed")
      .add(Out.OriginalStatements - Out.ShrunkStatements);
  return Out;
}

// --- Repro files ------------------------------------------------------------

std::string light::explore::reproToString(const Repro &R) {
  std::string Out = "; light repro v1\n";
  if (!R.Note.empty())
    Out += "; note: " + R.Note + "\n";
  Out += "; env-seed: " + std::to_string(R.EnvSeed) + "\n";
  Out += "; schedule: " + traceToString(R.Schedule) + "\n";
  Out += R.Prog.str();
  return Out;
}

std::string light::explore::dumpRepro(const std::string &Path,
                                      const Repro &R) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return "cannot open " + Path + " for writing";
  Out << reproToString(R);
  Out.flush();
  return Out ? std::string() : "write to " + Path + " failed";
}

std::optional<Repro>
light::explore::parseRepro(const std::string &Text, std::string *Error) {
  Repro R;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    auto Starts = [&](const char *Prefix) {
      return Line.rfind(Prefix, 0) == 0;
    };
    if (Starts("; schedule:")) {
      auto Trace = traceFromString(Line.substr(11));
      if (!Trace) {
        if (Error)
          *Error = "bad schedule line: " + Line;
        return std::nullopt;
      }
      R.Schedule = *Trace;
    } else if (Starts("; env-seed:")) {
      R.EnvSeed = std::strtoull(Line.c_str() + 11, nullptr, 10);
    } else if (Starts("; note:")) {
      size_t At = Line.find_first_not_of(' ', 7);
      R.Note = At == std::string::npos ? "" : Line.substr(At);
    }
  }
  mir::ParseResult Parsed = mir::parseProgram(Text);
  if (!Parsed.Ok) {
    if (Error)
      *Error = Parsed.Error;
    return std::nullopt;
  }
  std::string Verify = Parsed.Prog.verify();
  if (!Verify.empty()) {
    if (Error)
      *Error = "repro fails verification: " + Verify;
    return std::nullopt;
  }
  R.Prog = std::move(Parsed.Prog);
  return R;
}

std::optional<Repro> light::explore::loadRepro(const std::string &Path,
                                               std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseRepro(Buf.str(), Error);
}

//===- perfbench/BugCorpus.cpp - The bug-corpus workload ------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The developer's debug loop on the MIR interpreter (one OS thread). The
/// seed draws a corpus of racy MIR programs as text: 2-4 workers loop over
/// shared cells, a shared array and a monitor-protected counter, printing
/// every value they read, and main asserts the racy increments all landed
/// (lost updates make that assertion fail). The text goes through
/// mir::parseProgram, verify() and the shared-access analysis, exactly as
/// `light-replay` loads a .mir file.
///
/// Iteration i runs program i mod the corpus size under a fresh scheduler
/// seed: a RandomScheduler (what `light-replay record` uses) for even
/// programs, a BurstScheduler (Figure 2's runs) for odd ones. Program i's
/// loop trip count is spread over a fixed range by the golden-ratio
/// sequence, so every stretch of the corpus covers the same smooth spread
/// of sizes, from a few dozen spans (a millisecond to solve) to a few
/// hundred (the slow tail), and the latency percentiles do not sit in a
/// gap between size classes.
///
/// Reproduction: RecordingLog::load of the closed LIGHT003 log, the
/// monolithic schedule (buildSchedule: the calls ReplaySchedule::build
/// chains), and a cooperative replay under a validating ReplayDirector.
/// The outside check compares every thread's printed transcript (its read
/// values) and the bug report.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/SharedAccessAnalysis.h"
#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "interp/Machine.h"
#include "mir/Parser.h"
#include "obs/Metrics.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <cmath>
#include <memory>
#include <sstream>

using namespace light;
using namespace perfbench;

namespace {

/// About one lap per run: enough distinct draws that a run's percentiles,
/// and its share of the IDL engine's pathological programs, do not hinge
/// on a few programs.
constexpr size_t CorpusSize = 4096;
constexpr unsigned OpsPerWorker = 4;
/// Loop trip counts (for four workers; fewer workers loop longer) of the
/// RandomScheduler programs; BurstScheduler programs loop BurstScale times
/// longer, since their runs merge into fewer spans.
constexpr double MinIters = 8, MaxIters = 24;
constexpr unsigned BurstScale = 3;
constexpr size_t EpochSpans = 256;
/// The IDL engine's cost per conflict varies 20-fold between draws here: a
/// pathological draw spent 3.5 s on 100,000 conflicts. 10,000 conflicts cap
/// such a draw at about 0.35 s before solveOrder's Z3 retry (0.03-0.3 s),
/// so the slowest reproductions, and reproduce_s.tail with them, measure
/// the fallback path rather than a few runaway searches; about 3% of draws
/// take it, and smt.timeouts counts them.
constexpr smt::SolverLimits CorpusBudget{/*WallSeconds=*/10,
                                         /*MaxConflicts=*/10000};

enum class OpKind { ReadCell, IncCell, WriteCell, ReadElem, WriteElem, Locked };

struct Generated {
  std::string Text;
  bool Burst = false;
};

/// Emits one program. Registers in a worker: r0 worker index, r1 cells
/// object, r2 array, r3 loop counter, r4 trip count, r5 one, r6 loop
/// condition, r7 value, r8 index.
Generated generate(uint64_t Seed, size_t Index) {
  Rng R(Seed);
  const unsigned Workers = 2 + static_cast<unsigned>(R.below(3));
  const unsigned Cells = 2 + static_cast<unsigned>(R.below(3));
  const unsigned Len = 2 + static_cast<unsigned>(R.below(3));
  const unsigned Counter = Cells; ///< monitor-protected field index
  Generated G;
  G.Burst = Index % 2 == 1;
  const double Spread = std::fmod(static_cast<double>(Index / 2) * 0.6180339887,
                                  1.0);
  const unsigned Iters = static_cast<unsigned>(
      (MinIters + (MaxIters - MinIters) * Spread) *
      (G.Burst ? BurstScale : 1) * 4 / Workers);

  std::ostringstream Out;
  Out << "; generated racy program " << Index << "\nclass Cells { ";
  for (unsigned C = 0; C < Cells; ++C)
    Out << "c" << C << ", ";
  Out << "g }\nglobal 0 cells\nglobal 1 arr\n";

  uint64_t LockedTotal = 0;
  std::vector<uint64_t> IncTotal(Cells, 0);
  for (unsigned W = 0; W < Workers; ++W) {
    std::vector<std::string> Body;
    auto Emit = [&](const std::string &S) { Body.push_back(S); };
    const size_t LoopTop = 5;
    for (unsigned K = 0; K < OpsPerWorker; ++K) {
      uint64_t Pick = R.below(100);
      OpKind Kind = Pick < 25   ? OpKind::ReadCell
                    : Pick < 40 ? OpKind::IncCell
                    : Pick < 50 ? OpKind::WriteCell
                    : Pick < 70 ? OpKind::ReadElem
                    : Pick < 85 ? OpKind::WriteElem
                                : OpKind::Locked;
      const unsigned C = static_cast<unsigned>(R.below(Cells));
      const unsigned E = static_cast<unsigned>(R.below(Len));
      switch (Kind) {
      case OpKind::ReadCell:
        Emit("getfield r7, r1, #" + std::to_string(C));
        Emit("print r7, r0, r0");
        break;
      case OpKind::IncCell:
        Emit("getfield r7, r1, #" + std::to_string(C));
        Emit("add r7, r7, r5");
        Emit("putfield r1, r7, #" + std::to_string(C));
        IncTotal[C] += Iters;
        break;
      case OpKind::WriteCell:
        Emit("putfield r1, r3, #" + std::to_string(C));
        break;
      case OpKind::ReadElem:
        Emit("const r8, " + std::to_string(E));
        Emit("aload r7, r2, r8");
        Emit("print r7, r0, r0");
        break;
      case OpKind::WriteElem:
        Emit("const r8, " + std::to_string(E));
        Emit("astore r2, r8, r3");
        break;
      case OpKind::Locked:
        Emit("monitorenter r1, r0, r0");
        Emit("getfield r7, r1, #" + std::to_string(Counter));
        Emit("add r7, r7, r5");
        Emit("putfield r1, r7, #" + std::to_string(Counter));
        Emit("monitorexit r1, r0, r0");
        LockedTotal += Iters;
        break;
      }
    }
    const size_t End = LoopTop + 2 + Body.size() + 2;
    Out << "func f" << W << " worker" << W << "(params=1, regs=9)\n";
    std::vector<std::string> Lines = {
        "getglobal r1, r0, #0", "getglobal r2, r0, #1", "const r3, 0",
        "const r4, " + std::to_string(Iters), "const r5, 1",
        "cmplt r6, r3, r4",
        "br r6, @" + std::to_string(LoopTop + 2) + ", @" +
            std::to_string(End)};
    Lines.insert(Lines.end(), Body.begin(), Body.end());
    Lines.push_back("add r3, r3, r5");
    Lines.push_back("jmp @" + std::to_string(LoopTop));
    Lines.push_back("ret _, r0, r0");
    for (size_t I = 0; I < Lines.size(); ++I)
      Out << "  @" << I << ": " << Lines[I] << "\n";
  }

  // main: build the shared objects, start and join the workers, then check
  // the monitor-protected total (always holds) and the racy one (holds only
  // when no increment was lost).
  std::vector<std::string> Main = {"new r0, r0, #0", "const r1, 0"};
  for (unsigned F = 0; F <= Cells; ++F)
    Main.push_back("putfield r0, r1, #" + std::to_string(F));
  Main.push_back("putglobal r0, r0, #0");
  Main.push_back("const r2, " + std::to_string(Len));
  Main.push_back("newarray r3, r2, r0");
  for (unsigned E = 0; E < Len; ++E) {
    Main.push_back("const r4, " + std::to_string(E));
    Main.push_back("astore r3, r4, r1");
  }
  Main.push_back("putglobal r3, r0, #1");
  for (unsigned W = 0; W < Workers; ++W) {
    Main.push_back("const r4, " + std::to_string(W));
    Main.push_back("start r" + std::to_string(5 + W) + ", r4, #" +
                   std::to_string(W));
  }
  for (unsigned W = 0; W < Workers; ++W)
    Main.push_back("join r" + std::to_string(5 + W) + ", r0, r0");
  auto Expect = [&](unsigned Field, uint64_t Value, int BugId) {
    Main.push_back("getfield r10, r0, #" + std::to_string(Field));
    Main.push_back("const r11, " + std::to_string(Value));
    Main.push_back("cmpeq r12, r10, r11");
    Main.push_back("assert r12, r0, #" + std::to_string(BugId));
  };
  Expect(Counter, LockedTotal, 1);
  for (unsigned C = 0; C < Cells; ++C)
    if (IncTotal[C])
      Expect(C, IncTotal[C], 2 + static_cast<int>(C));
  Main.push_back("ret _, r0, r0");
  Out << "func f" << Workers << " main(params=0, regs=16) [entry]\n";
  for (size_t I = 0; I < Main.size(); ++I)
    Out << "  @" << I << ": " << Main[I] << "\n";
  G.Text = Out.str();
  return G;
}

class BugCorpus : public Workload {
public:
  explicit BugCorpus(const Options &O)
      : LogPath(O.WorkDir + "/bug-corpus.light3") {}

  void setup(uint64_t S) override {
    Seed = S;
    Corpus.clear();
    for (size_t I = 0; I < CorpusSize; ++I) {
      Generated G = generate(mixSeed(Seed, I), I);
      mir::ParseResult Parsed = mir::parseProgram(G.Text);
      Entry E;
      E.Burst = G.Burst;
      if (!Parsed.Ok) {
        E.Error = "generated program does not parse: " + Parsed.Error;
      } else if (std::string V = Parsed.Prog.verify(); !V.empty()) {
        E.Error = "generated program does not verify: " + V;
      } else {
        analysis::markSharedAccesses(Parsed.Prog);
        E.Prog = std::make_unique<mir::Program>(std::move(Parsed.Prog));
      }
      Corpus.push_back(std::move(E));
    }
  }

  RecordSample record(uint64_t Iter, SpanTrace &T) override {
    RecordSample Out;
    const Entry &E = Corpus[Iter % Corpus.size()];
    if (!E.Prog) {
      Out.Mismatch = E.Error;
      return Out;
    }
    const uint64_t SchedSeed = mixSeed(Seed ^ 0x5c4edull, Iter);
    auto MakeSched = [&]() -> std::unique_ptr<Scheduler> {
      if (E.Burst)
        return std::make_unique<BurstScheduler>(SchedSeed);
      return std::make_unique<RandomScheduler>(SchedSeed);
    };

    RunResult Plain;
    auto RunNull = [&] {
      Scope S(T, "baseline");
      NullHook Null;
      Machine M(*E.Prog, Null);
      M.seedEnvironment(SchedSeed ^ 0x5a5a);
      std::unique_ptr<Scheduler> Sched = MakeSched();
      Stopwatch Clock;
      Plain = M.run(*Sched);
      Out.NullS = Clock.seconds();
    };
    auto RunRecorded = [&] {
      Scope S(T, "record");
      LightOptions Opts;
      Opts.WriteToDisk = false;
      Opts.EpochSpans = EpochSpans;
      Opts.DurableLogPath = LogPath;
      Opts.CompressedEpochs = true;
      LightRecorder Rec(Opts);
      Machine M(*E.Prog, Rec);
      Rec.attachRegistry(&M.registry());
      M.seedEnvironment(SchedSeed ^ 0x5a5a);
      std::unique_ptr<Scheduler> Sched = MakeSched();
      const uint64_t Switches0 = obs::Registry::global().snapshot().counter(
          "interp.context_switches");
      Stopwatch Clock;
      Recorded = M.run(*Sched);
      Out.InterpRunS = Clock.seconds();
      RecordingLog Log;
      {
        Scope F(T, "record.finish");
        Stopwatch Finish;
        Log = Rec.finish(&M.registry());
        Out.FinishS = Finish.seconds();
      }
      Out.RecordS = Clock.seconds();
      Out.ContextSwitches = obs::Registry::global().snapshot().counter(
                                "interp.context_switches") -
                            Switches0;
      Out.Instructions = Recorded.InstructionsExecuted;
      const DurableLogWriter *DL = Rec.durableLog();
      if (!DL || !DL->ok() || Rec.overflowed())
        Out.Mismatch = "durable log not written";
      else
        Out.Segments = DL->segmentsWritten();
      for (Counter C : Log.FinalCounters)
        Out.Accesses += C;
      Out.Spans = Log.Spans.size();
      Out.ReadRetries = Rec.readRetries();
      Out.StripeContention = Rec.stripeContentions();
    };
    if (Iter % 2) {
      RunRecorded();
      RunNull();
    } else {
      RunNull();
      RunRecorded();
    }
    Out.LogBytes = fileBytes(LogPath);
    // Recording must not perturb the cooperative schedule.
    if (Out.Mismatch.empty() &&
        (Plain.OutputByThread != Recorded.OutputByThread ||
         Plain.Bug.happened() != Recorded.Bug.happened() ||
         (Plain.Bug.happened() && !Plain.Bug.sameAs(Recorded.Bug))))
      Out.Mismatch = "the recorded run differs from the same seeded run "
                     "under NullHook";
    return Out;
  }

  void reproduce(uint64_t Iter, SpanTrace &T, ReproSample &Out) override {
    const Entry &E = Corpus[Iter % Corpus.size()];
    RecordingLog Log;
    LogLoadReport Report;
    bool Loaded;
    {
      Scope S(T, "decode");
      Stopwatch Clock;
      Loaded = Log.load(LogPath, Report);
      Out["trace.decode_s"] = Clock.seconds();
    }
    if (!Loaded || !Report.CleanClose) {
      Out.fail("log did not load cleanly: " + Report.Error);
      return;
    }
    Out["trace.spans"] = static_cast<double>(Log.Spans.size());
    std::optional<ReplaySchedule> Plan =
        buildSchedule(Log, CorpusBudget, T, Out);
    if (!Plan)
      return;

    Scope S(T, "replay");
    ReplayDirector Director(*Plan, /*RealThreads=*/false, /*Validate=*/true);
    Machine M(*E.Prog, Director);
    M.prepareReplay(Log.Spawns);
    Stopwatch Clock;
    Replayed = M.runReplay(Director);
    Out.ReplayS = Clock.seconds();
    Out["replay.s"] = Out.ReplayS;
    ReplayStats Stats = Director.stats();
    Out["replay.turns"] = static_cast<double>(Stats.Turns);
    Out["replay.stalls"] = static_cast<double>(Stats.Stalls);
    Out["replay.validated_reads"] = static_cast<double>(Stats.ValidatedReads);
    Out["replay.divergences"] = static_cast<double>(Stats.Divergences);
    if (Director.failed())
      Out.mismatch("replay diverged: " + Director.divergenceInfo().str());
  }

  void check(uint64_t, SpanTrace &T, ReproSample &Out) override {
    Scope S(T, "check");
    if (Replayed.Bug.What == BugReport::Kind::ReplayDivergence)
      Out.mismatch("replay diverged: " + Replayed.Bug.str());
    for (size_t Th = 0; Th < Recorded.OutputByThread.size(); ++Th)
      if (Th >= Replayed.OutputByThread.size() ||
          Replayed.OutputByThread[Th] != Recorded.OutputByThread[Th])
        Out.mismatch("thread " + std::to_string(Th) +
                     " printed a different read transcript in replay");
    if (Recorded.Bug.happened() != Replayed.Bug.happened() ||
        (Recorded.Bug.happened() && !Recorded.Bug.sameAs(Replayed.Bug)))
      Out.mismatch("bug not reproduced: recorded " + Recorded.Bug.str() +
                   ", replayed " + Replayed.Bug.str());
  }

  bool deterministic() const override { return true; }

private:
  struct Entry {
    std::unique_ptr<mir::Program> Prog;
    bool Burst = false;
    std::string Error;
  };

  std::string LogPath;
  uint64_t Seed = 0;
  std::vector<Entry> Corpus;
  RunResult Recorded; ///< the last recording's outcome
  RunResult Replayed; ///< the last replay's outcome
};

} // namespace

std::unique_ptr<Workload> perfbench::makeBugCorpus(const Options &O) {
  return std::make_unique<BugCorpus>(O);
}

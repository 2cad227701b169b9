//===- tests/mir/MirMutationFuzzTest.cpp - Parser/verifier mutation fuzz --===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// Property: the table-driven parser, verifier and analyses hold their
/// contract on mutated program text. The inputs are the printed text of
/// every built-in bug kernel and every tests/corpus/*.mir file, mutated at
/// the token level: mnemonics swapped across operand shapes, operands
/// dropped or duplicated, registers replaced by `_` or by out-of-range
/// numbers, and out-of-range `#imm` and `@target` operands.
///
/// Every input must yield a structured line/column parse error, a verify()
/// diagnostic, or a program that the analyses accept and that runs under
/// Machine with an instruction budget. Under the asan preset an
/// out-of-range register or branch target in the interpreter is a crash.
/// Honors LIGHT_TEST_SEED / LIGHT_TEST_ITERS; failures carry a repro line.
///
//===----------------------------------------------------------------------===//

#include "analysis/LocksetAnalysis.h"
#include "analysis/RaceDetector.h"
#include "analysis/SharedAccessAnalysis.h"
#include "bugs/BugPrograms.h"
#include "interp/Machine.h"
#include "mir/OpTable.h"
#include "mir/Parser.h"
#include "support/Random.h"
#include "testlib/TestEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace light;
using namespace light::mir;

namespace {

struct Input {
  std::string Name;
  std::string Text;
};

std::vector<Input> inputs() {
  std::vector<Input> Out;
  for (auto Suite : {bugs::makeBugSuite, bugs::makeSyncBugSuite,
                     bugs::makeDistBugSuite})
    for (const bugs::BugBenchmark &B : Suite())
      Out.push_back({B.Name, B.Prog.str()});
  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(LIGHT_TEST_CORPUS_DIR))
    if (E.path().extension() == ".mir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &F : Files) {
    std::ifstream In(F);
    std::stringstream Buf;
    Buf << In.rdbuf();
    Out.push_back({F.filename().string(), Buf.str()});
  }
  return Out;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

/// An instruction line split into its `@N:` label, mnemonic and operands.
struct InstrLine {
  std::string Label, Mnemonic;
  std::vector<std::string> Operands;

  static bool parse(const std::string &Line, InstrLine &Out) {
    size_t Colon = Line.find(':');
    if (Line.find("  @") != 0 || Colon == std::string::npos)
      return false;
    Out.Label = Line.substr(0, Colon + 1);
    std::string Rest = Line.substr(Colon + 2);
    size_t Space = Rest.find(' ');
    Out.Mnemonic = Rest.substr(0, Space);
    Out.Operands.clear();
    for (size_t At = Space; At != std::string::npos;) {
      size_t Next = Rest.find(", ", At + 1);
      size_t Start = At + (At == Space ? 1 : 2);
      Out.Operands.push_back(Rest.substr(
          Start, Next == std::string::npos ? std::string::npos
                                           : Next - Start));
      At = Next;
    }
    return true;
  }

  std::string str() const {
    std::string Out = Label + " " + Mnemonic;
    for (size_t K = 0; K < Operands.size(); ++K)
      Out += (K ? ", " : " ") + Operands[K];
    return Out;
  }
};

/// Applies one token-level mutation to a random instruction line of
/// \p Lines. \p Regs is the register count of each line's function and
/// \p BodySize its instruction count.
void mutateOnce(std::vector<std::string> &Lines,
                const std::vector<int64_t> &Regs,
                const std::vector<int64_t> &BodySize, Rng &R) {
  std::vector<size_t> InstrAt;
  for (size_t K = 0; K < Lines.size(); ++K)
    if (Lines[K].find("  @") == 0)
      InstrAt.push_back(K);
  if (InstrAt.empty())
    return;
  size_t At = InstrAt[R.below(InstrAt.size())];
  InstrLine I;
  if (!InstrLine::parse(Lines[At], I))
    return;
  auto Pick = [&](auto Pred) -> std::string * {
    std::vector<std::string *> Hits;
    for (std::string &Op : I.Operands)
      if (Pred(Op))
        Hits.push_back(&Op);
    return Hits.empty() ? nullptr : Hits[R.below(Hits.size())];
  };
  auto IsReg = [](const std::string &Op) {
    return Op == "_" || (Op.size() > 1 && Op[0] == 'r');
  };
  const int64_t Extremes[] = {-1, INT32_MAX, INT64_MAX, INT64_MIN};

  switch (R.below(7)) {
  case 0: // swap the mnemonic, usually for one of another shape
    I.Mnemonic = optable::Rows[R.below(NumOpcodes)].Mnemonic;
    break;
  case 1: // drop an operand
    if (!I.Operands.empty())
      I.Operands.erase(I.Operands.begin() + R.below(I.Operands.size()));
    break;
  case 2: // duplicate an operand
    if (!I.Operands.empty()) {
      size_t K = R.below(I.Operands.size());
      I.Operands.insert(I.Operands.begin() + K, I.Operands[K]);
    }
    break;
  case 3: // `_` for a register
    if (std::string *Op = Pick(IsReg))
      *Op = "_";
    break;
  case 4: // a register past the frame, or past what the parser accepts
    if (std::string *Op = Pick(IsReg)) {
      int64_t Choices[] = {Regs[At], Regs[At] + 1, 65534, 65535, 99999};
      *Op = "r" + std::to_string(Choices[R.below(5)]);
    }
    break;
  case 5: // an immediate out of range of whatever it indexes
    if (std::string *Op = Pick([](const std::string &S) {
          return !S.empty() && S[0] == '#';
        })) {
      int64_t Choices[] = {Extremes[R.below(4)], 2, 3, 4, 64};
      *Op = "#" + std::to_string(Choices[R.below(5)]);
    }
    break;
  default: // a branch target outside the body
    if (std::string *Op = Pick([](const std::string &S) {
          return !S.empty() && S[0] == '@';
        })) {
      int64_t Choices[] = {BodySize[At], BodySize[At] + 7,
                           Extremes[R.below(4)]};
      *Op = "@" + std::to_string(Choices[R.below(3)]);
    }
    break;
  }
  Lines[At] = I.str();
}

/// Mutates \p Text with one to three token-level mutations.
std::string mutate(const std::string &Text, Rng &R) {
  std::vector<std::string> Lines = splitLines(Text);
  // Register count and body size of the function each line belongs to.
  std::vector<int64_t> Regs(Lines.size(), 0), BodySize(Lines.size(), 0);
  int64_t CurRegs = 0;
  size_t FuncStart = 0;
  auto CloseFunction = [&](size_t End) {
    int64_t N = 0;
    for (size_t K = FuncStart; K < End; ++K)
      N += Lines[K].find("  @") == 0;
    for (size_t K = FuncStart; K < End; ++K)
      BodySize[K] = N;
  };
  for (size_t K = 0; K < Lines.size(); ++K) {
    if (Lines[K].rfind("func ", 0) == 0) {
      CloseFunction(K);
      FuncStart = K;
      size_t P = Lines[K].find("regs=");
      CurRegs = P == std::string::npos
                    ? 0
                    : std::strtoll(Lines[K].c_str() + P + 5, nullptr, 10);
    }
    Regs[K] = CurRegs;
  }
  CloseFunction(Lines.size());

  for (uint64_t N = 1 + R.below(3); N > 0; --N)
    mutateOnce(Lines, Regs, BodySize, R);
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// What one mutated input came to.
struct Tally {
  int ParseErrors = 0, VerifyErrors = 0, Ran = 0, NotRun = 0;
};

/// True when running \p P could reach one of two interpreter defects that
/// lie outside this contract and are left standing (CHANGES.md, FOUND):
/// Machine indexes an object's fields with getfield/putfield's immediate
/// unchecked (an array or map object has no class fields at all), and
/// burncpu spins its whole immediate whatever the instruction budget.
bool reachesKnownInterpreterDefect(const Program &P) {
  size_t MinFields = SIZE_MAX;
  for (const ClassDef &C : P.Classes)
    MinFields = std::min(MinFields, C.Fields.size());
  bool FieldAccess = false, Containers = false;
  for (const Function &F : P.Functions)
    for (const Instr &I : F.Body) {
      if (I.Op == Opcode::GetField || I.Op == Opcode::PutField) {
        FieldAccess = true;
        if (I.Imm < 0 || static_cast<uint64_t>(I.Imm) >= MinFields)
          return true;
      }
      Containers |= I.Op == Opcode::NewArray || I.Op == Opcode::MapNew;
      if (I.Op == Opcode::BurnCpu && I.Imm > 100000)
        return true;
    }
  return FieldAccess && Containers;
}

/// The contract for one input.
void checkOne(const std::string &Text, uint64_t Seed, Tally &T) {
  ParseResult Parsed = parseProgram(Text);
  if (!Parsed.Ok) {
    ++T.ParseErrors;
    EXPECT_GE(Parsed.Line, 1) << Parsed.Error;
    EXPECT_GE(Parsed.Col, 1) << Parsed.Error;
    EXPECT_EQ(Parsed.Error.rfind("line " + std::to_string(Parsed.Line) +
                                     ", col " + std::to_string(Parsed.Col) +
                                     ": ",
                                 0),
              0u)
        << Parsed.Error;
    return;
  }
  Program &P = Parsed.Prog;
  if (!P.verify().empty()) {
    ++T.VerifyErrors;
    return;
  }
  analysis::markSharedAccesses(P);
  analysis::LocksetAnalysis LA(P);
  LA.consistentlyGuarded();
  analysis::detectRaces(P, LA);
  if (reachesKnownInterpreterDefect(P)) {
    ++T.NotRun;
    return;
  }
  ++T.Ran;
  NullHook Null;
  Machine M(P, Null);
  M.seedEnvironment(Seed);
  RandomScheduler Sched(Seed);
  // The budget stays below the runtime's 1024 thread slots, so a program
  // that spawns in a loop cannot start more threads than it has slots
  // (another defect outside this contract).
  M.run(Sched, /*MaxInstructions=*/1000);
}

class MirMutation : public ::testing::TestWithParam<int> {};

TEST_P(MirMutation, ParserVerifierAndInterpreterHoldTheContract) {
  uint64_t Seed = testenv::effectiveSeed(static_cast<uint64_t>(GetParam()));
  SCOPED_TRACE(testenv::repro(Seed));
  std::vector<Input> All = inputs();
  ASSERT_GE(All.size(), 24u) << "16 bug kernels + the corpus";
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 3);
  Tally T;
  for (const Input &In : All) {
    SCOPED_TRACE(In.Name);
    for (int Trial = 0; Trial < 12; ++Trial) {
      std::string Text = mutate(In.Text, R);
      SCOPED_TRACE(Text);
      checkOne(Text, Seed, T);
      if (HasFailure())
        return;
    }
  }
  std::printf("parse errors %d, verify errors %d, ran %d, not run %d\n",
              T.ParseErrors, T.VerifyErrors, T.Ran, T.NotRun);
  // Every outcome class shows up, so the mutations reach all three stages.
  EXPECT_GT(T.ParseErrors, 0);
  EXPECT_GT(T.VerifyErrors, 0);
  EXPECT_GT(T.Ran, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirMutation,
                         ::testing::Range(1, 1 + testenv::iters(4)));

} // namespace

//===- tests/mir/VerifierTest.cpp - MIR verifier tests ---------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "mir/Builder.h"
#include "mir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace light;
using namespace light::mir;

namespace {

Program singleFunction(std::vector<Instr> Body, uint16_t Regs) {
  Program P;
  Function F;
  F.Name = "f";
  F.NumRegs = Regs;
  F.Body = std::move(Body);
  P.Functions.push_back(std::move(F));
  P.Entry = 0;
  return P;
}

} // namespace

TEST(Verifier, AcceptsMinimal) {
  Program P = singleFunction({{.Op = Opcode::Ret, .A = NoReg}}, 0);
  EXPECT_EQ(P.verify(), "");
}

TEST(Verifier, RejectsEmptyBody) {
  Program P = singleFunction({}, 0);
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsMissingTerminator) {
  Program P = singleFunction({{.Op = Opcode::ConstInt, .A = 0, .Imm = 1}}, 1);
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsBadJumpTarget) {
  Program P = singleFunction({{.Op = Opcode::Jmp, .Target = 7},
                              {.Op = Opcode::Ret, .A = NoReg}},
                             0);
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsRegisterOutOfRange) {
  Program P = singleFunction({{.Op = Opcode::ConstInt, .A = 3, .Imm = 0},
                              {.Op = Opcode::Ret, .A = NoReg}},
                             2);
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsUnknownCallee) {
  Program P = singleFunction({{.Op = Opcode::Call, .A = NoReg, .Imm = 9},
                              {.Op = Opcode::Ret, .A = NoReg}},
                             1);
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsCallArityMismatch) {
  Program P;
  Function Callee;
  Callee.Name = "callee";
  Callee.NumParams = 1;
  Callee.NumRegs = 1;
  Callee.Body = {{.Op = Opcode::Ret, .A = NoReg}};
  Function Main;
  Main.Name = "main";
  Main.NumRegs = 1;
  Main.Body = {{.Op = Opcode::Call, .A = NoReg, .Imm = 0},
               {.Op = Opcode::Ret, .A = NoReg}};
  P.Functions.push_back(std::move(Callee));
  P.Functions.push_back(std::move(Main));
  P.Entry = 1;
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsUnknownGlobal) {
  Program P = singleFunction({{.Op = Opcode::GetGlobal, .A = 0, .Imm = 3},
                              {.Op = Opcode::Ret, .A = NoReg}},
                             1);
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsBadEntry) {
  Program P = singleFunction({{.Op = Opcode::Ret, .A = NoReg}}, 0);
  P.Entry = 5;
  EXPECT_NE(P.verify(), "");
}

TEST(Verifier, RejectsUnknownThreadEntry) {
  Program P = singleFunction(
      {{.Op = Opcode::ThreadStart, .A = 0, .B = NoReg, .Imm = 4},
       {.Op = Opcode::Ret, .A = NoReg}},
      1);
  EXPECT_NE(P.verify(), "");
}

// --- `_` only where an operand is optional ----------------------------------

namespace {

/// One well-formed instance of an opcode, in the printed syntax, and the
/// operand positions (0-based, comma-separated) naming a register the
/// opcode reads or defines unconditionally.
struct Sample {
  const char *Line;
  std::vector<size_t> Required;
};

const std::vector<Sample> &samples() {
  static const std::vector<Sample> All = {
      {"const r0, 5", {0}},
      {"null r0, _, _", {0}},
      {"move r0, r1, _", {0, 1}},
      {"add r0, r1, r2", {0, 1, 2}},
      {"sub r0, r1, r2", {0, 1, 2}},
      {"mul r0, r1, r2", {0, 1, 2}},
      {"div r0, r1, r2", {0, 1, 2}},
      {"mod r0, r1, r2", {0, 1, 2}},
      {"cmpeq r0, r1, r2", {0, 1, 2}},
      {"cmpne r0, r1, r2", {0, 1, 2}},
      {"cmplt r0, r1, r2", {0, 1, 2}},
      {"cmple r0, r1, r2", {0, 1, 2}},
      {"not r0, r1, _", {0, 1}},
      {"jmp @1", {}},
      {"br r0, @1, @1", {0}},
      {"call _, f1(r0)", {}},
      {"ret _, _, _", {}},
      {"new r0, _, #0", {0}},
      {"getfield r0, r1, #0", {0, 1}},
      {"putfield r0, r1, #0", {0, 1}},
      {"getglobal r0, _, #0", {0}},
      {"putglobal r0, _, #0", {0}},
      {"newarray r0, r1, _", {0, 1}},
      {"aload r0, r1, r2", {0, 1, 2}},
      {"astore r0, r1, r2", {0, 1, 2}},
      {"arraylen r0, r1, _", {0, 1}},
      {"mapnew r0, _, _", {0}},
      {"mapput r0, r1, r2", {0, 1, 2}},
      {"mapget r0, r1, r2", {0, 1, 2}},
      {"mapcontains r0, r1, r2", {0, 1, 2}},
      {"mapremove r0, r1, _", {0, 1}},
      {"monitorenter r0, _, _", {0}},
      {"monitorexit r0, _, _", {0}},
      {"wait r0, _, _", {0}},
      {"notify r0, _, _", {0}},
      {"notifyall r0, _, _", {0}},
      {"rwrdlock r0, _, _", {0}},
      {"rwrdunlock r0, _, _", {0}},
      {"rwwrlock r0, _, _", {0}},
      {"rwwrunlock r0, _, _", {0}},
      {"barrierinit r0, _, #2", {0}},
      {"barrierwait r0, _, _", {0}},
      {"timedwait r0, r1, #5", {0, 1}},
      {"cas r0, r1, r2, #0", {0, 1, 2}},
      {"xchg r0, r1, #0", {0, 1}},
      {"chanmake r0, _, #0", {0}},
      {"send r0, _, #0", {0}},
      {"recv r0, _, #0", {0}},
      {"tryrecv r0, r1, #0", {0, 1}},
      {"start r0, _, #2", {0}},
      {"join r0, _, _", {0}},
      {"assert r0, _, #1", {0}},
      {"assertnonnull r0, _, #1", {0}},
      {"systime r0, _, _", {0}},
      {"sysrand r0, _, #10", {0}},
      {"print r0, _, _", {0}},
      {"burncpu _, _, #3", {}},
      {"nop _, _, _", {}},
  };
  return All;
}

/// A program whose entry runs \p Line and returns; f1 takes one parameter,
/// f2 none.
std::string programWith(const std::string &Line) {
  return "class Box { f }\n"
         "global 0 g\n"
         "chan 0 c\n"
         "func f0 main(params=0, regs=3) [entry]\n"
         "  @0: " + Line + "\n"
         "  @1: ret _, _, _\n"
         "func f1 callee(params=1, regs=1)\n"
         "  @0: ret _, _, _\n"
         "func f2 worker(params=0, regs=0)\n"
         "  @0: ret _, _, _\n";
}

/// \p Line with operand \p Pos replaced by \p Operand.
std::string withOperand(const std::string &Line, size_t Pos,
                        const std::string &Operand) {
  size_t Start = Line.find(' ') + 1;
  for (size_t K = 0; K < Pos; ++K)
    Start = Line.find(", ", Start) + 2;
  size_t End = std::min(Line.find(',', Start), Line.size());
  return Line.substr(0, Start) + Operand + Line.substr(End);
}

} // namespace

TEST(Verifier, NoneInARequiredRegisterIsAnError) {
  std::set<Opcode> Seen;
  for (const Sample &S : samples()) {
    SCOPED_TRACE(S.Line);
    ParseResult Clean = parseProgram(programWith(S.Line));
    ASSERT_TRUE(Clean.Ok) << Clean.Error;
    EXPECT_EQ(Clean.Prog.verify(), "");
    Seen.insert(Clean.Prog.Functions[0].Body[0].Op);

    for (size_t Pos : S.Required)
      for (const char *Bad : {"_", "r3", "r65534"}) {
        std::string Line = withOperand(S.Line, Pos, Bad);
        SCOPED_TRACE(Line);
        ParseResult R = parseProgram(programWith(Line));
        ASSERT_TRUE(R.Ok) << R.Error;
        std::string Error = R.Prog.verify();
        ASSERT_FALSE(Error.empty()) << "verify accepted it";
        // Structured: names the function, the instruction, the operand.
        EXPECT_EQ(Error.rfind("function 'main' @0: ", 0), 0u) << Error;
        EXPECT_NE(Error.find(std::string("operand ") + "ABC"[Pos]),
                  std::string::npos)
            << Error;
      }
  }
  EXPECT_EQ(Seen.size(), static_cast<size_t>(Opcode::Nop) + 1)
      << "every opcode needs a sample";

  // What was rejected before stays rejected: `_` as a call argument, and
  // an out-of-range register even in a slot the opcode does not use.
  for (const char *Line : {"call _, f1(_)", "nop r3, _, _", "print r0, r3, _",
                           "monitorenter r0, _, r3"}) {
    SCOPED_TRACE(Line);
    ParseResult R = parseProgram(programWith(Line));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_NE(R.Prog.verify(), "");
  }
}

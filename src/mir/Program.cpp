//===- mir/Program.cpp - MIR structure, verifier, printer -----------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "mir/Program.h"

#include "mir/OpTable.h"

using namespace light;
using namespace light::mir;

std::string Instr::str() const {
  const OpInfo &Info = opInfo(Op);
  std::string Out = Info.Mnemonic;
  auto R = [](Reg X) {
    return X == NoReg ? std::string("_") : "r" + std::to_string(X);
  };
  auto HashImm = [this] { return ", #" + std::to_string(Imm); };
  switch (Info.Form) {
  case Shape::DstImm:
    return Out + " " + R(A) + ", " + std::to_string(Imm);
  case Shape::Jump:
    return Out + " @" + std::to_string(Target);
  case Shape::Branch:
    return Out + " " + R(A) + ", @" + std::to_string(Target) + ", @" +
           std::to_string(Target2);
  case Shape::Call:
    Out += " " + R(A) + ", f" + std::to_string(Imm) + "(";
    for (size_t I = 0; I < Args.size(); ++I)
      Out += (I ? ", " : "") + R(Args[I]);
    return Out + ")";
  case Shape::RegRegImm:
    return Out + " " + R(A) + ", " + R(B) + HashImm();
  case Shape::ThreeRegImm:
    return Out + " " + R(A) + ", " + R(B) + ", " + R(C) + HashImm();
  case Shape::ThreeReg:
    break;
  }
  return Out + " " + R(A) + ", " + R(B) + ", " + R(C);
}

FuncId Program::findFunction(const std::string &Name) const {
  for (size_t I = 0; I < Functions.size(); ++I)
    if (Functions[I].Name == Name)
      return static_cast<FuncId>(I);
  return ~0u;
}

namespace {

/// The first operand of \p I that does not fit \p F in \p P, described,
/// or "" when every operand fits the roles the opcode table gives it.
std::string operandError(const Program &P, const Function &F,
                         const Instr &I) {
  const OpInfo &Info = opInfo(I.Op);
  auto InRange = [&](Reg X) { return X < F.NumRegs; };
  for (unsigned Slot = 0; Slot < 3; ++Slot) {
    RegRole Role = Info.Regs[Slot];
    Reg X = I.reg(Slot);
    bool MayBeNone = Role == RegRole::Spare || Role == RegRole::UseOpt ||
                     Role == RegRole::DefOpt;
    if (Role == RegRole::None || InRange(X) || (MayBeNone && X == NoReg))
      continue;
    return std::string("operand ") + "ABC"[Slot] +
           (X == NoReg ? " must name a register, not `_`"
                       : " register out of range");
  }

  for (unsigned K = 0; K < Info.targets(); ++K)
    if (I.target(K) < 0 || static_cast<size_t>(I.target(K)) >= F.Body.size())
      return "branch target out of range";

  auto Indexes = [&](size_t Size) {
    return I.Imm >= 0 && static_cast<uint64_t>(I.Imm) < Size;
  };
  switch (Info.Imm) {
  case ImmRole::None:
  case ImmRole::Field:
    break;
  case ImmRole::Func: {
    if (!Indexes(P.Functions.size()))
      return "call of unknown function";
    const Function &Callee = P.Functions[I.Imm];
    if (I.Args.size() != Callee.NumParams)
      return "call arity mismatch for '" + Callee.Name + "'";
    for (Reg Arg : I.Args)
      if (!InRange(Arg))
        return "call argument register out of range";
    break;
  }
  case ImmRole::Entry: {
    if (!Indexes(P.Functions.size()))
      return "thread start of unknown function";
    uint16_t Params = P.Functions[I.Imm].NumParams;
    if (Params > 1)
      return "thread entry takes at most one parameter";
    if (Params == 1 && I.B == NoReg)
      return "thread entry expects an argument";
    break;
  }
  case ImmRole::Class:
    if (!Indexes(P.Classes.size()))
      return "unknown class";
    break;
  case ImmRole::Global:
    if (!Indexes(P.Globals.size()))
      return "unknown global";
    break;
  case ImmRole::Channel:
    if (!Indexes(P.Channels.size()))
      return "unknown channel";
    break;
  case ImmRole::Parties:
    if (I.Imm < 1)
      return "barrier must have at least one party";
    break;
  case ImmRole::Ticks:
    if (I.Imm < 0)
      return "deadline must be non-negative";
    break;
  }
  return std::string();
}

} // namespace

std::string Program::verify() const {
  auto Err = [](const std::string &Where, const std::string &What) {
    return Where + ": " + What;
  };

  if (Entry >= Functions.size())
    return "entry function id out of range";

  for (size_t FI = 0; FI < Functions.size(); ++FI) {
    const Function &F = Functions[FI];
    std::string Where = "function '" + F.Name + "'";
    if (F.NumParams > F.NumRegs)
      return Err(Where, "more parameters than registers");
    if (F.Body.empty())
      return Err(Where, "empty body (missing ret?)");
    if (F.Body.back().Op != Opcode::Ret && F.Body.back().Op != Opcode::Jmp)
      return Err(Where, "body does not end in ret or jmp");

    for (size_t II = 0; II < F.Body.size(); ++II) {
      const Instr &I = F.Body[II];
      auto At = [&] { return Where + " @" + std::to_string(II); };
      if (static_cast<size_t>(I.Op) >= NumOpcodes)
        return Err(At(), "unknown opcode");
      if (std::string What = operandError(*this, F, I); !What.empty())
        return Err(At(), opInfo(I.Op).Mnemonic + (": " + What));
    }
  }
  return std::string();
}

std::string Program::str() const {
  std::string Out;
  for (size_t CI = 0; CI < Classes.size(); ++CI) {
    Out += "class " + Classes[CI].Name + " {";
    for (size_t FI = 0; FI < Classes[CI].Fields.size(); ++FI)
      Out += (FI ? ", " : " ") + Classes[CI].Fields[FI];
    Out += " }\n";
  }
  for (size_t GI = 0; GI < Globals.size(); ++GI)
    Out += "global " + std::to_string(GI) + " " + Globals[GI] + "\n";
  for (size_t CI = 0; CI < Channels.size(); ++CI)
    Out += "chan " + std::to_string(CI) + " " + Channels[CI] + "\n";
  for (size_t FI = 0; FI < Functions.size(); ++FI) {
    const Function &F = Functions[FI];
    Out += "func f" + std::to_string(FI) + " " + F.Name + "(params=" +
           std::to_string(F.NumParams) +
           ", regs=" + std::to_string(F.NumRegs) + ")" +
           (Entry == FI ? " [entry]" : "") + "\n";
    for (size_t II = 0; II < F.Body.size(); ++II)
      Out += "  @" + std::to_string(II) + ": " + F.Body[II].str() + "\n";
  }
  return Out;
}

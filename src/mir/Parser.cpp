//===- mir/Parser.cpp - Textual MIR parsing ---------------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "mir/Parser.h"

#include "mir/OpTable.h"

#include <cctype>
#include <cstring>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

using namespace light;
using namespace light::mir;

namespace {

/// Minimal cursor over one line.
class LineCursor {
  const std::string &S;
  size_t Pos = 0;

public:
  explicit LineCursor(const std::string &Line) : S(Line) {}

  void skipSpace() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= S.size();
  }

  bool literal(const char *Lit) {
    skipSpace();
    size_t Len = std::strlen(Lit);
    if (S.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }

  /// Parses an identifier-ish token (letters, digits, -, _, .).
  bool ident(std::string &Out) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < S.size() &&
           (std::isalnum(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '_' || S[Pos] == '-' || S[Pos] == '.'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out = S.substr(Start, Pos - Start);
    return true;
  }

  bool integer(int64_t &Out) {
    skipSpace();
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    size_t DigitStart = Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos == DigitStart) {
      Pos = Start;
      return false;
    }
    Out = std::strtoll(S.substr(Start, Pos - Start).c_str(), nullptr, 10);
    return true;
  }

  /// `rN` or `_`.
  bool reg(Reg &Out) {
    skipSpace();
    if (Pos < S.size() && S[Pos] == '_') {
      ++Pos;
      Out = NoReg;
      return true;
    }
    if (Pos >= S.size() || S[Pos] != 'r')
      return false;
    ++Pos;
    int64_t N;
    if (!integer(N) || N < 0 || N >= NoReg)
      return false;
    Out = static_cast<Reg>(N);
    return true;
  }

  /// `@N`.
  bool target(int32_t &Out) {
    skipSpace();
    if (Pos >= S.size() || S[Pos] != '@')
      return false;
    ++Pos;
    int64_t N;
    if (!integer(N) || N < 0)
      return false;
    Out = static_cast<int32_t>(N);
    return true;
  }

  /// `fN`.
  bool funcRef(int64_t &Out) {
    skipSpace();
    if (Pos >= S.size() || S[Pos] != 'f')
      return false;
    ++Pos;
    return integer(Out) && Out >= 0;
  }

  /// 1-based column of the cursor — the position of the offending token
  /// when a match just failed (matchers skip leading space first).
  int column() const { return static_cast<int>(Pos) + 1; }
};

const std::unordered_map<std::string, Opcode> &mnemonicTable() {
  static const std::unordered_map<std::string, Opcode> Table = [] {
    std::unordered_map<std::string, Opcode> T;
    for (const OpInfo &Info : optable::Rows)
      T[Info.Mnemonic] = Info.Op;
    return T;
  }();
  return Table;
}

} // namespace

ParseResult light::mir::parseProgram(const std::string &Text) {
  ParseResult Out;
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  Function *CurFn = nullptr;
  const LineCursor *Active = nullptr;

  auto Fail = [&](const std::string &What) {
    Out.Ok = false;
    Out.Line = LineNo;
    Out.Col = Active ? Active->column() : 1;
    Out.Error = "line " + std::to_string(LineNo) + ", col " +
                std::to_string(Out.Col) + ": " + What;
    return Out;
  };

  while (std::getline(In, Line)) {
    ++LineNo;
    LineCursor C(Line);
    Active = &C;
    if (C.atEnd())
      continue;

    // `;` starts a comment line (used by repro dumps for metadata).
    if (C.literal(";"))
      continue;

    if (C.literal("class ")) {
      std::string Name;
      if (!C.ident(Name) || !C.literal("{"))
        return Fail("expected `class Name { fields }`");
      ClassDef Cls;
      Cls.Name = Name;
      std::string Field;
      while (C.ident(Field)) {
        Cls.Fields.push_back(Field);
        if (!C.literal(","))
          break;
      }
      if (!C.literal("}"))
        return Fail("unterminated class field list");
      Out.Prog.Classes.push_back(std::move(Cls));
      continue;
    }

    if (C.literal("global ")) {
      int64_t Index;
      std::string Name;
      if (!C.integer(Index) || !C.ident(Name))
        return Fail("expected `global N name`");
      if (static_cast<size_t>(Index) != Out.Prog.Globals.size())
        return Fail("globals must be declared in order");
      Out.Prog.Globals.push_back(Name);
      continue;
    }

    if (C.literal("chan ")) {
      int64_t Index;
      std::string Name;
      if (!C.integer(Index) || !C.ident(Name))
        return Fail("expected `chan N name`");
      if (static_cast<size_t>(Index) != Out.Prog.Channels.size())
        return Fail("channels must be declared in order");
      Out.Prog.Channels.push_back(Name);
      continue;
    }

    if (C.literal("func ")) {
      int64_t Id;
      std::string Name;
      int64_t Params, Regs;
      if (!C.funcRef(Id) || !C.ident(Name) || !C.literal("(") ||
          !C.literal("params=") || !C.integer(Params) || !C.literal(",") ||
          !C.literal("regs=") || !C.integer(Regs) || !C.literal(")"))
        return Fail("expected `func fN name(params=P, regs=R)`");
      if (static_cast<size_t>(Id) != Out.Prog.Functions.size())
        return Fail("functions must be declared in order");
      Function F;
      F.Name = Name;
      F.NumParams = static_cast<uint16_t>(Params);
      F.NumRegs = static_cast<uint16_t>(Regs);
      Out.Prog.Functions.push_back(std::move(F));
      CurFn = &Out.Prog.Functions.back();
      if (C.literal("[entry]"))
        Out.Prog.Entry = static_cast<FuncId>(Id);
      continue;
    }

    if (C.literal("@")) {
      if (!CurFn)
        return Fail("instruction outside a function");
      int64_t Index;
      if (!C.integer(Index) || !C.literal(":"))
        return Fail("expected `@N: op ...`");
      if (static_cast<size_t>(Index) != CurFn->Body.size())
        return Fail("instructions must be numbered consecutively");
      std::string Mnemonic;
      if (!C.ident(Mnemonic))
        return Fail("missing opcode mnemonic");
      auto It = mnemonicTable().find(Mnemonic);
      if (It == mnemonicTable().end())
        return Fail("unknown opcode '" + Mnemonic + "'");
      Instr I;
      I.Op = It->second;

      switch (opInfo(I.Op).Form) {
      case Shape::DstImm:
        if (!C.reg(I.A) || !C.literal(",") || !C.integer(I.Imm))
          return Fail("expected `" + Mnemonic + " rA, imm`");
        break;
      case Shape::Jump:
        if (!C.target(I.Target))
          return Fail("expected `jmp @N`");
        break;
      case Shape::Branch:
        if (!C.reg(I.A) || !C.literal(",") || !C.target(I.Target) ||
            !C.literal(",") || !C.target(I.Target2))
          return Fail("expected `br rA, @T, @F`");
        break;
      case Shape::Call: {
        if (!C.reg(I.A) || !C.literal(",") || !C.funcRef(I.Imm) ||
            !C.literal("("))
          return Fail("expected `call rA, fN(args)`");
        Reg Arg;
        while (C.reg(Arg)) {
          I.Args.push_back(Arg);
          if (!C.literal(","))
            break;
        }
        if (!C.literal(")"))
          return Fail("unterminated call argument list");
        break;
      }
      case Shape::RegRegImm:
        if (!C.reg(I.A) || !C.literal(",") || !C.reg(I.B) ||
            !C.literal(",") || !C.literal("#") || !C.integer(I.Imm))
          return Fail("expected `" + Mnemonic + " rA, rB, #imm`");
        break;
      case Shape::ThreeRegImm:
        if (!C.reg(I.A) || !C.literal(",") || !C.reg(I.B) ||
            !C.literal(",") || !C.reg(I.C) || !C.literal(",") ||
            !C.literal("#") || !C.integer(I.Imm))
          return Fail("expected `" + Mnemonic + " rA, rB, rC, #imm`");
        break;
      case Shape::ThreeReg:
        if (!C.reg(I.A) || !C.literal(",") || !C.reg(I.B) ||
            !C.literal(",") || !C.reg(I.C))
          return Fail("expected `" + Mnemonic + " rA, rB, rC`");
        break;
      }
      if (!C.atEnd())
        return Fail("trailing characters after instruction");
      CurFn->Body.push_back(std::move(I));
      continue;
    }

    return Fail("unrecognized line");
  }

  Active = nullptr;
  if (Out.Prog.Functions.empty())
    return Fail("no functions");
  Out.Ok = true;
  return Out;
}

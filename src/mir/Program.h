//===- mir/Program.h - MIR functions, classes, programs ---------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static program structure of the MIR mini-language: class definitions
/// (field layouts), functions (register machines over Instr), global
/// variables, and the whole Program. Programs are constructed with
/// mir/Builder and checked by verify().
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_MIR_PROGRAM_H
#define LIGHT_MIR_PROGRAM_H

#include "mir/Instr.h"

#include <string>
#include <vector>

namespace light {
namespace mir {

using FuncId = uint32_t;
using ClassId = uint32_t;

/// A class: just a named field layout (methods are free functions in MIR).
struct ClassDef {
  std::string Name;
  std::vector<std::string> Fields;

  uint32_t numFields() const { return static_cast<uint32_t>(Fields.size()); }
};

/// A function: fixed-size register frame plus an instruction vector.
/// Parameters arrive in registers [0, NumParams).
struct Function {
  std::string Name;
  uint16_t NumParams = 0;
  uint16_t NumRegs = 0;
  std::vector<Instr> Body;
};

/// A complete MIR program.
struct Program {
  std::vector<ClassDef> Classes;
  std::vector<Function> Functions;
  std::vector<std::string> Globals;
  /// Message channels, declared like globals (`chan N name`). The index is
  /// the channel id used by ChanMake/ChanSend/ChanRecv/ChanTryRecv.
  std::vector<std::string> Channels;
  FuncId Entry = 0;

  const Function &function(FuncId F) const { return Functions[F]; }
  const ClassDef &classDef(ClassId C) const { return Classes[C]; }

  /// Looks up a function by name; returns ~0u when absent.
  FuncId findFunction(const std::string &Name) const;

  /// Structural sanity checks: every operand against its role in the
  /// opcode table (registers and `_`, branch targets, what the immediate
  /// indexes, call arity). Returns an empty string when the program is
  /// well-formed, else a diagnostic; an operand's names its instruction as
  /// "function 'F' @N: op: what".
  std::string verify() const;

  /// Pretty-prints the whole program (for examples and debugging).
  std::string str() const;
};

} // namespace mir
} // namespace light

#endif // LIGHT_MIR_PROGRAM_H

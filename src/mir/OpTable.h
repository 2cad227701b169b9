//===- mir/OpTable.h - One description of every MIR opcode ------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MIR opcode table: one constexpr row per Opcode, in enum order. A row
/// says how the instruction is written (mnemonic and operand shape), what
/// its register slots, immediate and branch targets mean, which heap
/// location it reads or writes, and the two facts other passes need:
/// whether the shrinker must keep it, and why Clap cannot model it.
///
/// Every pass that only describes opcodes reads this table: the printer,
/// the parser, the verifier, the lockset, shared-access and race analyses,
/// the shrinker and Clap's bail-out. Only interp/Machine.cpp knows what an
/// opcode does. A new opcode is a row here plus its Machine case (plus a
/// ClapEngine case if Clap models it).
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_MIR_OPTABLE_H
#define LIGHT_MIR_OPTABLE_H

#include "mir/Instr.h"

#include <cstddef>
#include <iterator>

namespace light {
namespace mir {

/// Operand layout, shared by the printer and the parser.
enum class Shape : uint8_t {
  DstImm,      ///< `op rA, imm`
  Jump,        ///< `op @T`
  Branch,      ///< `op rA, @T, @F`
  Call,        ///< `op rA, fN(args)`
  RegRegImm,   ///< `op rA, rB, #imm`
  ThreeRegImm, ///< `op rA, rB, rC, #imm`
  ThreeReg,    ///< `op rA, rB, rC`
};

/// What one register slot (A, B or C) of an instruction means.
enum class RegRole : uint8_t {
  None,   ///< no operand; verify ignores the slot
  Spare,  ///< no operand; verify still wants `_` or an in-range register
  Use,    ///< read; must name a register
  UseOpt, ///< read unless `_`
  Def,    ///< written; must name a register
  DefOpt, ///< written unless `_`
};

/// What the immediate names. Branch targets always index the function body
/// (one for Shape::Jump, two for Shape::Branch).
enum class ImmRole : uint8_t {
  None,    ///< unused, or a plain value (constant, bug id, bound, units)
  Func,    ///< Functions[Imm], called with the Args registers
  Entry,   ///< Functions[Imm] as a thread entry: at most one parameter, rB
  Class,   ///< Classes[Imm]
  Global,  ///< Globals[Imm]
  Channel, ///< Channels[Imm]
  Field,   ///< a field index of the object operand (checked at run time)
  Parties, ///< a barrier's party count, at least 1
  Ticks,   ///< a timed wait's deadline, not negative
};

/// The heap location an instruction accesses.
enum class HeapLoc : uint8_t {
  None,
  Global,  ///< global[Imm]
  Field,   ///< field Imm of the object operand
  Element, ///< an array element or a map key
};

/// How it accesses that location.
enum class HeapMode : uint8_t { Read, Write, Rmw };

/// One row of the table.
struct OpInfo {
  Opcode Op;
  const char *Mnemonic;
  Shape Form;
  RegRole Regs[3]; ///< slots A, B, C
  ImmRole Imm = ImmRole::None;
  HeapLoc Loc = HeapLoc::None;
  HeapMode Mode = HeapMode::Read;
  /// The shrinker keeps it: dropping it changes control flow, the thread
  /// structure, or lock/rendezvous pairing rather than shrinking the probe.
  bool Structural = false;
  /// Non-null when Clap's symbolic model cannot express the opcode: the
  /// note Clap bails out with.
  const char *ClapBail = nullptr;

  constexpr bool defines(unsigned Slot) const {
    return Regs[Slot] == RegRole::Def || Regs[Slot] == RegRole::DefOpt;
  }
  constexpr bool writesHeap() const {
    return Loc != HeapLoc::None && Mode != HeapMode::Read;
  }
  /// Number of branch targets: Instr::target(0) and, for a branch, (1).
  /// An opcode without targets falls through unless it is `ret`.
  constexpr unsigned targets() const {
    return Form == Shape::Branch ? 2 : Form == Shape::Jump ? 1 : 0;
  }

  // Row builders for the table below.
  constexpr OpInfo imm(ImmRole R) const {
    OpInfo Out = *this;
    Out.Imm = R;
    return Out;
  }
  constexpr OpInfo heap(HeapLoc Where, HeapMode How) const {
    OpInfo Out = *this;
    Out.Loc = Where;
    Out.Mode = How;
    return Out;
  }
  constexpr OpInfo structural() const {
    OpInfo Out = *this;
    Out.Structural = true;
    return Out;
  }
  constexpr OpInfo clap(const char *Why) const {
    OpInfo Out = *this;
    Out.ClapBail = Why;
    return Out;
  }
};

namespace optable {
constexpr RegRole None = RegRole::None, Spare = RegRole::Spare,
                  Use = RegRole::Use, UseOpt = RegRole::UseOpt,
                  Def = RegRole::Def, DefOpt = RegRole::DefOpt;
constexpr const char *MapBail = "hash-map intrinsic (no native solver support)";
constexpr const char *WaitBail = "wait/notify outside the symbolic model";
constexpr const char *RwBail = "read-write locks outside the symbolic model";
constexpr const char *BarrierBail = "barriers outside the symbolic model";
constexpr const char *AtomicBail =
    "lock-free atomics outside the symbolic model";
constexpr const char *ChanBail =
    "channel operations outside the symbolic model";

using O = Opcode;
using S = Shape;
using I = ImmRole;
using L = HeapLoc;
using M = HeapMode;

constexpr OpInfo op(Opcode Op, const char *Mnemonic, Shape Form, RegRole A,
                    RegRole B, RegRole C) {
  return OpInfo{Op, Mnemonic, Form, {A, B, C}};
}

// Clap's bail notes, in short: a HashMap has no native solver theory (the
// paper's headline limitation); a timed wait's arm, a CAS's success and a
// receive's partner are chosen by the schedule, which per-thread
// re-execution cannot see; treating rwlocks as mutexes would forbid
// concurrent readers and risk a bogus UNSAT.
inline constexpr OpInfo Rows[] = {
    op(O::ConstInt, "const", S::DstImm, Def, Spare, Spare),
    op(O::ConstNull, "null", S::ThreeReg, Def, Spare, Spare),
    op(O::Move, "move", S::ThreeReg, Def, Use, Spare),
    op(O::Add, "add", S::ThreeReg, Def, Use, Use),
    op(O::Sub, "sub", S::ThreeReg, Def, Use, Use),
    op(O::Mul, "mul", S::ThreeReg, Def, Use, Use),
    op(O::Div, "div", S::ThreeReg, Def, Use, Use),
    op(O::Mod, "mod", S::ThreeReg, Def, Use, Use),
    op(O::CmpEq, "cmpeq", S::ThreeReg, Def, Use, Use),
    op(O::CmpNe, "cmpne", S::ThreeReg, Def, Use, Use),
    op(O::CmpLt, "cmplt", S::ThreeReg, Def, Use, Use),
    op(O::CmpLe, "cmple", S::ThreeReg, Def, Use, Use),
    op(O::Not, "not", S::ThreeReg, Def, Use, Spare),
    op(O::Jmp, "jmp", S::Jump, None, None, None).structural(),
    op(O::Br, "br", S::Branch, Use, None, None).structural(),
    op(O::Call, "call", S::Call, DefOpt, None, None).imm(I::Func),
    op(O::Ret, "ret", S::ThreeReg, UseOpt, None, None).structural(),
    op(O::New, "new", S::RegRegImm, Def, None, None).imm(I::Class),
    op(O::GetField, "getfield", S::RegRegImm, Def, Use, None).imm(I::Field)
        .heap(L::Field, M::Read),
    op(O::PutField, "putfield", S::RegRegImm, Use, Use, None).imm(I::Field)
        .heap(L::Field, M::Write),
    op(O::GetGlobal, "getglobal", S::RegRegImm, Def, None, None).imm(I::Global)
        .heap(L::Global, M::Read),
    op(O::PutGlobal, "putglobal", S::RegRegImm, Use, None, None).imm(I::Global)
        .heap(L::Global, M::Write),
    op(O::NewArray, "newarray", S::ThreeReg, Def, Use, Spare),
    op(O::ALoad, "aload", S::ThreeReg, Def, Use, Use).heap(L::Element, M::Read),
    op(O::AStore, "astore", S::ThreeReg, Use, Use, Use)
        .heap(L::Element, M::Write),
    op(O::ArrayLen, "arraylen", S::ThreeReg, Def, Use, Spare),
    op(O::MapNew, "mapnew", S::ThreeReg, Def, Spare, Spare).clap(MapBail),
    op(O::MapPut, "mapput", S::ThreeReg, Use, Use, Use)
        .heap(L::Element, M::Write).clap(MapBail),
    op(O::MapGet, "mapget", S::ThreeReg, Def, Use, Use)
        .heap(L::Element, M::Read).clap(MapBail),
    op(O::MapContains, "mapcontains", S::ThreeReg, Def, Use, Use)
        .heap(L::Element, M::Read).clap(MapBail),
    op(O::MapRemove, "mapremove", S::ThreeReg, Use, Use, Spare)
        .heap(L::Element, M::Write).clap(MapBail),
    op(O::MonitorEnter, "monitorenter", S::ThreeReg, Use, Spare, Spare)
        .structural(),
    op(O::MonitorExit, "monitorexit", S::ThreeReg, Use, Spare, Spare)
        .structural(),
    op(O::Wait, "wait", S::ThreeReg, Use, Spare, Spare).clap(WaitBail),
    op(O::Notify, "notify", S::ThreeReg, Use, Spare, Spare).clap(WaitBail),
    op(O::NotifyAll, "notifyall", S::ThreeReg, Use, Spare, Spare)
        .clap(WaitBail),
    op(O::RwRdLock, "rwrdlock", S::ThreeReg, Use, Spare, Spare).structural()
        .clap(RwBail),
    op(O::RwRdUnlock, "rwrdunlock", S::ThreeReg, Use, Spare, Spare)
        .structural().clap(RwBail),
    op(O::RwWrLock, "rwwrlock", S::ThreeReg, Use, Spare, Spare).structural()
        .clap(RwBail),
    op(O::RwWrUnlock, "rwwrunlock", S::ThreeReg, Use, Spare, Spare)
        .structural().clap(RwBail),
    op(O::BarrierInit, "barrierinit", S::RegRegImm, Use, None, None)
        .imm(I::Parties).clap(BarrierBail),
    op(O::BarrierWait, "barrierwait", S::ThreeReg, Use, Spare, Spare)
        .structural().clap(BarrierBail),
    op(O::TimedWait, "timedwait", S::RegRegImm, Def, Use, None).imm(I::Ticks)
        .clap("timed wait outside the symbolic model"),
    op(O::AtomicCas, "cas", S::ThreeRegImm, Def, Use, Use).imm(I::Global)
        .heap(L::Global, M::Rmw).clap(AtomicBail),
    op(O::AtomicXchg, "xchg", S::RegRegImm, Def, Use, Spare).imm(I::Global)
        .heap(L::Global, M::Rmw).clap(AtomicBail),
    op(O::ChanMake, "chanmake", S::RegRegImm, Use, Spare, None).imm(I::Channel)
        .clap(ChanBail),
    // A blocking endpoint pairs up like a monitor: dropping one side of a
    // send/recv pair turns a probe into a deadlock, not a smaller repro.
    op(O::ChanSend, "send", S::RegRegImm, Use, Spare, None).imm(I::Channel)
        .structural().clap(ChanBail),
    op(O::ChanRecv, "recv", S::RegRegImm, Def, Spare, None).imm(I::Channel)
        .structural().clap(ChanBail),
    op(O::ChanTryRecv, "tryrecv", S::RegRegImm, Def, Def, None).imm(I::Channel)
        .clap(ChanBail),
    op(O::ThreadStart, "start", S::RegRegImm, Def, UseOpt, None).imm(I::Entry)
        .structural(),
    op(O::ThreadJoin, "join", S::ThreeReg, Use, Spare, Spare).structural(),
    op(O::AssertTrue, "assert", S::RegRegImm, Use, Spare, Spare),
    op(O::AssertNonNull, "assertnonnull", S::RegRegImm, Use, Spare, Spare),
    op(O::SysTime, "systime", S::ThreeReg, Def, Spare, Spare),
    op(O::SysRand, "sysrand", S::RegRegImm, Def, Spare, Spare),
    op(O::Print, "print", S::ThreeReg, Use, Spare, Spare),
    op(O::BurnCpu, "burncpu", S::RegRegImm, Spare, Spare, Spare),
    op(O::Nop, "nop", S::ThreeReg, Spare, Spare, Spare).structural(),
};

constexpr bool rowsFollowTheEnum() {
  for (size_t K = 0; K < std::size(Rows); ++K)
    if (static_cast<size_t>(Rows[K].Op) != K)
      return false;
  return true;
}
} // namespace optable

static_assert(std::size(optable::Rows) == NumOpcodes,
              "the opcode table needs exactly one row per Opcode");
static_assert(optable::rowsFollowTheEnum(),
              "row i of the opcode table must describe opcode i");

/// The table row of \p Op.
constexpr const OpInfo &opInfo(Opcode Op) {
  return optable::Rows[static_cast<size_t>(Op)];
}

} // namespace mir
} // namespace light

#endif // LIGHT_MIR_OPTABLE_H

//===- mir/Instr.h - MIR instruction set ------------------------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the MIR concurrent mini-language. MIR is the
/// stand-in for Java bytecode in this reproduction: it has heap objects with
/// fields, arrays, hash-map intrinsics, monitors (synchronized regions),
/// wait/notify, read-write locks, barriers, timed waits, lock-free atomics
/// (CAS/exchange), thread start/join, nondeterministic syscalls, and explicit
/// assertion points where "buggy usage" of an illegal value manifests
/// (Definition 3.2 of the paper).
///
/// Statements are three-address style over per-frame registers, matching the
/// paper's simple-statement assumption in Section 3.1.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_MIR_INSTR_H
#define LIGHT_MIR_INSTR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace light {
namespace mir {

/// Register index within a frame.
using Reg = uint16_t;

/// Sentinel meaning "no register" (e.g. a Call with ignored result).
constexpr Reg NoReg = 0xffff;

/// MIR opcodes.
enum class Opcode : uint8_t {
  // Constants and moves.
  ConstInt,  ///< A <- Imm
  ConstNull, ///< A <- null
  Move,      ///< A <- B

  // Integer arithmetic / comparison (operands must be ints).
  Add, ///< A <- B + C
  Sub, ///< A <- B - C
  Mul, ///< A <- B * C
  Div, ///< A <- B / C; C == 0 raises a DivideByZero bug
  Mod, ///< A <- B % C; C == 0 raises a DivideByZero bug
  CmpEq, ///< A <- (B == C), works on refs too
  CmpNe, ///< A <- (B != C), works on refs too
  CmpLt, ///< A <- (B < C)
  CmpLe, ///< A <- (B <= C)
  Not,   ///< A <- !truthy(B)

  // Control flow.
  Jmp, ///< goto Target
  Br,  ///< if truthy(A) goto Target else goto Target2
  Call, ///< A(opt) <- call Imm(Args...)
  Ret,  ///< return A (or nothing when A == NoReg)

  // Heap.
  New,      ///< A <- new object of class Imm
  GetField, ///< A <- B.field[Imm]   (global read; instrumented if shared)
  PutField, ///< A.field[Imm] <- B   (global write)
  GetGlobal, ///< A <- global[Imm]
  PutGlobal, ///< global[Imm] <- A
  NewArray, ///< A <- new array of length reg B
  ALoad,    ///< A <- B[C]
  AStore,   ///< A[B] <- C
  ArrayLen, ///< A <- length(B)

  // Hash-map intrinsics: the "data types without native solver support"
  // that defeat computation-based replay (Section 5.3). Keys are ints.
  MapNew,      ///< A <- new map
  MapPut,      ///< A[key B] <- C
  MapGet,      ///< A <- B[key C]; missing key yields null
  MapContains, ///< A <- (key C in B)
  MapRemove,   ///< remove key B from map A

  // Synchronization (modeled as ghost shared accesses per Section 4.3).
  MonitorEnter, ///< acquire monitor of object A (reentrant)
  MonitorExit,  ///< release monitor of object A
  Wait,         ///< wait on monitor A (must be held)
  Notify,       ///< notify one waiter of monitor A
  NotifyAll,    ///< notify all waiters of monitor A

  // Read-write lock on object A's ghost rwlock word. Readers are admitted
  // concurrently; a writer excludes readers and other writers. Write
  // acquisition is reentrant; a sole reader may upgrade.
  RwRdLock,   ///< acquire A's rwlock for reading (blocks on a writer)
  RwRdUnlock, ///< release one read hold of A's rwlock
  RwWrLock,   ///< acquire A's rwlock for writing (exclusive)
  RwWrUnlock, ///< release one write hold of A's rwlock

  // Cyclic barrier over object A's ghost barrier word, with generations:
  // the Imm-th arrival releases the generation and the count resets.
  BarrierInit, ///< initialize A as a barrier for Imm parties
  BarrierWait, ///< arrive at barrier A; block until the generation turns

  // Timed wait on monitor A (held, like Wait) with a deterministic
  // virtual-time deadline: the timeout is a schedulable decision point, so
  // exploration can drive both the notified and the timed-out arm.
  TimedWait, ///< A <- timed out? after waiting on B for at most Imm ticks

  // Lock-free atomics on a global cell (CAS-loop building blocks). Both
  // are recorded as one read+write flow dependence (a ghost RMW).
  AtomicCas,  ///< A <- (global[Imm] == B ? (global[Imm] = C, 1) : 0)
  AtomicXchg, ///< A <- global[Imm]; global[Imm] <- B

  // Message-passing channels (declared with `chan N name`, like globals).
  // Payloads are ints; every endpoint operation is recorded as a ghost RMW
  // on the channel's loc::chan word, so a send->recv pair is an ordinary
  // recorded flow dependence carrying a per-channel sequence number — Eq. 1
  // constraint generation needs no new constraint forms. In multi-node runs
  // the channel is backed by a process-crossing transport and each message
  // additionally lands in the node's durable message log.
  ChanMake,    ///< set channel Imm's capacity to the value in reg A
  ChanSend,    ///< send value in reg A on channel Imm (blocks when full)
  ChanRecv,    ///< A <- receive from channel Imm (blocks when empty)
  ChanTryRecv, ///< A <- got message? ; B <- value (arm recorded as input)

  // Threading.
  ThreadStart, ///< A <- start thread running function Imm with arg reg B
  ThreadJoin,  ///< join thread whose id is in reg A

  // Bug manifestation points (Definition 3.2).
  AssertTrue,    ///< raise AssertionFailure(bug Imm) when !truthy(A)
  AssertNonNull, ///< raise NullPointer(bug Imm) when A is null

  // Environment nondeterminism, recorded and substituted per Section 3.2.
  SysTime, ///< A <- current (virtual) time
  SysRand, ///< A <- recorded-random in [0, Imm)

  // Miscellaneous.
  Print,   ///< append value A to the machine's output transcript
  BurnCpu, ///< spin for Imm units of local work (workload kernels)
  Nop,     ///< keep last: NumOpcodes counts up to it
};

constexpr size_t NumOpcodes = static_cast<size_t>(Opcode::Nop) + 1;

/// One MIR instruction. Field roles depend on the opcode; see Opcode docs
/// and the opcode table (mir/OpTable.h).
struct Instr {
  Opcode Op = Opcode::Nop;
  Reg A = 0;
  Reg B = 0;
  Reg C = 0;
  int64_t Imm = 0;
  int32_t Target = 0;
  int32_t Target2 = 0;
  std::vector<Reg> Args; ///< Call arguments only.

  /// Set by SharedAccessAnalysis: false means the access provably touches
  /// thread-local data and is left uninstrumented (Section 3.2's shared
  /// location restriction). Meaningful only for heap/global/map opcodes.
  bool SharedAccess = true;

  /// Register slot 0, 1 or 2 (A, B, C).
  Reg reg(unsigned Slot) const { return Slot == 0 ? A : Slot == 1 ? B : C; }
  /// Branch target 0 or 1 (Target, Target2).
  int32_t &target(unsigned K) { return K == 0 ? Target : Target2; }
  int32_t target(unsigned K) const { return K == 0 ? Target : Target2; }

  std::string str() const;
};

} // namespace mir
} // namespace light

#endif // LIGHT_MIR_INSTR_H

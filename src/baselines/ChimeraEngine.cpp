//===- baselines/ChimeraEngine.cpp - The Chimera baseline ------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "baselines/ChimeraEngine.h"

#include "mir/OpTable.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

using namespace light;
using namespace light::mir;

// --- Patching ---------------------------------------------------------------

namespace {

/// Rewrites \p Fn so its whole body runs under the monitor of the object in
/// global \p LockGlobal.
void wrapFunction(Function &Fn, uint32_t LockGlobal) {
  assert(Fn.NumRegs < NoReg - 1 && "register file exhausted by patching");
  Reg LockReg = Fn.NumRegs++;

  // New index of each original instruction: 2 prologue instructions, plus
  // one extra MonitorExit before every Ret already emitted.
  std::vector<int32_t> NewIndex(Fn.Body.size());
  int32_t Shift = 2;
  for (size_t I = 0; I < Fn.Body.size(); ++I) {
    NewIndex[I] = static_cast<int32_t>(I) + Shift;
    if (Fn.Body[I].Op == Opcode::Ret)
      ++Shift; // the exit inserted before this Ret shifts everything after
  }

  std::vector<Instr> NewBody;
  NewBody.reserve(Fn.Body.size() + Shift);
  NewBody.push_back({.Op = Opcode::GetGlobal,
                     .A = LockReg,
                     .Imm = static_cast<int64_t>(LockGlobal)});
  NewBody.push_back({.Op = Opcode::MonitorEnter, .A = LockReg});
  for (Instr I : Fn.Body) {
    for (unsigned K = 0; K < opInfo(I.Op).targets(); ++K)
      I.target(K) = NewIndex[I.target(K)];
    if (I.Op == Opcode::Ret)
      NewBody.push_back({.Op = Opcode::MonitorExit, .A = LockReg});
    NewBody.push_back(std::move(I));
  }
  Fn.Body = std::move(NewBody);
}

/// Prepends \p Prologue to \p Fn (used on main to create chimera locks).
void prependInstrs(Function &Fn, const std::vector<Instr> &Prologue) {
  int32_t Shift = static_cast<int32_t>(Prologue.size());
  std::vector<Instr> NewBody(Prologue.begin(), Prologue.end());
  NewBody.reserve(Fn.Body.size() + Prologue.size());
  for (Instr I : Fn.Body) {
    for (unsigned K = 0; K < opInfo(I.Op).targets(); ++K)
      I.target(K) += Shift;
    NewBody.push_back(std::move(I));
  }
  Fn.Body = std::move(NewBody);
}

} // namespace

ChimeraPatch light::chimeraPatch(const Program &P,
                                 const std::vector<analysis::RacePair> &Races) {
  ChimeraPatch Out;
  Out.Patched = P;

  // Union racy functions into components; each component gets one lock.
  std::vector<uint32_t> Parent(P.Functions.size());
  std::iota(Parent.begin(), Parent.end(), 0);
  std::function<uint32_t(uint32_t)> Find = [&](uint32_t X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  };
  std::unordered_set<uint32_t> Racy;
  for (const analysis::RacePair &R : Races) {
    if (R.A.Func == P.Entry || R.B.Func == P.Entry)
      continue; // cannot wrap main (it creates the locks)
    Racy.insert(R.A.Func);
    Racy.insert(R.B.Func);
    Parent[Find(R.A.Func)] = Find(R.B.Func);
  }
  if (Racy.empty())
    return Out;

  // One chimera class + one lock global per component.
  ClassId LockCls = static_cast<ClassId>(Out.Patched.Classes.size());
  Out.Patched.Classes.push_back({"ChimeraLock", {"pad"}});

  std::unordered_map<uint32_t, uint32_t> LockGlobalOfComponent;
  std::vector<Instr> Prologue;
  Function &Main = Out.Patched.Functions[Out.Patched.Entry];
  for (uint32_t F : Racy) {
    uint32_t Root = Find(F);
    if (LockGlobalOfComponent.count(Root))
      continue;
    uint32_t G = static_cast<uint32_t>(Out.Patched.Globals.size());
    Out.Patched.Globals.push_back("chimera_lock_" +
                                  std::to_string(Out.NumChimeraLocks++));
    LockGlobalOfComponent[Root] = G;
    assert(Main.NumRegs < NoReg - 1 && "main register file exhausted");
    Reg Tmp = Main.NumRegs++;
    Prologue.push_back({.Op = Opcode::New,
                        .A = Tmp,
                        .Imm = static_cast<int64_t>(LockCls)});
    Prologue.push_back(
        {.Op = Opcode::PutGlobal, .A = Tmp, .Imm = static_cast<int64_t>(G)});
  }

  std::vector<uint32_t> Sorted(Racy.begin(), Racy.end());
  std::sort(Sorted.begin(), Sorted.end());
  for (uint32_t F : Sorted) {
    wrapFunction(Out.Patched.Functions[F], LockGlobalOfComponent[Find(F)]);
    Out.SerializedFunctions.push_back(Out.Patched.Functions[F].Name);
  }
  prependInstrs(Main, Prologue);
  return Out;
}

// --- Recording ---------------------------------------------------------------

ChimeraRecorder::ChimeraRecorder() : Syscalls(MaxThreads) {}

Counter ChimeraRecorder::counterOf(ThreadId T) const {
  return Counters.get(T);
}

void ChimeraRecorder::onWrite(ThreadId T, LocationId L, LocMeta &Meta,
                              FunctionRef<void()> Perform) {
  Counter C = Counters.bump(T);
  if (!loc::isGhost(L)) {
    Perform();
    return;
  }
  std::lock_guard<std::mutex> Guard(M);
  Perform();
  SyncOrder.push_back(AccessId(T, C));
}

void ChimeraRecorder::onRead(ThreadId T, LocationId L, LocMeta &Meta,
                             FunctionRef<void()> Perform) {
  Counter C = Counters.bump(T);
  if (!loc::isGhost(L)) {
    Perform();
    return;
  }
  std::lock_guard<std::mutex> Guard(M);
  Perform();
  SyncOrder.push_back(AccessId(T, C));
}

void ChimeraRecorder::onRmw(ThreadId T, LocationId L, LocMeta &Meta,
                            FunctionRef<void()> Perform) {
  Counter C = Counters.bump(T);
  if (!loc::isGhost(L)) {
    Perform();
    return;
  }
  std::lock_guard<std::mutex> Guard(M);
  Perform();
  SyncOrder.push_back(AccessId(T, C));
}

uint64_t ChimeraRecorder::onSyscall(ThreadId T,
                                    FunctionRef<uint64_t()> Compute) {
  uint64_t V = Compute();
  Syscalls[T].push_back(V);
  return V;
}

ChimeraLog ChimeraRecorder::finish() {
  ChimeraLog Log;
  Log.SyncOrder = SyncOrder;
  size_t MaxT = 0;
  for (size_t T = 0; T < Syscalls.size(); ++T)
    if (!Syscalls[T].empty())
      MaxT = T;
  Log.SyscallValues.assign(Syscalls.begin(), Syscalls.begin() + MaxT + 1);
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("baseline.chimera.sync_ops").add(Log.SyncOrder.size());
  Reg.counter("baseline.chimera.long_integers").add(Log.spaceLongs());
  return Log;
}

// --- Replay -------------------------------------------------------------------

ChimeraDirector::ChimeraDirector(const ChimeraLog &Log)
    : Order(Log.SyncOrder), SyscallQueues(Log.SyscallValues) {
  for (uint32_t I = 0; I < Order.size(); ++I) {
    TurnOf[Order[I].pack()] = I;
    if (Horizon.size() <= Order[I].Thread)
      Horizon.resize(Order[I].Thread + 1, 0);
    Horizon[Order[I].Thread] =
        std::max(Horizon[Order[I].Thread], Order[I].Count);
  }
  SyscallPos.assign(std::max<size_t>(SyscallQueues.size(), 1), 0);
}

Counter ChimeraDirector::counterOf(ThreadId T) const {
  return Counters.get(T);
}

AccessId ChimeraDirector::currentTurn() const {
  uint32_t I = Turn.load();
  return I < Order.size() ? Order[I] : AccessId();
}

void ChimeraDirector::diverge(const std::string &Message) {
  bool Expected = false;
  if (Diverged.compare_exchange_strong(Expected, true))
    Error = Message;
}

void ChimeraDirector::gate(ThreadId T, LocationId L,
                           FunctionRef<void()> Perform) {
  Counter C = Counters.bump(T);
  if (!loc::isGhost(L)) {
    Perform(); // data access: race-free by patching, lock order decides
    return;
  }
  if (T >= Horizon.size() || C > Horizon[T]) {
    Perform(); // past the recorded horizon
    return;
  }
  auto It = TurnOf.find(AccessId(T, C).pack());
  if (It == TurnOf.end()) {
    diverge("sync access " + AccessId(T, C).str() +
            " missing from the Chimera log");
    return;
  }
  if (Turn.load() != It->second) {
    diverge("Chimera replay out of order at " + AccessId(T, C).str());
    return;
  }
  Perform();
  Turn.fetch_add(1);
}

void ChimeraDirector::onWrite(ThreadId T, LocationId L, LocMeta &M,
                              FunctionRef<void()> Perform) {
  gate(T, L, Perform);
}

void ChimeraDirector::onRead(ThreadId T, LocationId L, LocMeta &M,
                             FunctionRef<void()> Perform) {
  gate(T, L, Perform);
}

void ChimeraDirector::onRmw(ThreadId T, LocationId L, LocMeta &M,
                            FunctionRef<void()> Perform) {
  gate(T, L, Perform);
}

uint64_t ChimeraDirector::onSyscall(ThreadId T,
                                    FunctionRef<uint64_t()> Compute) {
  if (T < SyscallQueues.size() && SyscallPos[T] < SyscallQueues[T].size())
    return SyscallQueues[T][SyscallPos[T]++];
  return Compute();
}

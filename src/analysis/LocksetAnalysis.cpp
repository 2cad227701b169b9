//===- analysis/LocksetAnalysis.cpp - Lock-consistency analysis -----------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "analysis/LocksetAnalysis.h"

#include "analysis/CallGraph.h"

#include <functional>
#include <map>
#include <unordered_map>

using namespace light;
using namespace light::analysis;
using namespace light::mir;

namespace {

/// One bit per lock abstraction; locks past the 64th stay unknown (NoLock).
using LockMask = uint64_t;
constexpr size_t MaxLocks = 64;

} // namespace

LocksetAnalysis::LocksetAnalysis(const Program &P) : Prog(P) {
  // --- 1. Lock abstractions: single-assignment globals used as monitors.
  //        Every write counts, atomic RMWs included.
  std::vector<uint32_t> GlobalWriteCount(P.Globals.size(), 0);
  for (const Function &F : P.Functions)
    for (const Instr &I : F.Body)
      if (opInfo(I.Op).Loc == HeapLoc::Global && opInfo(I.Op).writesHeap())
        ++GlobalWriteCount[I.Imm];

  // global id -> lock id (only for monitored single-assignment globals).
  std::unordered_map<uint32_t, LockId> LockOfGlobal;

  // For every function: map register -> unique defining GetGlobal global id
  // (or ~0 when the register has zero or multiple defs / non-global def).
  std::vector<std::vector<uint32_t>> UniqueGlobalDef(P.Functions.size());
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    const Function &Fn = P.Functions[F];
    std::vector<int> DefCount(Fn.NumRegs, 0);
    std::vector<uint32_t> DefGlobal(Fn.NumRegs, ~0u);
    for (const Instr &I : Fn.Body)
      for (unsigned Slot = 0; Slot < 3; ++Slot) {
        Reg D = I.reg(Slot);
        if (!opInfo(I.Op).defines(Slot) || D >= Fn.NumRegs)
          continue;
        if (++DefCount[D] == 1 && I.Op == Opcode::GetGlobal)
          DefGlobal[D] = static_cast<uint32_t>(I.Imm);
        else
          DefGlobal[D] = ~0u;
      }
    UniqueGlobalDef[F] = std::move(DefGlobal);
  }

  auto LockIdAt = [&](FuncId F, const Instr &I) -> LockId {
    if (I.A >= UniqueGlobalDef[F].size())
      return NoLock;
    uint32_t G = UniqueGlobalDef[F][I.A];
    if (G == ~0u || GlobalWriteCount[G] != 1)
      return NoLock;
    if (auto It = LockOfGlobal.find(G); It != LockOfGlobal.end())
      return It->second;
    if (LockNames.size() == MaxLocks)
      return NoLock; // the dataflow treats an unknown lock conservatively
    LockOfGlobal.emplace(G, static_cast<LockId>(LockNames.size()));
    LockNames.push_back(Prog.Globals[G]);
    return static_cast<LockId>(LockNames.size() - 1);
  };

  // Pre-resolve monitor operands so the number of locks is known.
  std::vector<std::vector<LockId>> MonitorLock(P.Functions.size());
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    const Function &Fn = P.Functions[F];
    MonitorLock[F].assign(Fn.Body.size(), NoLock);
    for (size_t I = 0; I < Fn.Body.size(); ++I) {
      const Instr &In = Fn.Body[I];
      if (In.Op == Opcode::MonitorEnter || In.Op == Opcode::MonitorExit)
        MonitorLock[F][I] = LockIdAt(static_cast<FuncId>(F), In);
    }
  }

  // --- 2. Flow-sensitive held-lockset propagation per (function, entry
  //        context), with a program-wide per-site intersection.
  LockMask Top =
      LockNames.empty() ? 0 : ~0ull >> (MaxLocks - LockNames.size());

  Held.resize(P.Functions.size());
  std::vector<std::vector<LockMask>> SiteMask(P.Functions.size());
  std::vector<std::vector<bool>> SiteSeen(P.Functions.size());
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    SiteMask[F].assign(P.Functions[F].Body.size(), Top);
    SiteSeen[F].assign(P.Functions[F].Body.size(), false);
  }

  // Memoized contexts: (func, entry mask) -> exit mask (or pending marker).
  std::map<std::pair<FuncId, LockMask>, LockMask> Contexts;

  // Recursive context analysis. MIR programs are small; recursion depth is
  // the call-graph depth.
  std::function<LockMask(FuncId, LockMask)> Analyze =
      [&](FuncId F, LockMask Entry) -> LockMask {
    auto Key = std::make_pair(F, Entry);
    auto It = Contexts.find(Key);
    if (It != Contexts.end())
      return It->second;
    // Break recursion cycles conservatively: assume the callee clobbers
    // every lock until a fixpoint result exists.
    Contexts[Key] = 0;

    const Function &Fn = P.Functions[F];
    size_t N = Fn.Body.size();
    std::vector<LockMask> In(N, Top);
    std::vector<bool> Reached(N, false);
    In[0] = Entry;
    Reached[0] = true;
    std::vector<uint32_t> Work{0};
    LockMask ExitMask = Top;
    bool SawRet = false;

    auto Propagate = [&](uint32_t To, LockMask M) {
      LockMask Merged = Reached[To] ? (In[To] & M) : M;
      if (!Reached[To] || Merged != In[To]) {
        Reached[To] = true;
        In[To] = Merged;
        Work.push_back(To);
      }
    };

    while (!Work.empty()) {
      uint32_t Idx = Work.back();
      Work.pop_back();
      const Instr &I = Fn.Body[Idx];
      LockMask M = In[Idx];

      // Record the fact at this site (intersected across all contexts).
      SiteMask[F][Idx] = SiteSeen[F][Idx] ? (SiteMask[F][Idx] & M) : M;
      SiteSeen[F][Idx] = true;

      LockMask Out = M;
      switch (I.Op) {
      case Opcode::MonitorEnter:
        if (MonitorLock[F][Idx] != NoLock)
          Out |= 1ull << MonitorLock[F][Idx];
        break;
      case Opcode::MonitorExit:
        if (MonitorLock[F][Idx] != NoLock)
          Out &= ~(1ull << MonitorLock[F][Idx]);
        else
          Out = 0; // unknown release: drop every fact
        break;
      case Opcode::Call: {
        LockMask CalleeExit = Analyze(static_cast<FuncId>(I.Imm), M);
        Out = M & CalleeExit;
        break;
      }
      default:
        break;
      }

      if (I.Op == Opcode::Ret) {
        ExitMask &= M;
        SawRet = true;
        continue;
      }
      unsigned Targets = opInfo(I.Op).targets();
      for (unsigned K = 0; K < Targets; ++K)
        Propagate(static_cast<uint32_t>(I.target(K)), Out);
      if (!Targets && Idx + 1 < N)
        Propagate(Idx + 1, Out);
    }

    LockMask Result = SawRet ? ExitMask : Entry;
    Contexts[Key] = Result;
    return Result;
  };

  Analyze(P.Entry, 0);
  for (const Function &F : P.Functions)
    for (const Instr &I : F.Body)
      if (I.Op == Opcode::ThreadStart)
        Analyze(static_cast<FuncId>(I.Imm), 0);

  // --- 3. Materialize per-site lock lists.
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    Held[F].resize(P.Functions[F].Body.size());
    for (size_t I = 0; I < Held[F].size(); ++I) {
      if (!SiteSeen[F][I])
        continue; // unreachable code: no facts
      LockMask M = SiteMask[F][I];
      for (LockId L = 0; L < LockNames.size(); ++L)
        if (M & (1ull << L))
          Held[F][I].push_back(L);
    }
  }
}

const std::vector<LocksetAnalysis::LockId> &
LocksetAnalysis::heldAt(FuncId F, uint32_t Idx) const {
  if (F >= Held.size() || Idx >= Held[F].size())
    return Empty;
  return Held[F][Idx];
}

GuardSpec LocksetAnalysis::consistentlyGuarded() const {
  // Intersect held locksets across all *shared* accesses of each location
  // abstraction; a nonempty intersection certifies Lemma 4.2's premise.
  std::unordered_map<uint64_t, LockMask> Common; // abstraction -> mask

  // Simple may-happen-in-parallel facts for the entry function: accesses
  // made while no spawned thread can be alive (before the first start /
  // after the last join on every path) cannot race and are excluded from
  // the guard intersection. This admits the ubiquitous "main initializes,
  // spawns, joins, reads results" idiom.
  std::vector<bool> SoloInMain = soloSitesInEntry();

  for (size_t F = 0; F < Prog.Functions.size(); ++F) {
    const Function &Fn = Prog.Functions[F];
    for (size_t I = 0; I < Fn.Body.size(); ++I) {
      const Instr &In = Fn.Body[I];
      uint64_t Abs = abstractionOf(In);
      if (!Abs || Abs == AbsArray || !In.SharedAccess)
        continue; // GuardSpec names only globals and fields
      if (F == Prog.Entry && I < SoloInMain.size() && SoloInMain[I])
        continue;
      LockMask M = 0;
      for (LockId L : heldAt(static_cast<FuncId>(F), static_cast<uint32_t>(I)))
        M |= 1ull << L;
      auto [It, Inserted] = Common.try_emplace(Abs, M);
      if (!Inserted)
        It->second &= M;
    }
  }

  GuardSpec Spec;
  for (auto &[Abs, Mask] : Common) {
    if (!Mask)
      continue;
    if ((Abs >> 62) == (AbsGlobal >> 62))
      Spec.GlobalIds.push_back(Abs & ~AbsGlobal);
    else
      Spec.FieldIndices.push_back(static_cast<uint32_t>(Abs & 0xfffff));
  }
  Spec.seal();
  return Spec;
}

std::vector<bool> LocksetAnalysis::soloSitesInEntry() const {
  // Forward dataflow over the entry function: (max threads started, min
  // threads joined) per path; a site is solo when started == joined on
  // every path reaching it. Conservative under merges.
  const Function &Fn = Prog.Functions[Prog.Entry];
  size_t N = Fn.Body.size();
  std::vector<int> Started(N, 0), Joined(N, 0);
  std::vector<bool> Reached(N, false);
  std::vector<uint32_t> Work{0};
  Reached[0] = true;

  auto Propagate = [&](uint32_t To, int S, int J) {
    int NewS = Reached[To] ? std::max(Started[To], S) : S;
    int NewJ = Reached[To] ? std::min(Joined[To], J) : J;
    if (!Reached[To] || NewS != Started[To] || NewJ != Joined[To]) {
      Reached[To] = true;
      Started[To] = NewS;
      Joined[To] = NewJ;
      Work.push_back(To);
    }
  };

  while (!Work.empty()) {
    uint32_t Idx = Work.back();
    Work.pop_back();
    const Instr &I = Fn.Body[Idx];
    int S = Started[Idx], J = Joined[Idx];
    if (I.Op == Opcode::ThreadStart)
      ++S;
    if (I.Op == Opcode::ThreadJoin)
      ++J;
    if (I.Op == Opcode::Ret)
      continue;
    unsigned Targets = opInfo(I.Op).targets();
    for (unsigned K = 0; K < Targets; ++K)
      Propagate(static_cast<uint32_t>(I.target(K)), S, J);
    if (!Targets && Idx + 1 < N)
      Propagate(Idx + 1, S, J);
  }

  std::vector<bool> Solo(N, false);
  for (size_t I = 0; I < N; ++I)
    Solo[I] = Reached[I] && Started[I] <= Joined[I];
  return Solo;
}

//===- analysis/SharedAccessAnalysis.cpp - Shared-location detection ------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SharedAccessAnalysis.h"

#include "analysis/CallGraph.h"

#include <algorithm>
#include <unordered_map>

using namespace light;
using namespace light::analysis;
using namespace light::mir;

std::vector<uint32_t> light::analysis::threadClassMasks(const Program &P) {
  std::vector<std::vector<FuncId>> Callees(P.Functions.size());
  std::vector<FuncId> Roots{P.Entry};
  for (size_t F = 0; F < P.Functions.size(); ++F)
    for (const Instr &I : P.Functions[F].Body) {
      ImmRole Role = opInfo(I.Op).Imm;
      if (Role != ImmRole::Func && Role != ImmRole::Entry)
        continue;
      FuncId Callee = static_cast<FuncId>(I.Imm);
      Callees[F].push_back(Callee);
      if (Role == ImmRole::Entry &&
          std::find(Roots.begin() + 1, Roots.end(), Callee) == Roots.end())
        Roots.push_back(Callee);
    }

  // Spawned classes past the 31st share the last bit: every spawned class
  // already counts as two threads, so merging them loses nothing.
  std::vector<uint32_t> Masks(P.Functions.size(), 0);
  for (size_t C = 0; C < Roots.size(); ++C) {
    uint32_t Bit = 1u << std::min<size_t>(C, 31);
    Masks[Roots[C]] |= Bit;
    std::vector<FuncId> Work{Roots[C]};
    while (!Work.empty()) {
      FuncId F = Work.back();
      Work.pop_back();
      for (FuncId Callee : Callees[F])
        if (!(Masks[Callee] & Bit)) {
          Masks[Callee] |= Bit;
          Work.push_back(Callee);
        }
    }
  }
  return Masks;
}

SharedAccessStats light::analysis::markSharedAccesses(Program &P) {
  // Thread classes: main, plus every ThreadStart target. A class spawned
  // from a site that may execute repeatedly is conservatively treated as
  // multi-instance; MIR has loops, so any spawned class counts as
  // multi-instance unless proven otherwise — we keep the conservative
  // reading and only rely on the cross-class criterion below plus the
  // multi-instance flag for spawned classes.
  std::vector<uint32_t> ClassMasks = threadClassMasks(P);

  // Which thread classes access each abstraction.
  std::unordered_map<uint64_t, uint32_t> AccessedBy; // abstraction -> bitmask
  std::unordered_map<uint64_t, bool> MultiAccess;    // by a multi-instance?
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    uint32_t Mask = ClassMasks[F];
    bool Multi = (Mask & ~1u) != 0; // a spawned class reaches F
    for (const Instr &I : P.Functions[F].Body) {
      uint64_t Abs = abstractionOf(I);
      if (!Abs)
        continue;
      AccessedBy[Abs] |= Mask;
      MultiAccess[Abs] = MultiAccess[Abs] || Multi;
    }
  }

  auto IsShared = [&](uint64_t Abs) {
    uint32_t Mask = AccessedBy[Abs];
    bool MultipleClasses = (Mask & (Mask - 1)) != 0;
    return MultipleClasses || MultiAccess[Abs];
  };

  SharedAccessStats Stats;
  for (Function &F : P.Functions) {
    for (Instr &I : F.Body) {
      uint64_t Abs = abstractionOf(I);
      if (!Abs)
        continue;
      I.SharedAccess = IsShared(Abs);
      if (I.SharedAccess)
        ++Stats.InstrumentedSites;
      else
        ++Stats.SuppressedSites;
    }
  }
  return Stats;
}

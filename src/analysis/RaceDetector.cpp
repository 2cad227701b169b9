//===- analysis/RaceDetector.cpp - Static race detection -------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "analysis/RaceDetector.h"

#include "analysis/CallGraph.h"

#include <unordered_map>

using namespace light;
using namespace light::analysis;
using namespace light::mir;

std::vector<RacePair> light::analysis::detectRaces(const Program &P,
                                                   const LocksetAnalysis &LA) {
  std::vector<uint32_t> ClassMasks = threadClassMasks(P);
  constexpr uint32_t MultiMask = ~1u; // every spawned class

  // Gather shared access sites per abstraction, with lockset masks.
  struct Site {
    RaceSite RS;
    uint64_t LockMask;
    uint32_t Classes;
  };
  std::vector<bool> SoloInMain = LA.entrySoloSites();
  std::unordered_map<uint64_t, std::vector<Site>> ByAbs;
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    const Function &Fn = P.Functions[F];
    uint32_t Mask = ClassMasks[F];
    for (size_t I = 0; I < Fn.Body.size(); ++I) {
      const Instr &In = Fn.Body[I];
      uint64_t Abs = abstractionOf(In);
      if (!Abs || !In.SharedAccess)
        continue;
      // Entry-function accesses while no spawned thread is alive cannot
      // race (main's init/teardown idiom).
      if (F == P.Entry && I < SoloInMain.size() && SoloInMain[I])
        continue;
      uint64_t LockMask = 0;
      for (auto L : LA.heldAt(static_cast<FuncId>(F), static_cast<uint32_t>(I)))
        LockMask |= 1ull << L;
      ByAbs[Abs].push_back({{static_cast<FuncId>(F), static_cast<uint32_t>(I),
                             opInfo(In.Op).writesHeap()},
                            LockMask,
                            Mask});
    }
  }

  std::vector<RacePair> Races;
  for (auto &[Abs, Sites] : ByAbs) {
    for (size_t I = 0; I < Sites.size(); ++I) {
      for (size_t J = I; J < Sites.size(); ++J) {
        const Site &A = Sites[I];
        const Site &B = Sites[J];
        if (!A.RS.IsWrite && !B.RS.IsWrite)
          continue;
        if (A.LockMask & B.LockMask)
          continue; // a common lock serializes them
        // May-happen-in-parallel: the two sites can run in distinct thread
        // classes, or in two instances of one multi-instance class.
        if (!A.Classes || !B.Classes)
          continue; // unreachable code
        bool SingleSameClass =
            A.Classes == B.Classes && (A.Classes & (A.Classes - 1)) == 0;
        bool CrossClass = !SingleSameClass;
        bool SameMultiClass = (A.Classes & B.Classes & MultiMask) != 0;
        if (!CrossClass && !SameMultiClass)
          continue;
        RacePair R;
        R.A = A.RS;
        R.B = B.RS;
        R.Abstraction = Abs;
        R.What = P.Functions[A.RS.Func].Name + "@" +
                 std::to_string(A.RS.Instr) + " vs " +
                 P.Functions[B.RS.Func].Name + "@" +
                 std::to_string(B.RS.Instr);
        Races.push_back(std::move(R));
      }
    }
  }
  return Races;
}

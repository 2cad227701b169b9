//===- analysis/CallGraph.h - Thread classes and abstractions ---*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the analyses: which thread classes reach each function
/// over the call graph, and the coarse location abstraction of a heap
/// access.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_ANALYSIS_CALLGRAPH_H
#define LIGHT_ANALYSIS_CALLGRAPH_H

#include "mir/OpTable.h"
#include "mir/Program.h"

#include <vector>

namespace light {
namespace analysis {

/// Thread classes: main is class 0, and every ThreadStart target is one
/// more class, which may run as several instances. Returns, per function,
/// the mask of the classes whose code reaches it through calls (bit C for
/// class C), so a mask with a bit above 0 means "may run in two threads".
std::vector<uint32_t> threadClassMasks(const mir::Program &P);

/// Location abstraction kinds, in the top two bits of an abstraction.
enum AbsKind : uint64_t {
  AbsGlobal = 1ull << 62,
  AbsField = 2ull << 62,
  AbsArray = 3ull << 62, ///< one abstraction for all array and map contents
};

/// The coarse location abstraction \p I accesses: the kind tag plus the
/// global id or field index, or 0 when \p I touches no heap location.
inline uint64_t abstractionOf(const mir::Instr &I) {
  switch (mir::opInfo(I.Op).Loc) {
  case mir::HeapLoc::None:
    return 0;
  case mir::HeapLoc::Global:
    return AbsGlobal | static_cast<uint64_t>(I.Imm);
  case mir::HeapLoc::Field:
    return AbsField | static_cast<uint64_t>(I.Imm);
  case mir::HeapLoc::Element:
    return AbsArray;
  }
  return 0;
}

} // namespace analysis
} // namespace light

#endif // LIGHT_ANALYSIS_CALLGRAPH_H

//===- perfbench/main.cpp - Record->reproduce benchmark entry point -------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// light_perfbench --workload <bug-corpus|stream-pingpong|record-contended>
///                 --seed N --seconds S --trace 0|1 [--work-dir D] [--verbose]
///
/// perfbench/run.py builds this binary and calls it; see that file for the
/// metric definitions.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>

int main(int argc, char **argv) {
  perfbench::Options O;
  auto Usage = [] {
    std::fprintf(stderr,
                 "usage: light_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir D] [--verbose]\n");
    return 2;
  };
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--verbose") {
      O.Verbose = true;
      continue;
    }
    if (I + 1 >= argc)
      return Usage();
    std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V != "0";
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      return Usage();
  }
  if (O.Workload.empty() || O.Seconds <= 0)
    return Usage();
  return perfbench::runBenchmark(O);
}

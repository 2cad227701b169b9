//===- perfbench/Harness.h - Record->reproduce benchmark driver -*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed-loop driver the three workloads share. One iteration records
/// a generated input into a LIGHT003 durable log (and runs the same seeded
/// input under NullHook for the overhead baseline), then reproduces it:
/// decode, constraint generation, solve, schedule assembly and a validated
/// replay, followed by the outside correctness check. The next recording
/// starts only after that reproduction has finished.
///
/// Reproductions run in the benchmark process. Before each one the freed
/// heap goes back to the OS, the RSS high-water mark is reset
/// (/proc/self/clear_refs) and the RSS read; the high-water mark's growth
/// over that RSS is the offline phase's own peak. (Forking a child per
/// reproduction, as bench_scale does per row, added copy-on-write faults
/// that made the millisecond-scale reproductions of bug-corpus noisy.)
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_PERFBENCH_HARNESS_H
#define LIGHT_PERFBENCH_HARNESS_H

#include "SpanTrace.h"

#include "core/ReplaySchedule.h"
#include "trace/RecordingLog.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Verbose = false;   ///< one line per iteration on stdout
  std::string WorkDir = "."; ///< logs, spill files and the span trace
};

/// One recording.
struct RecordSample {
  double RecordS = 0;   ///< recorded run, up to the closed log
  double NullS = 0;     ///< the same seeded run under NullHook
  double FinishS = 0;   ///< LightRecorder::finish
  double InterpRunS = 0; ///< Machine::run under the recorder (MIR only)
  uint64_t Instructions = 0;
  uint64_t ContextSwitches = 0;
  uint64_t Accesses = 0;
  uint64_t Spans = 0;
  uint64_t LogBytes = 0;
  uint64_t Segments = 0;
  uint64_t ReadRetries = 0;
  uint64_t StripeContention = 0;
  uint64_t ElidedGuarded = 0;
  std::string Mismatch; ///< a recording-side check that failed
};

/// One reproduction.
struct ReproSample {
  enum class Result { Ok, Failed, Mismatch };
  Result What = Result::Ok;
  std::string Why;
  double ReproS = 0;   ///< closed log -> end of the validated replay
  double ReplayS = 0;
  double PeakRssMb = 0;
  std::map<std::string, double> Values; ///< per-layer counts and times
  std::vector<double> WindowMs;

  bool ok() const { return What == Result::Ok; }
  /// No verdict: unsat, solver budget, WindowTooSmall, a missing log.
  void fail(const std::string &W) {
    if (What == Result::Ok) {
      What = Result::Failed;
      Why = W;
    }
  }
  /// A wrong output: divergence or an outside-check difference.
  void mismatch(const std::string &W) {
    if (What != Result::Mismatch) {
      What = Result::Mismatch;
      Why = W;
    }
  }
  double &operator[](const std::string &Key) { return Values[Key]; }
};

/// One workload: setup() once, then record() and reproduce() + check() per
/// iteration; reproduce() reads the log record() closed, check() compares
/// against the transcripts record() kept.
class Workload {
public:
  virtual ~Workload() = default;

  /// Generates the inputs from \p Seed (MIR: parse, verify and analyse
  /// them). Timed as setup_s. The runtime objects are per recording, so
  /// record() builds them and record_overhead pays for them.
  virtual void setup(uint64_t Seed) = 0;

  /// Records iteration \p Iter (and its NullHook twin) into the log.
  virtual RecordSample record(uint64_t Iter, SpanTrace &T) = 0;

  /// Closed log on disk -> end of the validated replay.
  virtual void reproduce(uint64_t Iter, SpanTrace &T, ReproSample &Out) = 0;

  /// The outside check: compares the replay against the recording without
  /// any code from constraint generation.
  virtual void check(uint64_t Iter, SpanTrace &T, ReproSample &Out) = 0;

  /// True when one seed must give identical counts run after run (the
  /// recording is not scheduled by the OS).
  virtual bool deterministic() const = 0;
};

std::unique_ptr<Workload> makeBugCorpus(const Options &O);
std::unique_ptr<Workload> makeStreamPingPong(const Options &O);
std::unique_ptr<Workload> makeRecordContended(const Options &O);

/// Runs the workload named in \p O; prints the metrics and, last, the JSON
/// result line. Returns the process exit code.
int runBenchmark(const Options &O);

/// Monolithic schedule build shared by the MIR and the real-thread
/// workloads: the layers ReplaySchedule::build chains, called one by one
/// (buildScheduleProblem, smt::solveOrder, ReplaySchedule::fromSolvedOrder)
/// so each gets its own span and timer. Traced and untraced runs execute
/// the same calls. Fills the constraints.*, smt.* and schedule.* values;
/// returns nullopt (and fails \p Out) without a schedule.
/// \p Limits is the solve's budget.
std::optional<light::ReplaySchedule>
buildSchedule(const light::RecordingLog &Log,
              const light::smt::SolverLimits &Limits, SpanTrace &T,
              ReproSample &Out);

/// The solver budget of one schedule build (of one window on the windowed
/// path). The IDL search has rare pathological draws (millions of
/// conflicts on a few hundred spans); the conflict budget stops them
/// deterministically, solveOrder then retries once on Z3 under the wall
/// budget, and smt.timeouts counts the hit. The reproduction fails only
/// when both engines give up. bug-corpus sets a tighter conflict budget of
/// its own (see BugCorpus.cpp).
constexpr light::smt::SolverLimits SolveBudget{/*WallSeconds=*/10,
                                               /*MaxConflicts=*/100000};

uint64_t fileBytes(const std::string &Path);
uint64_t mixSeed(uint64_t A, uint64_t B);
double median(std::vector<double> V);

} // namespace perfbench

#endif // LIGHT_PERFBENCH_HARNESS_H

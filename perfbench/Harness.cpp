//===- perfbench/Harness.cpp - Record->reproduce benchmark driver ---------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/ConstraintGen.h"
#include "obs/Metrics.h"
#include "obs/PerfCounters.h"
#include "smt/Z3Backend.h"
#include "support/Timer.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <malloc.h>
#include <numeric>
#include <sys/stat.h>
#include <thread>

using namespace light;
using namespace perfbench;

uint64_t perfbench::fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

uint64_t perfbench::mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9e3779b97f4a7c15ull + B + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::optional<ReplaySchedule>
perfbench::buildSchedule(const RecordingLog &Log,
                         const smt::SolverLimits &Limits, SpanTrace &T,
                         ReproSample &Out) {
  obs::Registry &Reg = obs::Registry::global();
  const uint64_t Fallbacks0 = Reg.snapshot().counter("solver.fallbacks");
  std::optional<ReplaySchedule> Plan;
  ScheduleProblem P;
  {
    Scope S(T, "constraints");
    Stopwatch Clock;
    P = buildScheduleProblem(Log);
    Out["constraints.s"] = Clock.seconds();
  }
  Out["constraints.vars"] = P.System.numVars();
  Out["constraints.clauses"] = static_cast<double>(P.System.clauses().size());
  smt::SolveResult Stats;
  {
    Scope S(T, "smt");
    Stats = smt::solveOrder(P.System, smt::SolverEngine::Idl, Limits);
  }
  if (Stats.sat()) {
    Scope S(T, "schedule");
    Stopwatch Clock;
    // ReplaySchedule::build's total order: model value, ties by access.
    std::vector<uint32_t> Perm(P.VarAccess.size());
    std::iota(Perm.begin(), Perm.end(), 0u);
    std::sort(Perm.begin(), Perm.end(), [&](uint32_t X, uint32_t Y) {
      if (Stats.Values[X] != Stats.Values[Y])
        return Stats.Values[X] < Stats.Values[Y];
      return P.VarAccess[X].pack() < P.VarAccess[Y].pack();
    });
    std::vector<AccessId> Order;
    Order.reserve(Perm.size());
    for (uint32_t I : Perm)
      Order.push_back(P.VarAccess[I]);
    Plan = ReplaySchedule::fromSolvedOrder(Log, std::move(Order), Stats);
    Out["schedule.assemble_s"] = Clock.seconds();
  } else {
    Out.fail(Stats.failed() ? "solve failed: " + Stats.Message
                            : "constraint system unsatisfiable");
  }

  Out["smt.solve_s"] = Stats.SolveSeconds;
  Out["smt.decisions"] = static_cast<double>(Stats.Decisions);
  Out["smt.conflicts"] = static_cast<double>(Stats.Conflicts);
  Out["smt.propagations"] = static_cast<double>(Stats.Propagations);
  Out["smt.scan_steps"] = static_cast<double>(Stats.ScanSteps);
  // solveOrder retries on Z3 once the IDL engine runs out of budget.
  Out["smt.timeouts"] = static_cast<double>(
      Reg.snapshot().counter("solver.fallbacks") - Fallbacks0);
  if (Plan)
    Out["schedule.turns"] = static_cast<double>(Plan->order().size());
  return Plan;
}

namespace {

/// setup_s is a median over the run's own set-up and over set-ups of spare
/// workloads, taken in batches spread over the measured loop: this shared
/// host runs faster or slower for seconds at a time, so set-ups taken back
/// to back before the loop wandered by +-30% from run to run. A batch is up
/// to SetupBatchMax set-ups within SetupBatchSeconds (at least one); about
/// SetupBatches batches per run, and set-ups take at most SetupShare of the
/// loop's time.
constexpr size_t SetupBatchMax = 100;
constexpr double SetupBatchSeconds = 0.01;
constexpr double SetupBatches = 20;
constexpr double SetupShare = 0.08;
/// Latency of a failed reproduction: it misses every limit.
constexpr double FailedLatency = std::numeric_limits<double>::infinity();

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "bug-corpus")
    return makeBugCorpus(O);
  if (O.Workload == "stream-pingpong")
    return makeStreamPingPong(O);
  if (O.Workload == "record-contended")
    return makeRecordContended(O);
  return nullptr;
}

/// A "<Key> <n> kB" line of /proc/self/status in bytes (VmRSS, VmHWM); 0
/// when it cannot be read.
uint64_t statusBytes(const char *Key) {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  const size_t KeyLen = std::strlen(Key);
  char Line[256];
  uint64_t Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, Key, KeyLen) == 0 && Line[KeyLen] == ':') {
      Kb = std::strtoull(Line + KeyLen + 1, nullptr, 10);
      break;
    }
  std::fclose(F);
  return Kb * 1024;
}

/// Returns freed heap to the OS and restarts the high-water mark (VmHWM) at
/// the current RSS. False when the kernel does not take the reset.
bool resetPeakRss() {
  ::malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  const bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// Runs reproduce() + check() of iteration \p Iter, with spans into \p T.
/// Its peak RSS is the high-water mark's growth over the RSS it started
/// from: the offline phase's own memory, not what the harness (the parsed
/// corpus, say) keeps resident.
ReproSample reproduceOnce(Workload &W, uint64_t Iter, SpanTrace &T) {
  ReproSample Out;
  const bool Reset = resetPeakRss();
  const uint64_t BaseRss = statusBytes("VmRSS");
  {
    Scope Root(T, "reproduce");
    Stopwatch Clock;
    W.reproduce(Iter, T, Out);
    Out.ReproS = Clock.seconds();
    if (Out.ok())
      W.check(Iter, T, Out);
  }
  const uint64_t PeakRss = statusBytes("VmHWM");
  if (!Reset || BaseRss == 0 || PeakRss == 0)
    Out.mismatch("cannot measure the offline peak RSS: /proc/self/clear_refs "
                 "or /proc/self/status unavailable");
  Out.PeakRssMb = static_cast<double>(PeakRss - std::min(PeakRss, BaseRss)) /
                  (1024.0 * 1024.0);
  return Out;
}

/// The counts the determinism self-check compares.
std::string fingerprint(Workload &W, uint64_t Iter, std::string &Problem) {
  SpanTrace Off;
  RecordSample R = W.record(Iter, Off);
  ReproSample P = reproduceOnce(W, Iter, Off);
  if (!R.Mismatch.empty())
    Problem = R.Mismatch;
  else if (!P.ok())
    Problem = P.Why;
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "spans=%" PRIu64 " clauses=%.0f decisions=%.0f "
                "conflicts=%.0f log_bytes=%" PRIu64 " turns=%.0f "
                "windows=%.0f",
                R.Spans, P["constraints.clauses"], P["smt.decisions"],
                P["smt.conflicts"], R.LogBytes, P["schedule.turns"],
                P["window.count"]);
  return Buf;
}

/// The tail of \p N sorted samples: the highest percentile that still has
/// at least ten samples beyond it, i.e. nearest rank N - 10, the eleventh
/// largest sample (the maximum when N <= 10). Returns that rank, 1-based.
size_t tailRank(size_t N) { return N > 10 ? N - 10 : N; }

/// The tail sample of sorted \p V, 0 when empty.
double tailOf(const std::vector<double> &V) {
  return V.empty() ? 0 : V[tailRank(V.size()) - 1];
}

/// The mean of the middle half of \p V. Per-reproduction RSS growth comes
/// in whole pages and in clusters, so on bug-corpus its median jumped
/// between clusters by 25% from one stretch of a run to the next, while
/// the mean followed the few reproductions that fell back to Z3 (20-120 MB
/// each).
double interquartileMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  return std::accumulate(V.begin() + Lo, V.begin() + Hi, 0.0) /
         static_cast<double>(Hi - Lo);
}

double finiteOr(double V, double Fallback) {
  return std::isfinite(V) ? V : Fallback;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

} // namespace

int perfbench::runBenchmark(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W) {
    std::fprintf(stderr,
                 "light_perfbench: unknown workload '%s' (bug-corpus, "
                 "stream-pingpong, record-contended)\n",
                 O.Workload.c_str());
    return 2;
  }
  std::vector<double> SetupS;
  {
    Stopwatch Clock;
    W->setup(O.Seed);
    SetupS.push_back(Clock.seconds());
  }
  double NextSetupAt = 0;
  auto SampleSetups = [&](double Now) {
    if (Now < NextSetupAt)
      return;
    Stopwatch Batch;
    for (size_t I = 0; I == 0 || (I < SetupBatchMax &&
                                  Batch.seconds() < SetupBatchSeconds);
         ++I) {
      std::unique_ptr<Workload> Spare = makeWorkload(O);
      Stopwatch Clock;
      Spare->setup(O.Seed);
      SetupS.push_back(Clock.seconds());
    }
    NextSetupAt = Now + std::max(O.Seconds / SetupBatches,
                                 Batch.seconds() / SetupShare);
  };

  std::vector<std::string> Problems;
  if (W->deterministic()) {
    // Determinism self-check (doubles as warm-up): one seed twice must
    // give identical counts, the next seed different ones.
    std::string Why;
    std::string A = fingerprint(*W, 0, Why);
    std::string B = fingerprint(*W, 0, Why);
    std::unique_ptr<Workload> Other = makeWorkload(O);
    Other->setup(O.Seed + 1);
    std::string C = fingerprint(*Other, 0, Why);
    std::printf("determinism: seed %" PRIu64 ": %s\n", O.Seed, A.c_str());
    std::printf("determinism: seed %" PRIu64 ": %s\n", O.Seed + 1,
                C.c_str());
    if (!Why.empty())
      Problems.push_back("self-check iteration failed: " + Why);
    if (A != B)
      Problems.push_back("same seed gave different counts: " + B);
    if (A == C)
      Problems.push_back("seeds " + std::to_string(O.Seed) + " and " +
                         std::to_string(O.Seed + 1) + " gave equal counts");
  } else {
    SpanTrace Off;
    RecordSample R = W->record(0, Off);
    ReproSample P = reproduceOnce(*W, 0, Off);
    if (!R.Mismatch.empty())
      Problems.push_back("warm-up: " + R.Mismatch);
    if (P.What == ReproSample::Result::Mismatch)
      Problems.push_back("warm-up: " + P.Why);
  }

  SpanTrace T(O.Trace), Off;
  std::vector<RecordSample> Recs;
  std::vector<ReproSample> Reps;
  std::vector<double> TracedS, UntracedS;
  Stopwatch Clock;
  for (uint64_t Iter = 0; Iter == 0 || Clock.seconds() < O.Seconds; ++Iter) {
    SampleSetups(Clock.seconds());
    T.setRecording(static_cast<uint32_t>(Iter));
    RecordSample R = W->record(Iter, T);
    ReproSample P;
    if (O.Trace) {
      // The untraced twin of every traced reproduction, order alternating,
      // measures what the spans cost.
      ReproSample U;
      if (Iter % 2)
        U = reproduceOnce(*W, Iter, Off);
      P = reproduceOnce(*W, Iter, T);
      if (Iter % 2 == 0)
        U = reproduceOnce(*W, Iter, Off);
      if (U.ok() && P.ok()) {
        TracedS.push_back(P.ReproS);
        UntracedS.push_back(U.ReproS);
      }
      if (U.What == ReproSample::Result::Mismatch)
        Problems.push_back("iteration " + std::to_string(Iter) + ": " + U.Why);
    } else {
      P = reproduceOnce(*W, Iter, T);
    }
    if (!R.Mismatch.empty())
      P.mismatch(R.Mismatch);
    if (P.What == ReproSample::Result::Mismatch)
      Problems.push_back("iteration " + std::to_string(Iter) + ": " + P.Why);
    if (O.Verbose)
      std::printf("iter %4" PRIu64 ": record %.6f s (null %.6f s) %" PRIu64
                  " accesses %" PRIu64 " spans %" PRIu64
                  " B | reproduce %.6f s replay %.6f s clauses %.0f "
                  "conflicts %.0f solve %.6f s timeouts %.0f "
                  "rss %.4f MB%s%s\n",
                  Iter, R.RecordS, R.NullS, R.Accesses, R.Spans, R.LogBytes,
                  P.ReproS, P.ReplayS, P["constraints.clauses"],
                  P["smt.conflicts"], P["smt.solve_s"], P["smt.timeouts"],
                  P.PeakRssMb, P.ok() ? "" : " FAILED: ",
                  P.ok() ? "" : P.Why.c_str());
    Recs.push_back(std::move(R));
    Reps.push_back(std::move(P));
  }
  const double MeasuredS = Clock.seconds();

  // --- End-to-end metrics ---------------------------------------------
  const uint64_t Attempted = Reps.size();
  uint64_t Failed = 0;
  std::vector<double> Latency, RecordRatio, ReplayRatio, Rss;
  double Bytes = 0, Accesses = 0;
  for (size_t I = 0; I < Reps.size(); ++I) {
    const RecordSample &R = Recs[I];
    const ReproSample &P = Reps[I];
    if (!P.ok())
      ++Failed;
    Latency.push_back(P.ok() ? P.ReproS : FailedLatency);
    if (R.NullS > 0)
      RecordRatio.push_back(R.RecordS / R.NullS);
    if (P.ok() && R.RecordS > 0)
      ReplayRatio.push_back(P.ReplayS / R.RecordS);
    if (P.ok())
      Rss.push_back(P.PeakRssMb);
    Bytes += static_cast<double>(R.LogBytes);
    Accesses += static_cast<double>(R.Accesses);
  }
  std::sort(Latency.begin(), Latency.end());

  std::vector<Metric> E2E = {
      {"setup_s", median(SetupS), "s"},
      {"record_overhead", median(RecordRatio) - 1, "ratio"},
      {"log_bytes_per_access", Accesses > 0 ? Bytes / Accesses : 0, "B"},
      {"reproduce_s.p50", finiteOr(median(Latency), 1e9), "s"},
      {"reproduce_s.tail", finiteOr(tailOf(Latency), 1e9), "s"},
      {"replay_overhead", median(ReplayRatio), "ratio"},
      {"offline_peak_rss_mb", interquartileMean(Rss), "MB"},
  };

  // --- Per-layer metrics (traced run) -----------------------------------
  std::vector<Metric> Layers;
  if (O.Trace) {
    auto MedR = [&](auto Field) {
      std::vector<double> V;
      for (const RecordSample &R : Recs)
        V.push_back(static_cast<double>(R.*Field));
      return median(V);
    };
    auto MedP = [&](const char *Key) {
      std::vector<double> V;
      for (ReproSample &P : Reps)
        if (P.ok())
          V.push_back(P[Key]);
      return median(V);
    };
    auto SumP = [&](const char *Key) {
      double S = 0;
      for (ReproSample &P : Reps)
        S += P[Key];
      return S;
    };
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
    double RecAcc = 0, RecSpans = 0, RecS = 0;
    for (const RecordSample &R : Recs) {
      RecAcc += static_cast<double>(R.Accesses);
      RecSpans += static_cast<double>(R.Spans);
      RecS += R.RecordS;
    }
    std::vector<double> WindowMs;
    for (const ReproSample &P : Reps)
      WindowMs.insert(WindowMs.end(), P.WindowMs.begin(), P.WindowMs.end());
    std::sort(WindowMs.begin(), WindowMs.end());
    const double Iters = static_cast<double>(std::max<size_t>(Recs.size(), 1));
    std::map<std::string, double> Self = T.selfSeconds();
    const double TracedMed = median(TracedS), UntracedMed = median(UntracedS);

    Layers = {
        {"interp.record_run_s", MedR(&RecordSample::InterpRunS), "s"},
        {"interp.instructions", MedR(&RecordSample::Instructions), "count"},
        {"interp.context_switches", MedR(&RecordSample::ContextSwitches),
         "count"},
        {"record.accesses", MedR(&RecordSample::Accesses), "count"},
        {"record.ns_per_access", Ratio(RecS * 1e9, RecAcc), "ns"},
        {"record.spans", MedR(&RecordSample::Spans), "count"},
        {"record.accesses_per_span", Ratio(RecAcc, RecSpans), "ratio"},
        {"record.read_retries", MedR(&RecordSample::ReadRetries), "count"},
        {"record.stripe_contention", MedR(&RecordSample::StripeContention),
         "count"},
        {"record.elided_guarded", MedR(&RecordSample::ElidedGuarded),
         "count"},
        {"record.finish_s", MedR(&RecordSample::FinishS), "s"},
        {"trace.segments", MedR(&RecordSample::Segments), "count"},
        {"trace.log_bytes", MedR(&RecordSample::LogBytes), "B"},
        {"trace.decode_s", MedP("trace.decode_s"), "s"},
        {"trace.decode_spans_per_ms",
         Ratio(SumP("trace.spans"), SumP("trace.decode_s") * 1e3),
         "spans/ms"},
        {"constraints.s", MedP("constraints.s"), "s"},
        {"constraints.vars", MedP("constraints.vars"), "count"},
        {"constraints.clauses", MedP("constraints.clauses"), "count"},
        {"constraints.clauses_per_span",
         Ratio(SumP("constraints.clauses"), SumP("trace.spans")), "ratio"},
        {"smt.solve_s", MedP("smt.solve_s"), "s"},
        {"smt.decisions", MedP("smt.decisions"), "count"},
        {"smt.conflicts", MedP("smt.conflicts"), "count"},
        {"smt.propagations", MedP("smt.propagations"), "count"},
        {"smt.scan_steps", MedP("smt.scan_steps"), "count"},
        {"smt.conflicts_per_decision",
         Ratio(SumP("smt.conflicts"), SumP("smt.decisions")), "ratio"},
        {"smt.timeouts", SumP("smt.timeouts"), "count"},
        {"window.count", MedP("window.count"), "count"},
        {"window.ms.p50", median(WindowMs), "ms"},
        {"window.ms.tail", tailOf(WindowMs), "ms"},
        {"window.too_small", SumP("window.too_small"), "count"},
        {"window.spill_bytes", MedP("window.spill_bytes"), "B"},
        {"schedule.assemble_s", MedP("schedule.assemble_s"), "s"},
        {"schedule.turns", MedP("schedule.turns"), "count"},
        {"replay.s", MedP("replay.s"), "s"},
        {"replay.turns_per_s", Ratio(SumP("replay.turns"), SumP("replay.s")),
         "turns/s"},
        {"replay.stalls", MedP("replay.stalls"), "count"},
        {"replay.validated_reads", MedP("replay.validated_reads"), "count"},
        {"replay.divergences", SumP("replay.divergences"), "count"},
    };
    // Self time per layer span, per recording.
    for (const char *Layer : {"record", "decode", "constraints", "smt",
                              "window", "spill", "schedule", "replay",
                              "check"})
      Layers.push_back({std::string("self.") + Layer + "_s",
                        Self[Layer] / Iters, "s"});
    Layers.push_back({"tracing.overhead_s", TracedMed - UntracedMed, "s"});
    Layers.push_back({"tracing.overhead_frac",
                      Ratio(TracedMed - UntracedMed, UntracedMed), "ratio"});
  }

  // --- Report -------------------------------------------------------------
  {
    obs::PerfCounters Probe;
    std::printf("host: nproc %u, perf_hw %s%s\n",
                std::thread::hardware_concurrency(),
                Probe.hardware() ? "live" : "off, TSC fallback: ",
                Probe.fallbackReason().c_str());
  }
  std::printf("workload %s, seed %" PRIu64 ": %" PRIu64
              " reproductions in %.1f s, %" PRIu64 " failed\n",
              O.Workload.c_str(), O.Seed, Attempted, MeasuredS, Failed);
  for (const Metric &M : E2E)
    std::printf("  %-30s %16.9g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("  %-30s %16.9g ratio\n", "reproduce_fail_frac",
              Attempted ? static_cast<double>(Failed) / Attempted : 0.0);
  std::printf("  setup_s is the median of %zu set-ups\n", SetupS.size());
  if (!Latency.empty())
    std::printf("  reproduce_s.tail is p%.2f of %zu samples\n",
                100.0 * static_cast<double>(tailRank(Latency.size())) /
                    static_cast<double>(Latency.size()),
                Latency.size());
  for (const Metric &M : Layers)
    std::printf("  %-30s %16.9g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (O.Trace) {
    std::string Path = O.WorkDir + "/spans-" + O.Workload + "-" +
                       std::to_string(O.Seed) + ".json";
    if (T.writeChromeTrace(Path))
      std::printf("  %zu spans written -> %s\n", T.spans().size(),
                  Path.c_str());
    else
      Problems.push_back("cannot write " + Path);
  }
  for (const std::string &P : Problems)
    std::printf("CHECK FAILED: %s\n", P.c_str());

  const bool Correct = Problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  const std::vector<Metric> &Out = O.Trace ? Layers : E2E;
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(),
                finiteOr(Out[I].Value, 0), Out[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

//===- perfbench/RecordContended.cpp - The record-contended workload ------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The recorder's hot path across real cores: Figure 4's default profile
/// (70% reads, same-location bursts of at most 16, 20% of operations in
/// lock sections over guarded variables; 64 + 16 variables, 4 locks) on 4
/// OS threads, with the unguarded variables split between the threads
/// (see VarsPerThread). The seed draws every thread's operation list. Each
/// iteration alternates recorded runs (LightRecorder with O2 guards, into
/// durable LIGHT003 epochs) with NullHook runs of the same lists; threads
/// start together behind a flag, so a run's wall time is the kernel's,
/// not thread creation's.
///
/// The last recording of each iteration is reproduced: RecordingLog::load,
/// the monolithic schedule, and a real-thread replay under a validating
/// ReplayDirector. The outside check compares every thread's read values
/// (guarded reads included).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "obs/Metrics.h"
#include "runtime/Runtime.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

using namespace light;
using namespace perfbench;

namespace {

constexpr int Threads = 4;
constexpr int OpsPerThread = 600;
constexpr int NumVars = 64;
/// Each thread's unguarded bursts stay in its own quarter of the
/// variables; threads share data only inside lock sections. With racing
/// unguarded reads and writes the outside check rejects real recordings:
/// LightRecorder::onWrite stores the value before it publishes LastWrite,
/// so a concurrent optimistic read can see the new value yet record the
/// previous write as its source.
constexpr int VarsPerThread = NumVars / Threads;
constexpr int NumGuardedVars = 16;
constexpr int NumLocks = 4;
constexpr int ReadPct = 70;
constexpr int BurstLen = 16;
constexpr int GuardedPct = 20;
constexpr int LocalWork = 24;
/// Recorded/NullHook run pairs per iteration.
constexpr int PairsPerIteration = 8;
constexpr size_t EpochSpans = 1024;

struct Op {
  enum Kind : uint8_t { Read, Write, Guarded } What;
  uint16_t Index;
};

using Transcripts = std::vector<std::vector<int64_t>>;

/// The shared objects of one run.
struct World {
  std::vector<std::unique_ptr<SharedVar>> Vars, GuardedVars;
  std::vector<std::unique_ptr<InstrumentedMutex>> Locks;

  World() {
    for (int I = 0; I < NumVars; ++I)
      Vars.push_back(std::make_unique<SharedVar>(1000 + I));
    for (int I = 0; I < NumGuardedVars; ++I)
      GuardedVars.push_back(std::make_unique<SharedVar>(5000 + I));
    for (int I = 0; I < NumLocks; ++I)
      Locks.push_back(std::make_unique<InstrumentedMutex>(9000 + I));
  }

  GuardSpec guards() const {
    GuardSpec G;
    for (const auto &V : GuardedVars)
      G.Exact.push_back(V->location());
    G.seal();
    return G;
  }
};

class RecordContended : public Workload {
public:
  explicit RecordContended(const Options &O)
      : LogPath(O.WorkDir + "/record-contended.light3") {}

  void setup(uint64_t Seed) override {
    Plans.assign(Threads, {});
    for (int Th = 0; Th < Threads; ++Th) {
      Rng R(mixSeed(Seed, 0xc0ffee00ull + Th));
      // Every (100 / GuardedPct)-th operation is a lock section, from a
      // seeded phase, cycling over the guarded variables (and so the locks)
      // from a seeded start: the lock words' span counts, which dominate
      // the solve, do not drift with the seed.
      const int Period = 100 / GuardedPct;
      const int Phase = static_cast<int>(R.below(Period));
      int NextGuarded = static_cast<int>(R.below(NumGuardedVars));
      int Burst = 0, Var = 0;
      for (int I = 0; I < OpsPerThread; ++I) {
        if ((I + Phase) % Period == 0) {
          Plans[Th].push_back(
              {Op::Guarded,
               static_cast<uint16_t>(NextGuarded++ % NumGuardedVars)});
          continue;
        }
        if (Burst == 0) {
          Var = Th * VarsPerThread +
                static_cast<int>(R.below(VarsPerThread));
          Burst = 1 + static_cast<int>(R.below(BurstLen));
        }
        --Burst;
        Plans[Th].push_back({R.below(100) < ReadPct ? Op::Read : Op::Write,
                             static_cast<uint16_t>(Var)});
      }
    }
  }

  RecordSample record(uint64_t Iter, SpanTrace &T) override {
    RecordSample Out;
    std::vector<double> NullS, RecS;
    // The NullHook runs keep a read transcript too, so the harness work is
    // the same on either side of record_overhead. (Guarded reads depend on
    // the OS's lock order, so the two transcripts are not compared.)
    Transcripts Plain;
    for (int P = 0; P < PairsPerIteration; ++P) {
      const bool RecordFirst = (Iter + P) % 2;
      if (RecordFirst)
        RecS.push_back(runRecorded(T, Out));
      {
        Scope S(T, "baseline");
        NullHook Null;
        Plain.assign(Threads, {});
        NullS.push_back(run(Null, Plain, nullptr));
      }
      if (!RecordFirst)
        RecS.push_back(runRecorded(T, Out));
    }
    Out.RecordS = median(RecS);
    Out.NullS = median(NullS);
    Out.LogBytes = fileBytes(LogPath);
    return Out;
  }

  void reproduce(uint64_t, SpanTrace &T, ReproSample &Out) override {
    RecordingLog Log;
    LogLoadReport Report;
    bool Loaded;
    {
      Scope S(T, "decode");
      Stopwatch Clock;
      Loaded = Log.load(LogPath, Report);
      Out["trace.decode_s"] = Clock.seconds();
    }
    if (!Loaded || !Report.CleanClose) {
      Out.fail("log did not load cleanly: " + Report.Error);
      return;
    }
    Out["trace.spans"] = static_cast<double>(Log.Spans.size());
    std::optional<ReplaySchedule> Plan =
        buildSchedule(Log, SolveBudget, T, Out);
    if (!Plan)
      return;

    Scope S(T, "replay");
    ReplayDirector Director(*Plan, /*RealThreads=*/true, /*Validate=*/true);
    Replayed.assign(Threads, {});
    Out.ReplayS = run(Director, Replayed, &Log);
    Out["replay.s"] = Out.ReplayS;
    ReplayStats RS = Director.stats();
    Out["replay.turns"] = static_cast<double>(RS.Turns);
    Out["replay.stalls"] = static_cast<double>(RS.Stalls);
    Out["replay.validated_reads"] = static_cast<double>(RS.ValidatedReads);
    Out["replay.divergences"] = static_cast<double>(RS.Divergences);
    if (Director.failed())
      Out.mismatch("replay diverged: " + Director.divergenceInfo().str());
    else if (!Director.complete())
      Out.mismatch("replay ended before the last turn");
  }

  void check(uint64_t, SpanTrace &T, ReproSample &Out) override {
    Scope S(T, "check");
    for (int Th = 0; Th < Threads; ++Th)
      if (Replayed[Th] != Recorded[Th])
        Out.mismatch("thread " + std::to_string(Th) +
                     " read different values in replay");
  }

  bool deterministic() const override { return false; }

private:
  std::string LogPath;
  std::vector<std::vector<Op>> Plans; ///< per thread
  Transcripts Recorded, Replayed;

  LightOptions options() const {
    LightOptions Opts;
    Opts.WriteToDisk = false;
    Opts.EpochSpans = EpochSpans;
    Opts.DurableLogPath = LogPath;
    Opts.CompressedEpochs = true;
    return Opts;
  }

  /// One recorded run into the log; returns its wall time up to the
  /// closed log and fills the recorder counters of \p Out.
  double runRecorded(SpanTrace &T, RecordSample &Out) {
    Scope S(T, "record");
    LightRecorder Rec(options());
    Recorded.assign(Threads, {});
    RecordingLog Log;
    obs::Registry &Reg = obs::Registry::global();
    const uint64_t Elided0 = Reg.snapshot().counter("record.elided_guarded");
    double Wall = run(Rec, Recorded, nullptr, &Rec, [&](Runtime &RT) {
      Scope F(T, "record.finish");
      Stopwatch Finish;
      Log = Rec.finish(&RT.registry());
      Out.FinishS = Finish.seconds();
    });
    const DurableLogWriter *DL = Rec.durableLog();
    if (!DL || !DL->ok() || Rec.overflowed())
      Out.Mismatch = "durable log not written";
    else
      Out.Segments = DL->segmentsWritten();
    Out.Accesses = 0;
    for (Counter C : Log.FinalCounters)
      Out.Accesses += C;
    Out.Spans = Log.Spans.size();
    Out.ReadRetries = Rec.readRetries();
    Out.StripeContention = Rec.stripeContentions();
    Out.ElidedGuarded =
        Reg.snapshot().counter("record.elided_guarded") - Elided0;
    return Wall;
  }

  /// Runs every thread's plan under \p Hook and returns the wall time from
  /// the start flag to the last join, plus \p Finish when recording. With
  /// \p Replay, threads are spawned against its recorded spawn table and
  /// the time runs from the first spawn.
  double run(AccessHook &Hook, Transcripts &Reads, const RecordingLog *Replay,
             LightRecorder *Rec = nullptr,
             const std::function<void(Runtime &)> &Finish = {}) {
    Runtime RT(Hook);
    if (Replay)
      RT.registry().loadForReplay(Replay->Spawns);
    World W;
    if (Rec)
      Rec->setGuards(W.guards());
    // The start flag is synchronization the recorder does not see, so a
    // replay must not wait on it: the solved order may put a thread's
    // first access before a later spawn.
    std::atomic<int> Ready{0};
    std::atomic<bool> Go{Replay != nullptr};
    Stopwatch Clock;
    std::vector<Runtime::Handle> Handles;
    for (int Th = 0; Th < Threads; ++Th)
      Handles.push_back(RT.spawn(Runtime::MainThread, [&, Th](ThreadId Self) {
        Ready.fetch_add(1);
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        body(RT, Self, Plans[Th], W, Reads[Th]);
      }));
    if (!Replay) {
      while (Ready.load() < Threads)
        std::this_thread::yield();
      Clock.reset();
    }
    Go.store(true, std::memory_order_release);
    for (Runtime::Handle &H : Handles)
      RT.join(Runtime::MainThread, H);
    if (Finish)
      Finish(RT);
    return Clock.seconds();
  }

  static void body(Runtime &RT, ThreadId Self, const std::vector<Op> &Plan,
                   World &W, std::vector<int64_t> &Reads) {
    volatile int64_t Sink = 0;
    for (const Op &O : Plan) {
      for (int K = 0; K < LocalWork; ++K)
        Sink = Sink + K;
      switch (O.What) {
      case Op::Read:
        Reads.push_back(W.Vars[O.Index]->read(RT, Self));
        break;
      case Op::Write:
        W.Vars[O.Index]->write(RT, Self, Sink + O.Index);
        break;
      case Op::Guarded: {
        InstrumentedGuard G(RT, *W.Locks[O.Index % NumLocks], Self);
        int64_t X = W.GuardedVars[O.Index]->read(RT, Self);
        Reads.push_back(X);
        W.GuardedVars[O.Index]->write(RT, Self, X + 1);
        break;
      }
      }
    }
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeRecordContended(const Options &O) {
  return std::make_unique<RecordContended>(O);
}

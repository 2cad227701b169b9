//===- perfbench/StreamPingPong.cpp - The stream-pingpong workload --------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The streaming path (bench_scale's kernel) end to end. Logical threads
/// form pairs; each pair ping-pongs bursts on a location of its own: one
/// head read that picks up the partner's last write, then writes. The
/// seed draws every burst length. Recording runs on one OS thread (the
/// round-robin is the interleaving, so the log is deterministic) into
/// LIGHT003 epochs of a fixed EpochSpans.
///
/// Reproduction streams the log through TraceSegmentReader into a
/// WindowedScheduleBuilder that spills its order to disk, reads the order
/// back, assembles the schedule, and replays the kernel on real threads
/// (one per logical thread) under a validating ReplayDirector. The
/// outside check compares every thread's read-value transcript.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/LightRecorder.h"
#include "core/ReplayDirector.h"
#include "core/WindowedSchedule.h"
#include "runtime/Runtime.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "trace/SegmentReader.h"

#include <algorithm>
#include <memory>
#include <thread>

using namespace light;
using namespace perfbench;

namespace {

/// Logical threads (two pairs); the replay runs one OS thread each.
constexpr uint32_t Threads = 4;
constexpr uint32_t Rounds = 100;       ///< bursts per thread
constexpr uint32_t MinBurst = 32;      ///< burst lengths: [32, 96)
constexpr uint32_t BurstRange = 64;
/// Fixed: the epoch size alone moves bench_scale's offline time severalfold.
constexpr size_t EpochSpans = 16;
constexpr size_t WindowSpans = 64;

using Transcripts = std::vector<std::vector<int64_t>>;
using Vars = std::vector<std::unique_ptr<SharedVar>>;

Vars makeVars() {
  Vars V;
  for (uint32_t P = 0; P < Threads / 2; ++P)
    V.push_back(std::make_unique<SharedVar>(/*Id=*/P + 1));
  return V;
}

class StreamPingPong : public Workload {
public:
  explicit StreamPingPong(const Options &O)
      : LogPath(O.WorkDir + "/stream-pingpong.light3"),
        SpillPath(O.WorkDir + "/stream-pingpong.order") {}

  void setup(uint64_t Seed) override {
    Rng R(mixSeed(Seed, 0x5717ea3ull));
    Bursts.assign(Threads, {});
    for (auto &B : Bursts) {
      B.reserve(Rounds);
      for (uint32_t I = 0; I < Rounds; ++I)
        B.push_back(MinBurst + static_cast<uint32_t>(R.below(BurstRange)));
    }
  }

  RecordSample record(uint64_t Iter, SpanTrace &T) override {
    RecordSample Out;
    // Both runs keep a read transcript, so the harness work is the same on
    // either side of record_overhead.
    Transcripts Plain;
    auto RunNull = [&] {
      Scope S(T, "baseline");
      NullHook Null;
      Runtime RT(Null);
      Vars V = makeVars();
      Plain.assign(Threads, {});
      Stopwatch Clock;
      runRecordKernel(RT, V, Plain);
      Out.NullS = Clock.seconds();
    };
    auto RunRecorded = [&] {
      Scope S(T, "record");
      LightRecorder Rec(options());
      Runtime RT(Rec);
      Vars V = makeVars();
      Recorded.assign(Threads, {});
      Stopwatch Clock;
      runRecordKernel(RT, V, Recorded);
      RecordingLog Log;
      {
        Scope F(T, "record.finish");
        Stopwatch Finish;
        Log = Rec.finish(&RT.registry());
        Out.FinishS = Finish.seconds();
      }
      Out.RecordS = Clock.seconds();
      const DurableLogWriter *DL = Rec.durableLog();
      if (!DL || !DL->ok() || Rec.overflowed())
        Out.Mismatch = "durable log not written";
      else
        Out.Segments = DL->segmentsWritten();
      for (Counter C : Log.FinalCounters)
        Out.Accesses += C;
      Out.Spans = Log.Spans.size();
      Out.ReadRetries = Rec.readRetries();
      Out.StripeContention = Rec.stripeContentions();
    };
    if (Iter % 2) {
      RunRecorded();
      RunNull();
    } else {
      RunNull();
      RunRecorded();
    }
    Out.LogBytes = fileBytes(LogPath);
    // The kernel is deterministic: recording must not change what it reads.
    if (Out.Mismatch.empty() && Plain != Recorded)
      Out.Mismatch = "the recorded run read different values than the same "
                     "run under NullHook";
    return Out;
  }

  void reproduce(uint64_t, SpanTrace &T, ReproSample &Out) override {
    TraceSegmentReader Reader(LogPath);
    if (!Reader.ok()) {
      Out.fail("cannot stream the log: " + Reader.report().Error);
      return;
    }
    WindowedOptions WO;
    WO.Limits = SolveBudget;
    WO.WindowSpans = WindowSpans;
    WO.SpillPath = SpillPath;
    WindowedScheduleBuilder Builder(WO);
    RecordingLog Log;
    double DecodeS = 0, WindowS = 0, SolveS = 0;
    size_t Windows = 0;
    // One addSpans (or the closing finish) call; the solver's own time
    // inside it becomes an "smt" child span, the rest is the windowed
    // layer's constraint generation, drain and spill.
    auto Feed = [&](bool Last) {
      Scope S(T, "window");
      Stopwatch Clock;
      bool Ok = Builder.addSpans(Log) && (!Last || Builder.finish());
      const double Dt = Clock.seconds();
      const double Solve = Builder.stats().SolveSeconds - SolveS;
      T.addChild("smt", Solve);
      SolveS += Solve;
      WindowS += Dt;
      const size_t New = Builder.windowsSolved() - Windows;
      Windows += New;
      for (size_t I = 0; I < New; ++I)
        Out.WindowMs.push_back(Dt * 1e3 / static_cast<double>(New));
      return Ok;
    };
    bool Ok = true;
    for (;;) {
      bool Got;
      {
        Scope S(T, "decode");
        Stopwatch Clock;
        Got = Reader.next(Log);
        if (!Got)
          Reader.finish(Log);
        DecodeS += Clock.seconds();
      }
      if (!Got || !(Ok = Feed(false)))
        break;
    }
    if (Ok)
      Ok = Feed(true);
    Out["trace.decode_s"] = DecodeS;
    Out["trace.spans"] = static_cast<double>(Log.Spans.size());
    Out["constraints.s"] = WindowS - SolveS;
    Out["window.count"] = static_cast<double>(Builder.windowsSolved());
    Out["window.too_small"] = Builder.tooSmall().fired() ? 1 : 0;
    const smt::SolveResult &Stats = Builder.stats();
    Out["smt.solve_s"] = Stats.SolveSeconds;
    Out["smt.decisions"] = static_cast<double>(Stats.Decisions);
    Out["smt.conflicts"] = static_cast<double>(Stats.Conflicts);
    Out["smt.propagations"] = static_cast<double>(Stats.Propagations);
    Out["smt.scan_steps"] = static_cast<double>(Stats.ScanSteps);
    if (!Ok) {
      Out.fail("windowed build failed: " + Builder.error());
      return;
    }
    if (!Reader.report().CleanClose) {
      Out.fail("log was not closed cleanly");
      return;
    }

    std::vector<AccessId> Order;
    {
      Scope S(T, "spill");
      Order = loadSpilledOrder(SpillPath);
    }
    Out["window.spill_bytes"] = static_cast<double>(fileBytes(SpillPath));
    if (Order.size() != Builder.orderSize()) {
      Out.fail("spilled order truncated");
      return;
    }
    std::optional<ReplaySchedule> Plan;
    {
      Scope S(T, "schedule");
      Stopwatch Clock;
      Plan = ReplaySchedule::fromSolvedOrder(Log, std::move(Order), Stats);
      Out["schedule.assemble_s"] = Clock.seconds();
    }
    Out["schedule.turns"] = static_cast<double>(Plan->order().size());

    Scope S(T, "replay");
    ReplayDirector Director(*Plan, /*RealThreads=*/true, /*Validate=*/true);
    Runtime RT(Director);
    Vars V = makeVars();
    Replayed.assign(Threads, {});
    Stopwatch Clock;
    {
      std::vector<std::thread> Workers;
      for (uint32_t Th = 0; Th < Threads; ++Th)
        Workers.emplace_back([&, Th] { runThread(RT, V, Th, Replayed[Th]); });
      for (std::thread &W : Workers)
        W.join();
    }
    Out.ReplayS = Clock.seconds();
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
    for (uint32_t Th = 0; Th < Threads; ++Th)
      if (Replayed[Th] != Recorded[Th])
        Out.mismatch("thread " + std::to_string(Th) +
                     " read different values in replay");
  }

  bool deterministic() const override { return true; }

private:
  std::string LogPath, SpillPath;
  std::vector<std::vector<uint32_t>> Bursts; ///< per thread, per round
  Transcripts Recorded, Replayed;

  LightOptions options() const {
    LightOptions Opts;
    Opts.WriteToDisk = false;
    Opts.EpochSpans = EpochSpans;
    Opts.DurableLogPath = LogPath;
    Opts.CompressedEpochs = true;
    return Opts;
  }

  static int64_t valueOf(uint32_t Th, uint32_t Round, uint32_t I) {
    return (static_cast<int64_t>(Th) << 40) |
           (static_cast<int64_t>(Round) << 12) | I;
  }

  /// One turn of thread \p Th: the head read, then the burst's writes.
  void turn(Runtime &RT, SharedVar &V, uint32_t Th, uint32_t Round,
            std::vector<int64_t> &Reads) {
    Reads.push_back(V.read(RT, Th));
    for (uint32_t I = 1; I < Bursts[Th][Round]; ++I)
      V.write(RT, Th, valueOf(Th, Round, I));
  }

  /// The recorded interleaving: round-robin over pairs, partners in turn,
  /// all on the calling OS thread.
  void runRecordKernel(Runtime &RT, Vars &V, Transcripts &Reads) {
    for (uint32_t Round = 0; Round < Rounds; ++Round)
      for (uint32_t Th = 0; Th < Threads; ++Th)
        turn(RT, *V[Th / 2], Th, Round, Reads[Th]);
  }

  /// Thread \p Th's own share of the kernel, for the real-thread replay.
  void runThread(Runtime &RT, Vars &V, uint32_t Th,
                 std::vector<int64_t> &Reads) {
    for (uint32_t Round = 0; Round < Rounds; ++Round)
      turn(RT, *V[Th / 2], Th, Round, Reads);
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeStreamPingPong(const Options &O) {
  return std::make_unique<StreamPingPong>(O);
}

//===- tests/analysis/AnalysisTest.cpp - Static analysis tests ------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "analysis/LocksetAnalysis.h"
#include "analysis/RaceDetector.h"
#include "analysis/SharedAccessAnalysis.h"

#include "../TestPrograms.h"
#include "testlib/TestEnv.h"

#include <gtest/gtest.h>

using namespace light;
using namespace light::analysis;
using namespace light::testprogs;

TEST(SharedAccess, WorkerGlobalsAreShared) {
  mir::Program P = counterRace(3, 5);
  SharedAccessStats Stats = markSharedAccesses(P);
  EXPECT_GT(Stats.InstrumentedSites, 0u);
  // Every access to the contended counter global stays instrumented.
  for (const mir::Function &F : P.Functions)
    for (const mir::Instr &I : F.Body)
      if (I.Op == mir::Opcode::GetGlobal || I.Op == mir::Opcode::PutGlobal)
        EXPECT_TRUE(I.SharedAccess);
}

TEST(SharedAccess, MainOnlyDataIsSuppressed) {
  // A program where main computes over a private global before spawning
  // nothing: all accesses are provably unshared.
  mir::ProgramBuilder PB;
  uint32_t G = PB.addGlobal("private");
  mir::FunctionBuilder FB = PB.beginFunction("main", 0);
  mir::Reg V = FB.newReg();
  FB.constInt(V, 42);
  FB.putGlobal(G, V);
  FB.getGlobal(V, G);
  FB.print(V);
  FB.ret();
  PB.setEntry(PB.endFunction(FB));
  mir::Program P = PB.take();

  SharedAccessStats Stats = markSharedAccesses(P);
  EXPECT_EQ(Stats.InstrumentedSites, 0u);
  EXPECT_EQ(Stats.SuppressedSites, 2u);
}

TEST(SharedAccess, SuppressedProgramStillReplaysFaithfully) {
  mir::Program P = lockedCounter(3, 5);
  markSharedAccesses(P);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RecordOutcome Rec = recordRun(P, Seed);
    ASSERT_TRUE(Rec.Result.Completed) << Rec.Result.Bug.str();
    expectFaithfulReplay(P, Rec);
  }
}

TEST(Lockset, LockedCounterIsConsistentlyGuarded) {
  mir::Program P = lockedCounter(3, 5);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  ASSERT_EQ(LA.numLocks(), 1u);
  GuardSpec Spec = LA.consistentlyGuarded();
  // The counter global (id 0) is guarded: every worker access holds the
  // lock, and main's final read happens after all joins (solo).
  EXPECT_FALSE(Spec.empty());
  EXPECT_TRUE(Spec.covers(loc::var(0)));
  // The lock-holding global itself is written by main unlocked: not
  // guarded.
  EXPECT_FALSE(Spec.covers(loc::var(1)));
}

TEST(Lockset, RacyCounterIsNotGuarded) {
  mir::Program P = counterRace(3, 5);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  GuardSpec Spec = LA.consistentlyGuarded();
  EXPECT_FALSE(Spec.covers(loc::var(0)));
}

TEST(Lockset, O2ReplayWithRealGuardsIsFaithful) {
  // End-to-end O2: analysis-provided guards, V_both recording, validated
  // replay (Lemma 4.2).
  mir::Program P = lockedCounter(4, 6);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  GuardSpec Spec = LA.consistentlyGuarded();
  ASSERT_TRUE(Spec.covers(loc::var(0)));

  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    LightOptions Opts; // V_both
    Opts.WriteToDisk = false;
    LightRecorder Rec(Opts);
    Rec.setGuards(Spec);
    Machine M(P, Rec);
    RandomScheduler Sched(Seed);
    RecordOutcome Out;
    Out.Result = M.run(Sched);
    ASSERT_TRUE(Out.Result.Completed) << Out.Result.Bug.str();
    Out.Log = Rec.finish(&M.registry());
    expectFaithfulReplay(P, Out);

    // O2 must actually reduce the log relative to V_O1 on this program.
    LightRecorder RecO1(LightOptions::o1Only());
    Machine M2(P, RecO1);
    RandomScheduler Sched2(Seed);
    RunResult R2 = M2.run(Sched2);
    ASSERT_TRUE(R2.Completed);
    RecordingLog LogO1 = RecO1.finish(&M2.registry());
    EXPECT_LT(Out.Log.spaceLongs(), LogO1.spaceLongs());
  }
}

TEST(RaceDetector, FindsTheRacyPair) {
  mir::Program P = racyNull();
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  std::vector<RacePair> Races = detectRaces(P, LA);
  // writer's putfield vs reader's getfield on Box field 0 must be reported.
  bool Found = false;
  for (const RacePair &R : Races) {
    const std::string &NA = P.Functions[R.A.Func].Name;
    const std::string &NB = P.Functions[R.B.Func].Name;
    if ((NA == "writer" && NB == "reader") ||
        (NA == "reader" && NB == "writer"))
      Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST(RaceDetector, LockedProgramHasNoFieldRaces) {
  mir::Program P = lockedCounter(3, 5);
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  std::vector<RacePair> Races = detectRaces(P, LA);
  for (const RacePair &R : Races)
    EXPECT_NE(R.Abstraction, (1ull << 62) | 0u)
        << "counter global flagged racy despite consistent locking: "
        << R.What;
}

// --- Guard analysis: every write counts, and at most 64 locks are known ----

namespace {

using namespace light::mir;

/// Emits `for (i = 0; i < Reps; ++i) Body(i, one)` into \p FB.
template <typename BodyFn>
void emitLoop(FunctionBuilder &FB, int Reps, BodyFn Body) {
  Reg I = FB.newReg(), N = FB.newReg(), One = FB.newReg(), Cond = FB.newReg();
  FB.constInt(I, 0);
  FB.constInt(N, Reps);
  FB.constInt(One, 1);
  Label Loop = FB.makeLabel(), In = FB.makeLabel(), Done = FB.makeLabel();
  FB.place(Loop);
  FB.cmpLt(Cond, I, N);
  FB.br(Cond, In, Done);
  FB.place(In);
  Body(I, One);
  FB.add(I, I, One);
  FB.jmp(Loop);
  FB.place(Done);
}

/// `monitorenter Lock; v = global[G]; print v; global[G] = v + 1; exit`.
void emitLockedIncrement(FunctionBuilder &FB, Reg Lock, uint32_t G, Reg One) {
  Reg V = FB.newReg();
  FB.monitorEnter(Lock);
  FB.getGlobal(V, G);
  FB.print(V);
  FB.add(V, V, One);
  FB.putGlobal(G, V);
  FB.monitorExit(Lock);
}

/// Main: zeroes global 0, stores a fresh Lock object into each of
/// \p LockGlobals, starts one thread per entry of \p Workers, joins them
/// all, and prints global 0.
///
/// Zeroing global 0 first gives every later access to it a recorded
/// source. A recorded RMW that reads a location's initial value has none,
/// and the solver may then order it after other writers; that is a
/// separate recorder defect, not what these tests are about.
FuncId defineMain(ProgramBuilder &PB, ClassId LockCls,
                  const std::vector<uint32_t> &LockGlobals,
                  const std::vector<FuncId> &Workers) {
  FunctionBuilder FB = PB.beginFunction("main", 0);
  Reg Obj = FB.newReg();
  FB.constInt(Obj, 0);
  FB.putGlobal(0, Obj);
  for (uint32_t G : LockGlobals) {
    FB.newObject(Obj, LockCls);
    FB.putGlobal(G, Obj);
  }
  std::vector<Reg> Tids;
  for (FuncId W : Workers) {
    Tids.push_back(FB.newReg());
    FB.threadStart(Tids.back(), W);
  }
  for (Reg T : Tids)
    FB.threadJoin(T);
  Reg V = FB.newReg();
  FB.getGlobal(V, 0);
  FB.print(V);
  FB.ret();
  FuncId Main = PB.endFunction(FB);
  PB.setEntry(Main);
  return Main;
}

/// Two workers increment global 0 under the monitor in global 1; a third
/// CASes it forward without taking the monitor and prints each outcome.
mir::Program lockedCounterWithUnlockedCas(int Reps) {
  ProgramBuilder PB;
  ClassId LockCls = PB.addClass("Lock", {"pad"});
  uint32_t GCtr = PB.addGlobal("counter");
  uint32_t GLock = PB.addGlobal("lock");

  FunctionBuilder Locked = PB.beginFunction("locked", 0);
  Reg Lock = Locked.newReg();
  Locked.getGlobal(Lock, GLock);
  emitLoop(Locked, Reps, [&](Reg, Reg One) {
    emitLockedIncrement(Locked, Lock, GCtr, One);
  });
  Locked.ret();
  FuncId LockedId = PB.endFunction(Locked);

  FunctionBuilder Caser = PB.beginFunction("caser", 0);
  Reg Next = Caser.newReg(), Ok = Caser.newReg();
  emitLoop(Caser, 2 * Reps, [&](Reg I, Reg One) {
    Caser.add(Next, I, One);
    Caser.cas(Ok, I, Next, GCtr);
    Caser.print(Ok);
  });
  Caser.ret();
  FuncId CaserId = PB.endFunction(Caser);

  defineMain(PB, LockCls, {GLock}, {LockedId, LockedId, CaserId});
  return PB.take();
}

} // namespace

TEST(Lockset, UnlockedCasBreaksTheGuard) {
  mir::Program P = lockedCounterWithUnlockedCas(4);
  ASSERT_EQ(P.verify(), "");
  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  GuardSpec Spec = LA.consistentlyGuarded();
  EXPECT_FALSE(Spec.covers(loc::var(0)))
      << "a CAS outside the monitor writes the counter";

  // O2 with the analysis' guards must still record the counter, so every
  // thread's printed transcript replays.
  for (int Seed = 1; Seed <= testenv::iters(50); ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    LightOptions Opts; // V_both
    Opts.WriteToDisk = false;
    LightRecorder Rec(Opts);
    Rec.setGuards(Spec);
    Machine M(P, Rec);
    RandomScheduler Sched(Seed);
    RecordOutcome Out;
    Out.Result = M.run(Sched);
    ASSERT_TRUE(Out.Result.Completed) << Out.Result.Bug.str();
    Out.Log = Rec.finish(&M.registry());
    expectFaithfulReplay(P, Out);
  }
}

TEST(Lockset, XchgSwappedGlobalIsNotALock) {
  // The lock global is written once by putglobal and then swapped by each
  // worker's xchg, so two workers may hold different lock objects.
  ProgramBuilder PB;
  ClassId LockCls = PB.addClass("Lock", {"pad"});
  uint32_t GData = PB.addGlobal("data");
  uint32_t GLock = PB.addGlobal("lock");
  FunctionBuilder W = PB.beginFunction("worker", 0);
  Reg Fresh = W.newReg(), Old = W.newReg(), Lock = W.newReg();
  Reg One = W.newReg();
  W.constInt(One, 1);
  W.newObject(Fresh, LockCls);
  W.xchg(Old, Fresh, GLock);
  W.getGlobal(Lock, GLock);
  emitLockedIncrement(W, Lock, GData, One);
  W.ret();
  FuncId Worker = PB.endFunction(W);
  defineMain(PB, LockCls, {GLock}, {Worker, Worker});
  mir::Program P = PB.take();
  ASSERT_EQ(P.verify(), "");

  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  EXPECT_EQ(LA.numLocks(), 0u);
  EXPECT_FALSE(LA.consistentlyGuarded().covers(loc::var(GData)));
}

TEST(Lockset, MonitorsPastTheSixtyFourthAreUnknownLocks) {
  // Worker 1 discovers 65 monitored lock globals in order, then writes the
  // data under lock 0; worker 2 writes it under lock 64 only.
  constexpr uint32_t NumLockGlobals = 65;
  ProgramBuilder PB;
  ClassId LockCls = PB.addClass("Lock", {"pad"});
  uint32_t GData = PB.addGlobal("data");
  std::vector<uint32_t> LockGlobals;
  for (uint32_t K = 0; K < NumLockGlobals; ++K)
    LockGlobals.push_back(PB.addGlobal("lock" + std::to_string(K)));

  FunctionBuilder W1 = PB.beginFunction("first", 0);
  std::vector<Reg> Locks;
  for (uint32_t G : LockGlobals) {
    Locks.push_back(W1.newReg());
    W1.getGlobal(Locks.back(), G);
    W1.monitorEnter(Locks.back());
    W1.monitorExit(Locks.back());
  }
  Reg One1 = W1.newReg();
  W1.constInt(One1, 1);
  emitLockedIncrement(W1, Locks.front(), GData, One1);
  W1.ret();
  FuncId First = PB.endFunction(W1);

  FunctionBuilder W2 = PB.beginFunction("last", 0);
  Reg Lock = W2.newReg(), One2 = W2.newReg();
  W2.constInt(One2, 1);
  W2.getGlobal(Lock, LockGlobals.back());
  emitLockedIncrement(W2, Lock, GData, One2);
  W2.ret();
  FuncId Last = PB.endFunction(W2);

  defineMain(PB, LockCls, LockGlobals, {First, Last});
  mir::Program P = PB.take();
  ASSERT_EQ(P.verify(), "");

  markSharedAccesses(P);
  LocksetAnalysis LA(P);
  EXPECT_EQ(LA.numLocks(), 64u);
  EXPECT_FALSE(LA.consistentlyGuarded().covers(loc::var(GData)))
      << "lock 64 must not alias lock 0";
}

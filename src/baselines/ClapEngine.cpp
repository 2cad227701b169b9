//===- baselines/ClapEngine.cpp - The Clap baseline ------------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
//
// The offline phase mirrors Clap's pipeline:
//
//   1. A points-to oracle pass (standing in for Clap's static analysis)
//      runs the program once concretely and records, per shared location,
//      whether it only ever holds one reference value; such reads are
//      resolved concretely, everything else becomes symbolic.
//   2. Each thread is re-executed *in isolation* along its recorded branch
//      trace. Shared integer reads become fresh symbolic variables; writes
//      record symbolic value expressions; monitor operations record
//      critical sections; branches assert their recorded outcomes; the
//      recorded failure point asserts the illegal value condition.
//   3. Everything is discharged to Z3: per-thread program order,
//      read-to-write value matching with noninterference, lock mutual
//      exclusion, and the failure condition. A model yields the replay
//      schedule.
//
// Any operation without solver support aborts the analysis as Unsupported —
// the inherent limitation Section 5.3 evaluates. Opcodes wholly outside the
// model carry their note in the opcode table (mir/OpTable.h).
//
//===----------------------------------------------------------------------===//

#include "baselines/ClapEngine.h"

#include "mir/OpTable.h"

#include "obs/Metrics.h"

#include "support/Timer.h"

#include <z3++.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>

using namespace light;
using namespace light::mir;

// --- Recorder ---------------------------------------------------------------

ClapRecorder::ClapRecorder() {
  Syscalls.reserve(MaxThreads);
  for (uint32_t I = 0; I < MaxThreads; ++I)
    Syscalls.push_back(std::make_unique<std::vector<uint64_t>>());
}

ClapRecorder::~ClapRecorder() = default;

void ClapRecorder::onWrite(ThreadId T, LocationId L, LocMeta &M,
                           FunctionRef<void()> Perform) {
  Counters.bump(T);
  Perform();
}

void ClapRecorder::onRead(ThreadId T, LocationId L, LocMeta &M,
                          FunctionRef<void()> Perform) {
  Counters.bump(T);
  Perform();
}

void ClapRecorder::onRmw(ThreadId T, LocationId L, LocMeta &M,
                         FunctionRef<void()> Perform) {
  Counters.bump(T);
  Perform();
}

uint64_t ClapRecorder::onSyscall(ThreadId T, FunctionRef<uint64_t()> Compute) {
  uint64_t V = Compute();
  Syscalls[T]->push_back(V);
  return V;
}

Counter ClapRecorder::counterOf(ThreadId T) const { return Counters.get(T); }

ClapRecording ClapRecorder::finish() {
  ClapRecording R;
  Counter MaxT = 0;
  for (uint32_t T = 0; T < MaxThreads; ++T)
    if (Counters.get(T) || !Syscalls[T]->empty())
      MaxT = T;
  R.FinalCounters.resize(MaxT + 1, 0);
  R.SyscallValues.resize(MaxT + 1);
  for (uint32_t T = 0; T <= MaxT; ++T) {
    R.FinalCounters[T] = Counters.get(T);
    R.SyscallValues[T] = *Syscalls[T];
  }
  uint64_t Accesses = 0;
  for (Counter C : R.FinalCounters)
    Accesses += C;
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("baseline.clap.accesses").add(Accesses);
  return R;
}

uint64_t ClapRecording::spaceLongs() const {
  uint64_t Bits = 0;
  for (const auto &T : Branches.PerThread)
    Bits += T.size();
  uint64_t Inputs = 0;
  for (const auto &T : SyscallValues)
    Inputs += T.size();
  return (Bits + 63) / 64 + Inputs * 2;
}

// --- Symbolic analysis ------------------------------------------------------

namespace {

/// Points-to oracle: per shared location, the reference facts gathered from
/// one concrete run (the stand-in for Clap's static points-to analysis).
struct Oracle : Machine::WriteObserver {
  struct Fact {
    bool Written = false;
    bool Ref = false;
    bool Single = true;
    Value Val;
  };
  std::unordered_map<LocationId, Fact> Facts;

  void onSharedWrite(LocationId L, const Value &V) override {
    Fact &F = Facts[L];
    if (!F.Written) {
      F.Written = true;
      F.Ref = V.isRef();
      F.Val = V;
      return;
    }
    if (!(F.Val == V))
      F.Single = false;
    F.Ref = F.Ref || V.isRef();
  }
};

struct SymVal {
  int32_t Expr = -1; ///< >= 0: symbolic expression index
  Value Conc;
  bool isSym() const { return Expr >= 0; }

  static SymVal conc(Value V) {
    SymVal S;
    S.Conc = V;
    return S;
  }
  static SymVal sym(int32_t E) {
    SymVal S;
    S.Expr = E;
    return S;
  }
};

/// Expression arena node.
struct SE {
  char Kind; ///< 'v' var, 'k' const, '+','-','*','/','%','=','!','<','L','N'
  int64_t K = 0;
  int32_t A = -1, B = -1;
};

/// One recorded symbolic event.
struct Ev {
  char Kind; ///< 'r' read, 'w' write, 'a' acquire, 'l' release
  ThreadId T;
  Counter C;
  LocationId Loc;
  int32_t ValExpr = -1; ///< write value / read variable (when symbolic)
  int64_t ConcVal = 0;  ///< concrete value otherwise
  bool Concrete = true;
};

class SymbolicRun {
public:
  const Program &P;
  const ClapRecording &R;
  Oracle &Ora;

  std::vector<SE> Exprs;
  std::vector<Ev> Events;
  /// (expression, required truth value) branch/bug constraints.
  std::vector<std::pair<int32_t, bool>> PathConstraints;

  bool Unsupported = false;
  std::string Why;

  SymbolicRun(const Program &Prog, const ClapRecording &Rec, Oracle &O)
      : P(Prog), R(Rec), Ora(O) {}

  int32_t mkExpr(SE E) {
    Exprs.push_back(E);
    return static_cast<int32_t>(Exprs.size()) - 1;
  }
  int32_t mkConst(int64_t K) { return mkExpr({'k', K, -1, -1}); }
  int32_t mkVar() { return mkExpr({'v', 0, -1, -1}); }

  void bail(std::string Reason) {
    if (!Unsupported) {
      Unsupported = true;
      Why = std::move(Reason);
    }
  }

  // --- per-thread execution state ---
  struct Frame {
    FuncId Func = 0;
    int32_t PC = 0;
    Reg RetReg = NoReg;
    std::vector<SymVal> Regs;
  };
  struct LocalObj {
    char Kind; ///< 'p' plain, 'a' array, 'm' map
    ClassId Class = 0;
    std::vector<SymVal> Fields;
    std::unordered_map<int64_t, SymVal> Map;
  };
  struct ThreadExec {
    ThreadId Id = 0;
    Counter Ctr = 0;
    std::vector<Frame> Stack;
    std::unordered_map<uint64_t, LocalObj> Local;
    uint32_t AllocCount = 0;
    uint32_t SpawnCount = 0;
    size_t BranchPos = 0;
    size_t SyscallPos = 0;
    bool Stopped = false;
  };

  std::deque<ThreadExec> Pending;
  std::unordered_map<uint64_t, ThreadId> SpawnTable; ///< (parent,idx)->child

  void run() {
    for (const SpawnRecord &S : R.Spawns)
      SpawnTable[(static_cast<uint64_t>(S.Parent) << 32) | S.SpawnIndex] =
          S.Child;

    // Main thread.
    spawnExec(0, P.Entry, SymVal::conc(Value::intVal(0)), false);
    while (!Pending.empty() && !Unsupported) {
      ThreadExec T = std::move(Pending.front());
      Pending.pop_front();
      execThread(T);
    }
  }

private:
  Counter horizonOf(ThreadId T) const {
    return T < R.FinalCounters.size() ? R.FinalCounters[T] : 0;
  }

  void spawnExec(ThreadId Id, FuncId Entry, SymVal Arg, bool HasArg) {
    ThreadExec T;
    T.Id = Id;
    Frame F;
    F.Func = Entry;
    F.Regs.assign(P.function(Entry).NumRegs, SymVal::conc(Value::intVal(0)));
    if (HasArg && P.function(Entry).NumParams == 1)
      F.Regs[0] = Arg;
    T.Stack.push_back(std::move(F));
    Pending.push_back(std::move(T));
  }

  /// Bumps the counter; returns false when the thread crossed its horizon
  /// (the recorded run never got this far) and must stop.
  bool tick(ThreadExec &T) {
    if (T.Ctr + 1 > horizonOf(T.Id)) {
      T.Stopped = true;
      return false;
    }
    ++T.Ctr;
    return true;
  }

  void emit(char Kind, ThreadExec &T, LocationId L, SymVal Val) {
    Ev E;
    E.Kind = Kind;
    E.T = T.Id;
    E.C = T.Ctr;
    E.Loc = L;
    if (Val.isSym()) {
      E.Concrete = false;
      E.ValExpr = Val.Expr;
    } else {
      E.Concrete = true;
      E.ConcVal = Val.Conc.isInt()
                      ? Val.Conc.Int
                      : static_cast<int64_t>(Val.Conc.Ref.pack());
    }
    Events.push_back(E);
  }

  /// A shared read of \p L: concrete via the oracle for stable references,
  /// else a fresh symbolic variable.
  SymVal sharedRead(ThreadExec &T, LocationId L) {
    if (!tick(T))
      return SymVal::conc(Value::intVal(0));
    auto It = Ora.Facts.find(L);
    if (It != Ora.Facts.end() && It->second.Ref) {
      if (!It->second.Single) {
        bail("reference-valued location " + loc::str(L) +
             " with multiple targets (symbolic references unsupported)");
        return SymVal::conc(Value::null());
      }
      SymVal V = SymVal::conc(It->second.Val);
      emit('r', T, L, V);
      return V;
    }
    SymVal V = SymVal::sym(mkVar());
    emit('r', T, L, V);
    return V;
  }

  void sharedWrite(ThreadExec &T, LocationId L, SymVal V) {
    if (!tick(T))
      return;
    if (V.isSym() ? false : V.Conc.isRef()) {
      // Reference writes are order-only facts; value is the packed id.
    }
    emit('w', T, L, V);
  }

  bool requireConcreteInt(const SymVal &V, int64_t &Out, const char *What) {
    if (V.isSym()) {
      bail(std::string("symbolic ") + What + " unsupported by the solver");
      return false;
    }
    if (!V.Conc.isInt()) {
      bail(std::string(What) + " is not an integer");
      return false;
    }
    Out = V.Conc.Int;
    return true;
  }

  bool requireConcreteRef(const SymVal &V, ObjectId &Out, const char *What) {
    if (V.isSym() || !V.Conc.isRef()) {
      bail(std::string("symbolic reference as ") + What +
           " (no native solver support)");
      return false;
    }
    Out = V.Conc.Ref;
    return true;
  }

  /// Integer view of a SymVal as an expression id (-1 with K set for
  /// concrete handled by caller). Returns an expr id always.
  int32_t exprOf(const SymVal &V) {
    if (V.isSym())
      return V.Expr;
    int64_t K =
        V.Conc.isInt() ? V.Conc.Int : static_cast<int64_t>(V.Conc.Ref.pack());
    return mkConst(K);
  }

  void execThread(ThreadExec &T);
};

void SymbolicRun::execThread(ThreadExec &T) {
  uint64_t Budget = 10000000;
  const auto &Trace = T.Id < R.Branches.PerThread.size()
                          ? R.Branches.PerThread[T.Id]
                          : std::vector<uint8_t>();

  // Spawned threads first read their ghost start token.
  if (T.Id != 0) {
    if (!tick(T))
      return;
    // Ghost tokens carry value 1 so the initial-value matching case can
    // never swallow the happens-before edge.
    emit('r', T, loc::threadStart(T.Id), SymVal::conc(Value::intVal(1)));
  }

  while (!T.Stopped && !Unsupported && !T.Stack.empty()) {
    if (Budget-- == 0) {
      bail("symbolic execution budget exhausted");
      return;
    }
    Frame &F = T.Stack.back();
    const Function &Fn = P.function(F.Func);
    const Instr &I = Fn.Body[F.PC];

    // The recorded failure point: assert the illegal-value condition.
    if (R.Bug.happened() && T.Id == R.Bug.Thread && F.Func == R.Bug.Func &&
        F.PC == R.Bug.Instr && T.Ctr == R.Bug.AccessCount) {
      switch (R.Bug.What) {
      case BugReport::Kind::AssertionFailure:
        PathConstraints.push_back({exprOf(F.Regs[I.A]), false});
        break;
      case BugReport::Kind::DivideByZero:
        PathConstraints.push_back({exprOf(F.Regs[I.C]), false});
        break;
      default:
        bail("failure kind outside Clap's value model");
        break;
      }
      return; // the thread stops at the failure
    }

    auto Bin = [&](char Op) {
      SymVal A = F.Regs[I.B], B = F.Regs[I.C];
      if (!A.isSym() && !B.isSym()) {
        int64_t X = A.Conc.Int, Y = B.Conc.Int;
        int64_t Out = 0;
        switch (Op) {
        case '+':
          Out = X + Y;
          break;
        case '-':
          Out = X - Y;
          break;
        case '*':
          Out = X * Y;
          break;
        case '/':
          Out = Y ? X / Y : 0;
          break;
        case '%':
          Out = Y ? X % Y : 0;
          break;
        case '<':
          Out = X < Y;
          break;
        case 'L':
          Out = X <= Y;
          break;
        }
        F.Regs[I.A] = SymVal::conc(Value::intVal(Out));
        return;
      }
      if (Op == '*' && A.isSym() && B.isSym()) {
        bail("nonlinear arithmetic (symbolic * symbolic)");
        return;
      }
      if ((Op == '/' || Op == '%') && B.isSym()) {
        bail("symbolic divisor");
        return;
      }
      F.Regs[I.A] = SymVal::sym(mkExpr({Op, 0, exprOf(A), exprOf(B)}));
    };

    if (const char *Why = opInfo(I.Op).ClapBail) {
      bail(Why);
      return;
    }

    switch (I.Op) {
    case Opcode::Nop:
    case Opcode::Print:
    case Opcode::BurnCpu:
      ++F.PC; // no shared effect
      break;
    case Opcode::ConstInt:
      F.Regs[I.A] = SymVal::conc(Value::intVal(I.Imm));
      ++F.PC;
      break;
    case Opcode::ConstNull:
      F.Regs[I.A] = SymVal::conc(Value::null());
      ++F.PC;
      break;
    case Opcode::Move:
      F.Regs[I.A] = F.Regs[I.B];
      ++F.PC;
      break;
    case Opcode::Add:
      Bin('+');
      ++F.PC;
      break;
    case Opcode::Sub:
      Bin('-');
      ++F.PC;
      break;
    case Opcode::Mul:
      Bin('*');
      ++F.PC;
      break;
    case Opcode::Div:
      Bin('/');
      ++F.PC;
      break;
    case Opcode::Mod:
      Bin('%');
      ++F.PC;
      break;
    case Opcode::CmpLt:
      Bin('<');
      ++F.PC;
      break;
    case Opcode::CmpLe:
      Bin('L');
      ++F.PC;
      break;
    case Opcode::CmpEq:
    case Opcode::CmpNe: {
      SymVal A = F.Regs[I.B], B = F.Regs[I.C];
      if (!A.isSym() && !B.isSym()) {
        bool Eq = A.Conc == B.Conc;
        F.Regs[I.A] = SymVal::conc(
            Value::intVal(I.Op == Opcode::CmpEq ? Eq : !Eq));
      } else {
        char Op = I.Op == Opcode::CmpEq ? '=' : '!';
        F.Regs[I.A] = SymVal::sym(mkExpr({Op, 0, exprOf(A), exprOf(B)}));
      }
      ++F.PC;
      break;
    }
    case Opcode::Not: {
      SymVal A = F.Regs[I.B];
      if (!A.isSym())
        F.Regs[I.A] = SymVal::conc(Value::intVal(!A.Conc.truthy()));
      else
        F.Regs[I.A] = SymVal::sym(mkExpr({'N', 0, A.Expr, -1}));
      ++F.PC;
      break;
    }

    case Opcode::Jmp:
      F.PC = I.Target;
      break;
    case Opcode::Br: {
      if (T.BranchPos >= Trace.size()) {
        T.Stopped = true; // recorded run ended mid-flight here
        return;
      }
      bool Taken = Trace[T.BranchPos++] != 0;
      SymVal Cond = F.Regs[I.A];
      if (Cond.isSym())
        PathConstraints.push_back({Cond.Expr, Taken});
      else if (Cond.Conc.truthy() != Taken) {
        bail("concrete branch contradicts the recorded trace");
        return;
      }
      F.PC = Taken ? I.Target : I.Target2;
      break;
    }

    case Opcode::Call: {
      const Function &Callee = P.function(static_cast<FuncId>(I.Imm));
      Frame NF;
      NF.Func = static_cast<FuncId>(I.Imm);
      NF.RetReg = I.A;
      NF.Regs.assign(Callee.NumRegs, SymVal::conc(Value::intVal(0)));
      for (size_t A = 0; A < I.Args.size(); ++A)
        NF.Regs[A] = F.Regs[I.Args[A]];
      ++F.PC;
      T.Stack.push_back(std::move(NF));
      break;
    }
    case Opcode::Ret: {
      SymVal Result = I.A == NoReg ? SymVal::conc(Value::intVal(0))
                                   : F.Regs[I.A];
      Reg RetTo = F.RetReg;
      T.Stack.pop_back();
      if (T.Stack.empty()) {
        if (tick(T))
          emit('w', T, loc::threadTerm(T.Id),
               SymVal::conc(Value::intVal(1)));
        return;
      }
      if (RetTo != NoReg)
        T.Stack.back().Regs[RetTo] = Result;
      break;
    }

    case Opcode::New: {
      LocalObj O;
      O.Kind = 'p';
      O.Class = static_cast<ClassId>(I.Imm);
      O.Fields.assign(P.classDef(O.Class).numFields(),
                      SymVal::conc(Value::intVal(0)));
      ObjectId Id(T.Id, ++T.AllocCount);
      T.Local.emplace(Id.pack(), std::move(O));
      F.Regs[I.A] = SymVal::conc(Value::ref(Id));
      ++F.PC;
      break;
    }
    case Opcode::NewArray: {
      int64_t Len;
      if (!requireConcreteInt(F.Regs[I.B], Len, "array length"))
        return;
      LocalObj O;
      O.Kind = 'a';
      O.Fields.assign(static_cast<size_t>(Len),
                      SymVal::conc(Value::intVal(0)));
      ObjectId Id(T.Id, ++T.AllocCount);
      T.Local.emplace(Id.pack(), std::move(O));
      F.Regs[I.A] = SymVal::conc(Value::ref(Id));
      ++F.PC;
      break;
    }

    case Opcode::GetField: {
      ObjectId Obj;
      if (!requireConcreteRef(F.Regs[I.B], Obj, "field base"))
        return;
      LocationId L = loc::field(Obj, static_cast<uint32_t>(I.Imm));
      if (I.SharedAccess) {
        F.Regs[I.A] = sharedRead(T, L);
        if (T.Stopped)
          return;
      } else {
        auto It = T.Local.find(Obj.pack());
        if (It == T.Local.end()) {
          bail("unshared read of a foreign object");
          return;
        }
        F.Regs[I.A] = It->second.Fields[I.Imm];
      }
      ++F.PC;
      break;
    }
    case Opcode::PutField: {
      ObjectId Obj;
      if (!requireConcreteRef(F.Regs[I.A], Obj, "field base"))
        return;
      LocationId L = loc::field(Obj, static_cast<uint32_t>(I.Imm));
      if (I.SharedAccess) {
        sharedWrite(T, L, F.Regs[I.B]);
        if (T.Stopped)
          return;
      } else {
        auto It = T.Local.find(Obj.pack());
        if (It == T.Local.end()) {
          bail("unshared write of a foreign object");
          return;
        }
        It->second.Fields[I.Imm] = F.Regs[I.B];
      }
      ++F.PC;
      break;
    }
    case Opcode::GetGlobal: {
      if (I.SharedAccess) {
        F.Regs[I.A] = sharedRead(T, loc::var(static_cast<uint32_t>(I.Imm)));
        if (T.Stopped)
          return;
      } else {
        // Unshared global: main-only data; concrete simulation suffices.
        F.Regs[I.A] = T.Local.count(~static_cast<uint64_t>(I.Imm))
                          ? T.Local[~static_cast<uint64_t>(I.Imm)].Fields[0]
                          : SymVal::conc(Value::intVal(0));
      }
      ++F.PC;
      break;
    }
    case Opcode::PutGlobal: {
      if (I.SharedAccess) {
        sharedWrite(T, loc::var(static_cast<uint32_t>(I.Imm)), F.Regs[I.A]);
        if (T.Stopped)
          return;
      } else {
        LocalObj &O = T.Local[~static_cast<uint64_t>(I.Imm)];
        O.Kind = 'p';
        O.Fields.assign(1, F.Regs[I.A]);
      }
      ++F.PC;
      break;
    }
    case Opcode::ALoad:
    case Opcode::AStore: {
      ObjectId Obj;
      Reg ArrReg = I.Op == Opcode::ALoad ? I.B : I.A;
      if (!requireConcreteRef(F.Regs[ArrReg], Obj, "array base"))
        return;
      int64_t Idx;
      if (!requireConcreteInt(
              F.Regs[I.Op == Opcode::ALoad ? I.C : I.B], Idx, "array index"))
        return;
      LocationId L = loc::arrayElem(Obj, static_cast<uint32_t>(Idx));
      if (I.SharedAccess) {
        if (I.Op == Opcode::ALoad) {
          F.Regs[I.A] = sharedRead(T, L);
        } else {
          sharedWrite(T, L, F.Regs[I.C]);
        }
        if (T.Stopped)
          return;
      } else {
        auto It = T.Local.find(Obj.pack());
        if (It == T.Local.end()) {
          bail("unshared array access on a foreign object");
          return;
        }
        if (I.Op == Opcode::ALoad)
          F.Regs[I.A] = It->second.Fields[Idx];
        else
          It->second.Fields[Idx] = F.Regs[I.C];
      }
      ++F.PC;
      break;
    }
    case Opcode::ArrayLen: {
      ObjectId Obj;
      if (!requireConcreteRef(F.Regs[I.B], Obj, "array base"))
        return;
      auto It = T.Local.find(Obj.pack());
      if (It == T.Local.end()) {
        bail("length of a foreign array");
        return;
      }
      F.Regs[I.A] = SymVal::conc(
          Value::intVal(static_cast<int64_t>(It->second.Fields.size())));
      ++F.PC;
      break;
    }

    case Opcode::MonitorEnter:
    case Opcode::MonitorExit: {
      ObjectId Obj;
      if (!requireConcreteRef(F.Regs[I.A], Obj, "monitor operand"))
        return;
      if (!tick(T))
        return;
      emit(I.Op == Opcode::MonitorEnter ? 'a' : 'l', T, loc::lock(Obj),
           SymVal::conc(Value::intVal(0)));
      ++F.PC;
      break;
    }

    case Opcode::ThreadStart: {
      uint64_t Key = (static_cast<uint64_t>(T.Id) << 32) | T.SpawnCount++;
      auto It = SpawnTable.find(Key);
      if (It == SpawnTable.end()) {
        T.Stopped = true; // spawn past the recorded structure
        return;
      }
      ThreadId Child = It->second;
      const Function &Entry = P.function(static_cast<FuncId>(I.Imm));
      SymVal Arg = SymVal::conc(Value::intVal(0));
      if (Entry.NumParams == 1) {
        if (F.Regs[I.B].isSym()) {
          bail("symbolic thread argument");
          return;
        }
        Arg = F.Regs[I.B];
      }
      if (!tick(T))
        return;
      emit('w', T, loc::threadStart(Child), SymVal::conc(Value::intVal(1)));
      spawnExec(Child, static_cast<FuncId>(I.Imm), Arg,
                Entry.NumParams == 1);
      F.Regs[I.A] = SymVal::conc(Value::intVal(Child));
      ++F.PC;
      break;
    }
    case Opcode::ThreadJoin: {
      int64_t Target;
      if (!requireConcreteInt(F.Regs[I.A], Target, "join target"))
        return;
      if (!tick(T))
        return;
      emit('r', T, loc::threadTerm(static_cast<ThreadId>(Target)),
           SymVal::conc(Value::intVal(1)));
      ++F.PC;
      break;
    }

    case Opcode::AssertTrue: {
      // A passing assertion on a symbolic value is a path fact.
      SymVal V = F.Regs[I.A];
      if (V.isSym())
        PathConstraints.push_back({V.Expr, true});
      ++F.PC;
      break;
    }
    case Opcode::AssertNonNull:
      ++F.PC; // references are concrete here; a null would be the bug site
      break;

    case Opcode::SysTime:
    case Opcode::SysRand: {
      const auto &Queue = T.Id < R.SyscallValues.size()
                              ? R.SyscallValues[T.Id]
                              : std::vector<uint64_t>();
      if (T.SyscallPos >= Queue.size()) {
        T.Stopped = true;
        return;
      }
      F.Regs[I.A] = SymVal::conc(
          Value::intVal(static_cast<int64_t>(Queue[T.SyscallPos++])));
      ++F.PC;
      break;
    }

    default: // outside the model; bailed above
      break;
    }
  }
}

} // namespace

// --- Constraint generation & solving ----------------------------------------

ClapSolveResult light::clapSolve(const Program &P, const ClapRecording &R) {
  Stopwatch Timer;
  ClapSolveResult Out;

  // 1. Points-to oracle pass (stand-in for Clap's static analysis).
  Oracle Ora;
  {
    NullHook Null;
    Machine M(P, Null);
    M.setWriteObserver(&Ora);
    RandomScheduler Sched(0xC1A9);
    M.run(Sched);
  }

  // 2. Per-thread symbolic re-execution.
  SymbolicRun Run(P, R, Ora);
  Run.run();
  if (Run.Unsupported) {
    Out.UnsupportedWhy = Run.Why;
    Out.SolveSeconds = Timer.seconds();
    return Out;
  }
  Out.Supported = true;

  // 3. Encode to Z3.
  z3::context Ctx;
  z3::solver Solver(Ctx);

  // Expression translation.
  std::vector<std::unique_ptr<z3::expr>> ZE(Run.Exprs.size());
  std::function<z3::expr(int32_t)> Tr = [&](int32_t Id) -> z3::expr {
    if (ZE[Id])
      return *ZE[Id];
    const SE &E = Run.Exprs[Id];
    z3::expr Result = Ctx.int_val(0);
    switch (E.Kind) {
    case 'v':
      Result = Ctx.int_const(("sv" + std::to_string(Id)).c_str());
      break;
    case 'k':
      Result = Ctx.int_val(E.K);
      break;
    case '+':
      Result = Tr(E.A) + Tr(E.B);
      break;
    case '-':
      Result = Tr(E.A) - Tr(E.B);
      break;
    case '*':
      Result = Tr(E.A) * Tr(E.B);
      break;
    case '/':
      Result = Tr(E.A) / Tr(E.B);
      break;
    case '%':
      Result = z3::mod(Tr(E.A), Tr(E.B));
      break;
    case '=':
      Result = z3::ite(Tr(E.A) == Tr(E.B), Ctx.int_val(1), Ctx.int_val(0));
      break;
    case '!':
      Result = z3::ite(Tr(E.A) != Tr(E.B), Ctx.int_val(1), Ctx.int_val(0));
      break;
    case '<':
      Result = z3::ite(Tr(E.A) < Tr(E.B), Ctx.int_val(1), Ctx.int_val(0));
      break;
    case 'L':
      Result = z3::ite(Tr(E.A) <= Tr(E.B), Ctx.int_val(1), Ctx.int_val(0));
      break;
    case 'N':
      Result = z3::ite(Tr(E.A) == 0, Ctx.int_val(1), Ctx.int_val(0));
      break;
    }
    ZE[Id] = std::make_unique<z3::expr>(Result);
    return Result;
  };

  // Order variables per event.
  std::vector<z3::expr> O;
  O.reserve(Run.Events.size());
  for (size_t I = 0; I < Run.Events.size(); ++I)
    O.push_back(Ctx.int_const(("o" + std::to_string(I)).c_str()));

  // Program order.
  {
    std::unordered_map<ThreadId, std::vector<size_t>> ByThread;
    for (size_t I = 0; I < Run.Events.size(); ++I)
      ByThread[Run.Events[I].T].push_back(I);
    for (auto &[T, List] : ByThread) {
      std::sort(List.begin(), List.end(), [&](size_t X, size_t Y) {
        return Run.Events[X].C < Run.Events[Y].C;
      });
      for (size_t I = 1; I < List.size(); ++I)
        Solver.add(O[List[I - 1]] < O[List[I]]);
    }
  }

  // Read-to-write matching with noninterference, per location.
  {
    std::unordered_map<LocationId, std::vector<size_t>> Reads, Writes;
    for (size_t I = 0; I < Run.Events.size(); ++I) {
      const Ev &E = Run.Events[I];
      if (E.Kind == 'r')
        Reads[E.Loc].push_back(I);
      else if (E.Kind == 'w')
        Writes[E.Loc].push_back(I);
    }
    for (auto &[L, Rs] : Reads) {
      const std::vector<size_t> &Ws = Writes[L];
      for (size_t RI : Rs) {
        const Ev &Rd = Run.Events[RI];
        z3::expr_vector Cases(Ctx);
        z3::expr ReadVal = Rd.Concrete ? Ctx.int_val(Rd.ConcVal)
                                       : Tr(Rd.ValExpr);
        // Initial-value case: the read precedes every write; value 0.
        {
          z3::expr Case = ReadVal == 0;
          for (size_t WI : Ws)
            Case = Case && O[RI] < O[WI];
          Cases.push_back(Case);
        }
        for (size_t WI : Ws) {
          const Ev &Wr = Run.Events[WI];
          z3::expr WVal =
              Wr.Concrete ? Ctx.int_val(Wr.ConcVal) : Tr(Wr.ValExpr);
          z3::expr Case = (ReadVal == WVal) && (O[WI] < O[RI]);
          for (size_t WJ : Ws) {
            if (WJ == WI)
              continue;
            Case = Case && (O[WJ] < O[WI] || O[RI] < O[WJ]);
          }
          Cases.push_back(Case);
        }
        Solver.add(z3::mk_or(Cases));
      }
    }
  }

  // Lock mutual exclusion.
  {
    struct Section {
      size_t Acq;
      size_t Rel;
      bool Open;
    };
    std::unordered_map<LocationId, std::vector<Section>> Sections;
    // Per (thread, loc): depth counting over acquire/release events in
    // counter order.
    std::map<std::pair<ThreadId, LocationId>, std::vector<size_t>> PerTL;
    for (size_t I = 0; I < Run.Events.size(); ++I) {
      const Ev &E = Run.Events[I];
      if (E.Kind == 'a' || E.Kind == 'l')
        PerTL[{E.T, E.Loc}].push_back(I);
    }
    for (auto &[Key, List] : PerTL) {
      std::sort(List.begin(), List.end(), [&](size_t X, size_t Y) {
        return Run.Events[X].C < Run.Events[Y].C;
      });
      int Depth = 0;
      size_t OpenAcq = 0;
      for (size_t I : List) {
        if (Run.Events[I].Kind == 'a') {
          if (Depth++ == 0)
            OpenAcq = I;
        } else if (Depth > 0 && --Depth == 0) {
          Sections[Key.second].push_back({OpenAcq, I, false});
        }
      }
      if (Depth > 0)
        Sections[Key.second].push_back({OpenAcq, 0, true});
    }
    for (auto &[L, Secs] : Sections) {
      for (size_t I = 0; I < Secs.size(); ++I) {
        for (size_t J = I + 1; J < Secs.size(); ++J) {
          const Section &A = Secs[I];
          const Section &B = Secs[J];
          if (Run.Events[A.Acq].T == Run.Events[B.Acq].T)
            continue; // program order handles same-thread sections
          if (A.Open && B.Open) {
            Solver.add(Ctx.bool_val(false));
          } else if (A.Open) {
            Solver.add(O[B.Rel] < O[A.Acq]);
          } else if (B.Open) {
            Solver.add(O[A.Rel] < O[B.Acq]);
          } else {
            Solver.add(O[A.Rel] < O[B.Acq] || O[B.Rel] < O[A.Acq]);
          }
        }
      }
    }
  }

  // Recorded control flow and the failure condition.
  for (auto &[ExprId, MustBeTrue] : Run.PathConstraints) {
    z3::expr V = Tr(ExprId);
    Solver.add(MustBeTrue ? V != 0 : V == 0);
  }

  if (Solver.check() != z3::sat) {
    Out.Solved = false;
    Out.SolveSeconds = Timer.seconds();
    return Out;
  }
  Out.Solved = true;

  // 4. Extract the schedule.
  z3::model Model = Solver.get_model();
  std::vector<std::pair<int64_t, size_t>> Keyed;
  Keyed.reserve(Run.Events.size());
  for (size_t I = 0; I < Run.Events.size(); ++I) {
    int64_t V = Model.eval(O[I], true).get_numeral_int64();
    Keyed.push_back({V, I});
  }
  std::sort(Keyed.begin(), Keyed.end(), [&](const auto &A, const auto &B) {
    if (A.first != B.first)
      return A.first < B.first;
    const Ev &X = Run.Events[A.second];
    const Ev &Y = Run.Events[B.second];
    return AccessId(X.T, X.C).pack() < AccessId(Y.T, Y.C).pack();
  });
  for (auto &[V, I] : Keyed)
    Out.Order.push_back(AccessId(Run.Events[I].T, Run.Events[I].C));

  Out.SolveSeconds = Timer.seconds();
  return Out;
}

RunResult light::clapReplay(const Program &P, const ClapRecording &R,
                            const ClapSolveResult &Solved) {
  TotalOrderDirector Director(Solved.Order, R.SyscallValues);
  Machine M(P, Director);
  M.prepareReplay(R.Spawns);
  return M.runReplay(Director);
}

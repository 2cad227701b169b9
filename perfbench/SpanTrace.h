//===- perfbench/SpanTrace.h - In-memory layer spans -----------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracer. Spans are recorded around each call the
/// harness makes into a layer's public entry point: a name (the layer), a
/// start and end on the steady clock, the enclosing span, and the id of
/// the recording the work belongs to. Spans stay in memory; the harness
/// writes them out once, at exit, as a Chrome trace.
///
/// A disabled tracer records nothing: Scope checks one bool and returns.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_PERFBENCH_SPANTRACE_H
#define LIGHT_PERFBENCH_SPANTRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
uint64_t nowNs();

struct SpanRec {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< index of the enclosing span, -1 for a root
  uint32_t Recording = 0;
};

class SpanTrace {
public:
  explicit SpanTrace(bool On = false) : Enabled(On) {}

  bool on() const { return Enabled; }

  /// Spans opened from now on belong to recording \p Id.
  void setRecording(uint32_t Id) { Recording = Id; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t open(const char *Name);
  void close(int32_t Index);

  /// Adds a closed span of \p Seconds starting at the innermost open
  /// span's start: used where a layer reports its own busy time (the
  /// solver's SolveSeconds inside a windowed addSpans call).
  void addChild(const char *Name, double Seconds);

  const std::vector<SpanRec> &spans() const { return Spans; }

  /// Self time per span name in seconds: each span's duration minus the
  /// part its direct children cover.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as a Chrome trace (ph "X" events, the parent index
  /// and recording id under args). Returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  uint32_t Recording = 0;
  std::vector<SpanRec> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
public:
  Scope(SpanTrace &T, const char *Name)
      : Trace(T.on() ? &T : nullptr), Index(Trace ? T.open(Name) : -1) {}
  ~Scope() {
    if (Trace)
      Trace->close(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanTrace *Trace;
  int32_t Index;
};

} // namespace perfbench

#endif // LIGHT_PERFBENCH_SPANTRACE_H

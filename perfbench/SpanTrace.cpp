//===- perfbench/SpanTrace.cpp - In-memory layer spans --------------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//

#include "SpanTrace.h"

#include <chrono>
#include <cstdio>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int32_t SpanTrace::open(const char *Name) {
  SpanRec S;
  S.Name = Name;
  S.StartNs = nowNs();
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Recording = Recording;
  Spans.push_back(std::move(S));
  int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void SpanTrace::close(int32_t Index) {
  Spans[Index].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

void SpanTrace::addChild(const char *Name, double Seconds) {
  if (!Enabled || Stack.empty())
    return;
  SpanRec S;
  S.Name = Name;
  S.StartNs = Spans[Stack.back()].StartNs;
  S.EndNs = S.StartNs + static_cast<uint64_t>(Seconds * 1e9);
  S.Parent = Stack.back();
  S.Recording = Recording;
  Spans.push_back(std::move(S));
}

std::map<std::string, double> SpanTrace::selfSeconds() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    uint64_t Own = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    Self[Spans[I].Name] += static_cast<double>(Own) * 1e-9;
  }
  return Self;
}

bool SpanTrace::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"recording\":%u}}\n",
                 I ? "," : "", S.Name.c_str(),
                 static_cast<double>(S.StartNs - Origin) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                 S.Recording);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

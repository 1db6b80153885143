//===- perfbench/Trace.cpp - Span recording and Chrome trace output ------===//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Rec {
  const char *Layer;
  const char *Name;
  std::string Arg;
  int64_t StartNs;
  int64_t DurNs;
};

/// One thread's spans. Owned by the registry, so they outlive the thread.
struct ThreadBuf {
  int Tid = 0;
  std::vector<Rec> Recs;
};

std::atomic<bool> Enabled{false};

std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadBuf>> Registry; // guarded by RegistryMu

ThreadBuf &threadBuf() {
  thread_local ThreadBuf *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> L(RegistryMu);
    Registry.push_back(std::make_unique<ThreadBuf>());
    Mine = Registry.back().get();
    Mine->Tid = static_cast<int>(Registry.size());
  }
  return *Mine;
}

void jsonEscape(std::FILE *F, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fprintf(F, "\\%c", C);
    else if (static_cast<unsigned char>(C) < 0x20)
      std::fprintf(F, "\\u%04x", C);
    else
      std::fputc(C, F);
  }
}

} // namespace

int64_t nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

void setTracing(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool tracing() { return Enabled.load(std::memory_order_relaxed); }

size_t spanCount() {
  std::lock_guard<std::mutex> L(RegistryMu);
  size_t N = 0;
  for (const auto &B : Registry)
    N += B->Recs.size();
  return N;
}

Span::Span(const char *Layer, const char *Name, const std::string &Arg)
    : Layer(Layer), Name(Name) {
  if (!tracing())
    return;
  this->Arg = Arg;
  StartNs = nowNs();
}

Span::~Span() {
  if (StartNs < 0)
    return;
  int64_t End = nowNs();
  threadBuf().Recs.push_back({Layer, Name, std::move(Arg), StartNs,
                              End - StartNs});
}

bool writeChromeTrace(const std::string &Path, std::string *Err) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    *Err = "cannot write " + Path;
    return false;
  }
  std::lock_guard<std::mutex> L(RegistryMu);
  std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool First = true;
  for (const auto &B : Registry) {
    for (const Rec &R : B->Recs) {
      std::fprintf(F,
                   "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\","
                   "\"name\":\"%s\",\"ts\":%lld.%03lld,\"dur\":%lld.%03lld",
                   First ? "" : ",", B->Tid, R.Layer, R.Name,
                   static_cast<long long>(R.StartNs / 1000),
                   static_cast<long long>(R.StartNs % 1000),
                   static_cast<long long>(R.DurNs / 1000),
                   static_cast<long long>(R.DurNs % 1000));
      if (!R.Arg.empty()) {
        std::fprintf(F, ",\"args\":{\"arg\":\"");
        jsonEscape(F, R.Arg);
        std::fprintf(F, "\"}");
      }
      std::fprintf(F, "}");
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  if (std::fclose(F) != 0) {
    *Err = "write failed on " + Path;
    return false;
  }
  return true;
}

} // namespace perfbench

//===- perfbench/Trace.h - Spans around calls into GRASSP layers ---------===//
//
// The benchmark's tracer. A Span wraps one call into a GRASSP layer
// (synth, chc, ir/jit, runtime, dist, serve) from the benchmark's own
// code; nothing inside the program is instrumented. Spans are kept in
// per-thread memory and written out once, at the end of a run, as
// Chrome trace-event JSON (opens in Perfetto / chrome://tracing). The
// Python side nests spans by time per thread to get self time.
//
// When tracing is off a Span costs one relaxed load and a branch, so the
// untraced run that reports the end-to-end metrics pays nothing else.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
int64_t nowNs();

void setTracing(bool On);
bool tracing();

/// Total spans recorded so far, over all threads.
size_t spanCount();

/// Writes every recorded span as Chrome trace-event JSON ("ph":"X"
/// complete events, microsecond timestamps with nanosecond digits).
bool writeChromeTrace(const std::string &Path, std::string *Err);

/// Records [construction, destruction) as one span of \p Layer / \p Name
/// on the calling thread. \p Layer and \p Name must be string literals;
/// \p Arg (e.g. the program name) is copied.
class Span {
public:
  Span(const char *Layer, const char *Name, const std::string &Arg = {});
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Layer;
  const char *Name;
  std::string Arg;
  int64_t StartNs = -1; ///< -1: tracing was off at construction.
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

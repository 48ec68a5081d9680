#ifndef LOOM_BENCHMARK_TRACE_H_
#define LOOM_BENCHMARK_TRACE_H_

// Span recording for the traced benchmark run. Spans are taken from the
// benchmark's side of each call into a library layer: name, start, end,
// parent span and request id (the arrival or batch index). They go into a
// buffer preallocated before the workload starts and are written out at exit
// as Chrome trace-event JSON. With tracing off every call is a no-op and no
// clock is read.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace loom_bench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
uint64_t NowNs();

/// Seconds between two `NowNs` readings.
inline double Seconds(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// One recorded span. `parent` indexes the tracer's span buffer (-1 = root).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Exact totals of one high-frequency call site plus every 64th duration.
struct CallStats {
  const char* name = "";
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
  std::vector<uint64_t> sampled_ns;
};

/// Per-thread span recorder. Not thread-safe: every thread that records
/// spans owns its own tracer.
class Tracer {
 public:
  /// Every `kSampleEvery`-th high-frequency call is kept as its own span.
  static constexpr uint64_t kSampleEvery = 64;

  Tracer(bool enabled, uint32_t thread_id, size_t span_capacity);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled or the buffer is full, in which case `dropped()` grows).
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t span);

  /// The accounting slot of a high-frequency call site (stable for the
  /// tracer's lifetime). Look it up once, outside the loop that calls it.
  CallStats* Site(const char* name);

  /// Accounts one call that ran over [start_ns, end_ns): counted and summed
  /// exactly, kept as a span every kSampleEvery calls. No-op when disabled.
  void Call(CallStats* site, uint64_t request, uint64_t start_ns,
            uint64_t end_ns);
  void Call(const char* name, uint64_t request, uint64_t start_ns,
            uint64_t end_ns) {
    if (enabled_) Call(Site(name), request, start_ns, end_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, CallStats>& calls() const { return calls_; }
  uint64_t dropped() const { return dropped_; }
  uint32_t thread_id() const { return thread_id_; }

  /// Self time per span name: each recorded span's duration minus what its
  /// recorded child spans and the exact totals of its high-frequency child
  /// calls cover. Sampled call spans are excluded (their exact totals are in
  /// `calls()`).
  std::map<std::string, double> SelfSeconds() const;

 private:
  bool enabled_;
  uint32_t thread_id_;
  size_t capacity_;
  std::vector<Span> spans_;
  /// 1 for spans kept as samples of a high-frequency call.
  std::vector<uint8_t> sampled_;
  /// Exact high-frequency call time charged to each span index.
  std::vector<uint64_t> call_child_ns_;
  std::vector<int32_t> open_;
  std::map<std::string, CallStats> calls_;
  uint64_t dropped_ = 0;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), span_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t span_;
};

/// Writes every tracer's spans as one Chrome trace-event file (load it in
/// chrome://tracing or ui.perfetto.dev). Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers);

/// `q`-quantile (0..1) of `values` by the nearest-rank rule; sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

}  // namespace loom_bench

#endif  // LOOM_BENCHMARK_TRACE_H_

#ifndef LOOM_COMMON_TIMER_H_
#define LOOM_COMMON_TIMER_H_

/// \file
/// Wall-clock timing for benchmarks and experiment harnesses, plus the
/// process peak-RSS probe the bench reports record.

#include <chrono>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace loom {

/// Monotonic stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last `Restart()`.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Peak resident-set size of this process so far, in bytes (getrusage
/// ru_maxrss; 0 where unavailable). A high-water mark, not a current
/// reading — it never decreases, so out-of-core benches that must prove
/// O(V) memory run their large section FIRST, before any in-memory section
/// can raise the mark. Linux reports KiB, macOS bytes; both are normalised
/// to bytes here.
inline uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<uint64_t>(usage.ru_maxrss);
#else
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

}  // namespace loom

#endif  // LOOM_COMMON_TIMER_H_

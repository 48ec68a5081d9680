#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace loom_bench {

uint64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

Tracer::Tracer(bool enabled, uint32_t thread_id, size_t span_capacity)
    : enabled_(enabled), thread_id_(thread_id), capacity_(span_capacity) {
  if (!enabled_) return;
  spans_.reserve(capacity_);
  sampled_.reserve(capacity_);
  call_child_ns_.reserve(capacity_);
  open_.reserve(64);
}

int32_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  sampled_.push_back(0);
  call_child_ns_.push_back(0);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a mismatched close by unwinding to it.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

CallStats* Tracer::Site(const char* name) {
  CallStats& stats = calls_[name];
  stats.name = name;
  return &stats;
}

void Tracer::Call(CallStats* site, uint64_t request, uint64_t start_ns,
                  uint64_t end_ns) {
  if (!enabled_) return;
  const uint64_t ns = end_ns - start_ns;
  CallStats& stats = *site;
  if (stats.count % kSampleEvery == 0) {
    stats.sampled_ns.push_back(ns);
    if (spans_.size() < capacity_) {
      Span span;
      span.name = stats.name;
      span.request = request;
      span.parent = open_.empty() ? -1 : open_.back();
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      spans_.push_back(span);
      sampled_.push_back(1);
      call_child_ns_.push_back(0);
    } else {
      ++dropped_;
    }
  }
  ++stats.count;
  stats.total_ns += ns;
  stats.max_ns = std::max(stats.max_ns, ns);
  if (!open_.empty()) call_child_ns_[open_.back()] += ns;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<uint64_t> child_ns(call_child_ns_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (sampled_[i] || spans_[i].parent < 0) continue;
    child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (sampled_[i]) continue;
    const uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    const uint64_t own = duration > child_ns[i] ? duration - child_ns[i] : 0;
    self[spans_[i].name] += static_cast<double>(own) * 1e-9;
  }
  for (const auto& [name, stats] : calls_) {
    self[name] += static_cast<double>(stats.total_ns) * 1e-9;
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (size_t i = 0; i < tracer->spans().size(); ++i) {
      const Span& s = tracer->spans()[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%llu}}",
                   first ? "" : ",", s.name, tracer->thread_id(),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank > 0 ? static_cast<size_t>(rank) - 1 : 0;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

}  // namespace loom_bench

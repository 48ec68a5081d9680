#include "drift/drift_detector.h"

#include <algorithm>
#include <cmath>

namespace loom {

namespace {

// Merge-walks two hash-sorted distributions, handing each motif class's
// (p, q) pair — absent side as 0 — to `visit`.
template <typename Visit>
void MergeWalk(const MotifDistribution& p, const MotifDistribution& q,
               Visit visit) {
  size_t i = 0;
  size_t j = 0;
  while (i < p.size() || j < q.size()) {
    if (j >= q.size() ||
        (i < p.size() && p[i].canonical_hash < q[j].canonical_hash)) {
      visit(p[i].probability, 0.0);
      ++i;
    } else if (i >= p.size() || q[j].canonical_hash < p[i].canonical_hash) {
      visit(0.0, q[j].probability);
      ++j;
    } else {
      visit(p[i].probability, q[j].probability);
      ++i;
      ++j;
    }
  }
}

}  // namespace

double L1Distance(const MotifDistribution& p, const MotifDistribution& q) {
  if (p.empty() && q.empty()) return 0.0;
  if (p.empty() || q.empty()) return 1.0;
  double sum = 0.0;
  MergeWalk(p, q, [&sum](double a, double b) { sum += std::fabs(a - b); });
  return std::min(1.0, 0.5 * sum);
}

double JensenShannonDistance(const MotifDistribution& p,
                             const MotifDistribution& q) {
  if (p.empty() && q.empty()) return 0.0;
  if (p.empty() || q.empty()) return 1.0;
  double divergence = 0.0;
  MergeWalk(p, q, [&divergence](double a, double b) {
    const double m = 0.5 * (a + b);
    if (a > 0.0) divergence += 0.5 * a * std::log2(a / m);
    if (b > 0.0) divergence += 0.5 * b * std::log2(b / m);
  });
  // Fully disjoint supports give divergence exactly 1 bit; clamp the tiny
  // floating-point overshoot so the distance stays in [0, 1].
  return std::sqrt(std::min(1.0, std::max(0.0, divergence)));
}

DriftDetector::DriftDetector(const DriftDetectorOptions& options)
    : options_(options) {
  if (options_.clear_threshold > options_.fire_threshold) {
    options_.clear_threshold = options_.fire_threshold;
  }
  if (options_.min_consecutive == 0) options_.min_consecutive = 1;
}

void DriftDetector::SetReference(MotifDistribution reference) {
  reference_ = std::move(reference);
  armed_ = true;
  streak_ = 0;
}

DriftSignal DriftDetector::Observe(const MotifDistribution& current) {
  DriftSignal signal;
  signal.l1 = L1Distance(reference_, current);
  signal.js = JensenShannonDistance(reference_, current);
  signal.workload_drifted = signal.js >= options_.fire_threshold;

  if (!armed_) {
    // Fired and no new reference yet: re-arm only once the signal has clearly
    // subsided, so a workload hovering around the fire threshold cannot
    // trigger a reaction per tick.
    if (signal.js <= options_.clear_threshold) armed_ = true;
  } else if (signal.workload_drifted) {
    if (++streak_ >= options_.min_consecutive) {
      signal.fired = true;
      ++num_fired_;
      armed_ = false;
      streak_ = 0;
    }
  } else {
    streak_ = 0;
  }
  return signal;
}

}  // namespace loom

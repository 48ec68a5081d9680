#ifndef LOOM_DRIFT_DRIFT_DETECTOR_H_
#define LOOM_DRIFT_DRIFT_DETECTOR_H_

/// \file
/// Workload-drift detection: decides *when* the live partitioning has gone
/// stale. The paper's workload-aware design (abstract: "partitioned with
/// prior knowledge of an expected workload") only pays off online if the
/// system reacts when that expectation breaks, so the detector compares the
/// motif-support distribution the live LOOM assignment was built for (the
/// reference) against periodic `WorkloadTracker` distribution snapshots.
/// It thresholds the Jensen–Shannon distance over canonical motif classes
/// and reports the total-variation (L1) distance beside it. Firing is
/// hysteresis-gated (a consecutive-observation streak to fire, a lower
/// clear threshold to re-arm), so an oscillating workload cannot thrash
/// the re-partitioner. Complexity: one Observe is O(|reference| + |current|)
/// (a sorted merge walk); no allocation beyond the caller's distributions.

#include <cstdint>

#include "tpstry/workload_tracker.h"

namespace loom {

/// Detection thresholds and hysteresis, on the Jensen–Shannon distance.
/// Defaults suit normalised motif distributions from a tracker window of
/// O(100) queries.
struct DriftDetectorOptions {
  /// Fire when the distance reaches this value...
  double fire_threshold = 0.15;
  /// ...for this many consecutive observations (debounces sampling noise).
  uint32_t min_consecutive = 2;
  /// After firing, stay disarmed until the distance falls back below this
  /// (must be <= fire_threshold; the gap is the hysteresis band). A new
  /// reference re-arms immediately — the reaction itself closes the loop.
  double clear_threshold = 0.05;
};

/// One observation's worth of drift evidence.
struct DriftSignal {
  /// Total-variation distance to the reference: 0.5 * sum |p_i - q_i|, in
  /// [0, 1]. Reported only; insensitive to *which* mass moved.
  double l1 = 0.0;
  /// Jensen–Shannon distance to the reference (sqrt of the base-2 JS
  /// divergence), in [0, 1]: the distance the thresholds compare.
  /// Symmetric, finite on disjoint supports, and emphasises mass appearing
  /// where the reference had none — exactly what a motif-mix switch does.
  double js = 0.0;
  /// js >= fire_threshold on this observation.
  bool workload_drifted = false;
  /// Hysteresis-gated verdict: drift confirmed, react now. At most once per
  /// arm/fire cycle.
  bool fired = false;
};

/// Compares motif-support distributions against a reference with
/// hysteresis. Not thread-safe; one detector per controlled partitioning.
class DriftDetector {
 public:
  explicit DriftDetector(const DriftDetectorOptions& options);

  /// Installs the distribution the live assignment was built for and
  /// re-arms. Typically `MotifDistributionOf(loom.Trie())` at start-up, and
  /// the drifted distribution after a reaction re-partitions for it, which
  /// closes the loop.
  void SetReference(MotifDistribution reference);

  /// Scores one periodic observation (e.g. a tracker's
  /// `SupportDistribution()`) and updates the hysteresis state.
  DriftSignal Observe(const MotifDistribution& current);

  /// False between a fire and the signal clearing (or a new reference).
  bool Armed() const { return armed_; }

  /// Fires so far (monotone; a stationary workload keeps this at 0).
  uint64_t NumFired() const { return num_fired_; }

  const DriftDetectorOptions& options() const { return options_; }

 private:
  DriftDetectorOptions options_;
  MotifDistribution reference_;
  bool armed_ = true;
  uint32_t streak_ = 0;
  uint64_t num_fired_ = 0;
};

/// Total-variation distance between two motif distributions, in [0, 1].
/// Either side may be empty (distance 1 against a non-empty side, 0 when
/// both are empty). Inputs must be sorted by canonical_hash.
double L1Distance(const MotifDistribution& p, const MotifDistribution& q);

/// Jensen–Shannon distance (sqrt of base-2 JS divergence), in [0, 1]. Same
/// input contract as `L1Distance`.
double JensenShannonDistance(const MotifDistribution& p,
                             const MotifDistribution& q);

}  // namespace loom

#endif  // LOOM_DRIFT_DRIFT_DETECTOR_H_

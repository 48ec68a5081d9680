#ifndef LOOM_TPSTRY_WORKLOAD_TRACKER_H_
#define LOOM_TPSTRY_WORKLOAD_TRACKER_H_

/// \file
/// Continuous workload summarisation (paper §4.2 / abstract: "We are able to
/// continuously summarise the traversal patterns caused by queries within a
/// window over Q"): the query workload is itself a stream. The tracker
/// maintains a TPSTry++ over the most recent `window_queries` observed
/// queries, so the motif supports follow workload drift; snapshots feed a
/// (re)build of the LOOM partitioner's matcher (experiment E12 measures the
/// value of refreshing).
///
/// The window does not buffer the query graphs themselves: per observed
/// query it keeps only the trie nodes the query touched, so expiry is an
/// O(|touched|) support subtraction instead of a full re-enumeration of the
/// expiring query's sub-graphs (and the per-query copy of a `LabeledGraph`
/// is gone).

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "tpstry/tpstry_pp.h"

namespace loom {

/// One motif class's share of a workload summary's support mass, keyed by a
/// platform-stable hash of the motif's exact canonical form. Canonical keys
/// make distributions from *different* tries comparable (the live tracker
/// summary vs. the trie a partitioner was built for) without any node-id
/// alignment between the DAGs.
struct MotifSupport {
  uint64_t canonical_hash = 0;
  /// Normalised share in [0, 1]; a distribution's entries sum to 1.
  double probability = 0.0;
};

/// A motif-support distribution: entries sorted ascending by
/// `canonical_hash`, probabilities summing to 1. Empty iff the summary holds
/// no support mass. This is the reduced form the drift detector compares —
/// O(nodes) to extract, no motif graphs copied.
using MotifDistribution = std::vector<MotifSupport>;

/// Reduces `trie` to its motif-support distribution (zero-support nodes are
/// dropped; supports need not be normalised beforehand).
MotifDistribution MotifDistributionOf(const TpstryPP& trie);

/// Tuning for the query-stream window.
struct WorkloadTrackerOptions {
  /// Number of most-recent queries summarised (count-based window over Q).
  size_t window_queries = 256;
};

/// Rejects (InvalidArgument, mutating nothing) `window_queries == 0`.
Status ValidateWorkloadTrackerOptions(const WorkloadTrackerOptions& options);

/// Sliding-window TPSTry++ over an observed query stream.
class WorkloadTracker {
 public:
  /// \param num_labels label alphabet shared with the data graph.
  /// \param paths_only weave path motifs only (TPSTry regime). It must be
  /// the mode of the trie the tracker is compared with or feeds, so the
  /// owner passes its partitioner's `LoomOptions::paths_only`: a full-motif
  /// summary of a paths-only trie's own workload reads as drift.
  /// `options` must pass ValidateWorkloadTrackerOptions (asserted in Debug).
  WorkloadTracker(uint32_t num_labels, const WorkloadTrackerOptions& options,
                  bool paths_only);

  /// Observes one executed query (frequency 1 in the window). Expired
  /// queries leave the summary automatically.
  Status Observe(const LabeledGraph& query);

  /// The live (un-normalised) summary: supports are counts within the
  /// window.
  const TpstryPP& trie() const { return trie_; }

  /// A normalised copy of the summary (supports as p-values), suitable for
  /// constructing a `Loom` matcher.
  TpstryPP Snapshot() const;

  /// The summary reduced to its motif-support distribution — the cheap
  /// periodic observable for drift detection. Unlike `Snapshot()` this
  /// copies no motif graphs and builds no trie: one O(nodes) pass over the
  /// live supports (which the sliding window already maintains via
  /// ApplySupportDelta), so a controller can poll it every tick.
  MotifDistribution SupportDistribution() const;

  /// Queries currently inside the window.
  size_t WindowSize() const { return window_.size(); }

  /// Total queries ever observed.
  uint64_t NumObserved() const { return num_observed_; }

 private:
  WorkloadTrackerOptions options_;
  bool paths_only_;
  TpstryPP trie_;
  /// Per in-window query: the trie nodes it contributed support to.
  std::deque<std::vector<TpstryNodeId>> window_;
  uint64_t num_observed_ = 0;
};

}  // namespace loom

#endif  // LOOM_TPSTRY_WORKLOAD_TRACKER_H_

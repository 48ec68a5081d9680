#ifndef LOOM_CORE_LOOM_OPTIONS_H_
#define LOOM_CORE_LOOM_OPTIONS_H_

/// \file
/// Configuration of the LOOM partitioner (RocksDB-style options struct).

#include "common/status.h"
#include "matching/stream_matcher.h"
#include "partition/partitioner.h"

namespace loom {

/// All LOOM knobs in one place. `partitioner` carries the generic streaming
/// settings (k, capacity, window size); `matcher` the workload-awareness
/// settings; the fields below select the §4.4 assignment semantics and §5's
/// traversal weighting. Experiment E8 switches them one at a time: E8c
/// `paths_only`, E8d `group_overlapping_matches`, E8e
/// `use_traversal_weights` (E8a and E8b are matcher settings).
struct LoomOptions {
  PartitionerOptions partitioner;
  StreamMatcherOptions matcher;

  /// Assign the transitive closure of overlapping motif matches together
  /// (§4.4; off = only the matches containing the evicted vertex).
  bool group_overlapping_matches = true;

  /// Summarise the workload with path motifs only (the original TPSTry
  /// regime) instead of full TPSTry++ motifs — ablation E8c.
  bool paths_only = false;

  /// §5 future work, implemented: weight LDG's edge counts by the edge's
  /// traversal probability from the TPSTry++ (the p-value of the one-edge
  /// motif with the same label pair), so placement favours partitions the
  /// workload will actually traverse into. An edge whose label pair occurs
  /// in no query weighs `BlockedGainScorer::kUntraversedEdgeWeight`.
  bool use_traversal_weights = false;
};

/// Counters produced by a LOOM run.
struct LoomStats {
  /// Vertices assigned as part of a motif cluster.
  uint64_t cluster_vertices = 0;
  /// Motif clusters assigned as a unit.
  uint64_t clusters_assigned = 0;
  /// Clusters that did not fit any partition and had to be split (the
  /// paper's §4.4 balance concern; the safety valve loom adds): a window
  /// cluster into connected chunks, a recalled memo unit member by member.
  uint64_t clusters_split = 0;
  /// Connected chunks produced by splitting window clusters.
  uint64_t split_chunks = 0;
  /// Vertices assigned individually by plain LDG.
  uint64_t single_vertices = 0;
  /// Memoized restream replay (stream/cluster_log.h): units recalled from
  /// the previous pass's log and scored directly, bypassing the
  /// window/matcher pipeline.
  uint64_t memo_units = 0;
  /// Vertices placed via memoized units.
  uint64_t memo_vertices = 0;
  /// Buffered recalled units cut short by another unit's arrival, an order
  /// GroupPermByUnits never produces; each was placed as buffered. Reads 0
  /// under Restreamer::Run, which groups every replay order.
  uint64_t memo_invalidated = 0;
};

/// Rejects with InvalidArgument: `partitioner` options that fail
/// `ValidatePartitionerOptions`, a zero window, and a frequency threshold
/// that is negative (every TPSTry++ node, zero support included, would be
/// frequent) or NaN. A threshold above 1 passes: no motif is frequent, and
/// LOOM degenerates to windowed LDG (the E8a ablation). `Loom::Create` and
/// `MakePartitioner("loom", …)`, which `Service::Create` takes, both check
/// this first.
Status ValidateLoomOptions(const LoomOptions& options);

}  // namespace loom

#endif  // LOOM_CORE_LOOM_OPTIONS_H_

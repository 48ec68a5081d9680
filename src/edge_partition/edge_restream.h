#ifndef LOOM_EDGE_PARTITION_EDGE_RESTREAM_H_
#define LOOM_EDGE_PARTITION_EDGE_RESTREAM_H_

/// \file
/// Multi-pass restreaming over an EdgePartitioner — the edge-stream
/// counterpart of restream/restreamer.h. Pass one streams cold; every
/// later pass replays the identical arrival sequence (ArrivalSource's
/// Reset contract) from an empty placement. The partitioner keeps its
/// degree table across passes and goes on counting, so HDRF and DBH score
/// even a pass's first edges with at least the whole graph's degrees.
/// Nothing else carries over: a later pass's placements depend only on
/// the degree table and the stream. The restreamer keeps the best pass, so
/// the reported placement never regresses below the best pass seen, and
/// measures each pass's moves against that best earlier pass.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "edge_partition/edge_partitioner.h"
#include "stream/arrival_source.h"

namespace loom {

struct EdgeRestreamOptions {
  /// Total passes including the initial stream (>= 1).
  uint32_t num_passes = 2;
};

/// Rejects `num_passes == 0`.
Status ValidateEdgeRestreamOptions(const EdgeRestreamOptions& options);

/// Quality and cost of one edge-restream pass.
struct EdgeRestreamPassStats {
  /// 1-based pass number.
  uint32_t pass = 0;
  /// Replication factor of this pass's placement.
  double replication_factor = 0.0;
  /// Best replication factor over passes 1..pass (non-increasing).
  double best_replication_factor = 0.0;
  /// Per-partition edge balance (max/avg) of this pass.
  double balance = 0.0;
  /// Fraction of edges this pass placed on a different partition than the
  /// best earlier pass did (0 for pass one).
  double moved_fraction = 0.0;
  /// Counters copied from EdgePartitionerStats for the pass.
  uint64_t overflow_fallbacks = 0;
  uint64_t cap_relaxations = 0;
  uint64_t assign_errors = 0;
  double seconds = 0.0;
};

/// Final placement plus the per-pass trajectory.
struct EdgeRestreamResult {
  std::vector<EdgeRestreamPassStats> passes;
  /// Per-edge placements (stream order) of the best pass: the lowest
  /// replication factor, ties broken towards the better edge balance.
  std::vector<uint32_t> placements;
  double replication_factor = 0.0;
  double balance = 0.0;
};

/// Multi-pass driver. The source must yield back-edge views and replay the
/// identical sequence after Reset; the partitioner must record placements
/// (options().record_placements), since the best pass is kept as its log.
class EdgeRestreamer {
 public:
  /// `source` must outlive the restreamer; `options` must pass
  /// ValidateEdgeRestreamOptions (asserted in Debug).
  EdgeRestreamer(ArrivalSource* source, const EdgeRestreamOptions& options);

  /// Runs the full schedule on `partitioner` (reset first, so any earlier
  /// state is discarded). Errors with InvalidArgument when the partitioner
  /// does not record placements. After the call the partitioner holds the
  /// *last* pass's state; the returned placements are the best pass's.
  Result<EdgeRestreamResult> Run(EdgePartitioner* partitioner);

  const EdgeRestreamOptions& options() const { return options_; }

 private:
  ArrivalSource* source_;
  EdgeRestreamOptions options_;
};

}  // namespace loom

#endif  // LOOM_EDGE_PARTITION_EDGE_RESTREAM_H_

#ifndef LOOM_EDGE_PARTITION_EDGE_RESTREAM_H_
#define LOOM_EDGE_PARTITION_EDGE_RESTREAM_H_

/// \file
/// Multi-pass restreaming over an EdgePartitioner — the edge-stream
/// counterpart of restream/restreamer.h. Pass one streams cold; every
/// later pass replays the identical arrival sequence (ArrivalSource's
/// Reset contract) with the previous pass's per-edge placement log
/// installed as the prior, so HDRF re-scores each edge with *final*
/// partial degrees (retained across BeginPass) and full knowledge of both
/// endpoints' replica sets as they re-form. An optional migration budget
/// caps the number of edges that may land off their prior partition —
/// the incremental re-partition a serving deployment can actually afford
/// — and keep-best guarantees the reported placement never regresses
/// below the best pass seen.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "edge_partition/edge_partitioner.h"
#include "stream/arrival_source.h"

namespace loom {

struct EdgeRestreamOptions {
  /// Total passes including the initial stream (>= 1).
  uint32_t num_passes = 2;
  /// Bounded-migration budget for every pass that has a prior: at most
  /// floor(fraction * m) edges may land on a different partition than the
  /// prior assigned; once spent, further placements clamp to the prior.
  /// >= 1.0 (the default) disables the budget.
  double max_migration_fraction = 1.0;
  /// Anytime guarantee: report (and restream against) the placement with
  /// the lowest replication factor seen so far, ties broken towards the
  /// better edge balance. Off = plain last-pass semantics.
  bool keep_best = true;
};

/// Rejects `num_passes == 0` and a NaN or negative
/// `max_migration_fraction` (values > 1 are valid — unbudgeted).
Status ValidateEdgeRestreamOptions(const EdgeRestreamOptions& options);

/// Sanitized copy: `num_passes` clamped to >= 1; NaN or negative
/// `max_migration_fraction` clamped to 0.0 — the conservative end (a
/// garbage budget freezes migration rather than silently unbudgeting).
EdgeRestreamOptions SanitizeEdgeRestreamOptions(EdgeRestreamOptions options);

/// Quality and cost of one edge-restream pass.
struct EdgeRestreamPassStats {
  /// 1-based pass number.
  uint32_t pass = 0;
  /// Replication factor of this pass's placement.
  double replication_factor = 0.0;
  /// Best replication factor over passes 1..pass (non-increasing when
  /// keep_best is on).
  double best_replication_factor = 0.0;
  /// Per-partition edge balance (max/avg) of this pass.
  double balance = 0.0;
  /// Fraction of edges whose partition changed from the prior (0 for pass
  /// one).
  double moved_fraction = 0.0;
  /// Counters copied from EdgePartitionerStats for the pass.
  uint64_t overflow_fallbacks = 0;
  uint64_t cap_relaxations = 0;
  uint64_t assign_errors = 0;
  uint64_t budget_denied_moves = 0;
  double seconds = 0.0;
};

/// Final placement plus the per-pass trajectory.
struct EdgeRestreamResult {
  std::vector<EdgeRestreamPassStats> passes;
  /// Per-edge placements (stream order) of the reported pass — the best
  /// pass under keep_best, else the last.
  std::vector<uint32_t> placements;
  double replication_factor = 0.0;
  double balance = 0.0;
};

/// Multi-pass driver. The source must yield back-edge views and replay the
/// identical sequence after Reset; the partitioner must record placements
/// (options().record_placements) — the log *is* the restream prior.
class EdgeRestreamer {
 public:
  /// `source` must outlive the restreamer; options are sanitized.
  EdgeRestreamer(ArrivalSource* source, const EdgeRestreamOptions& options);

  /// Runs the full schedule on `partitioner` (reset first, so any prior
  /// state is discarded). Errors with InvalidArgument when the partitioner
  /// does not record placements. After the call the partitioner holds the
  /// *last* pass's state; the returned placements are the reported pass's.
  Result<EdgeRestreamResult> Run(EdgePartitioner* partitioner);

  const EdgeRestreamOptions& options() const { return options_; }

 private:
  ArrivalSource* source_;
  EdgeRestreamOptions options_;
};

}  // namespace loom

#endif  // LOOM_EDGE_PARTITION_EDGE_RESTREAM_H_

#ifndef LOOM_CORE_LOOM_PARTITIONER_H_
#define LOOM_CORE_LOOM_PARTITIONER_H_

/// \file
/// The LOOM streaming partitioner (paper §4): windowed LDG whose unit of
/// assignment is a *motif match* instead of a single vertex whenever the
/// workload summary says the local structure will be traversed.
///
/// Per arrival:
///   1. if the window is full, evict the oldest vertex;
///   2. on eviction, ask the stream matcher for the motif-match closure of
///      the evicted vertex (§4.4): when non-empty, assign the whole cluster
///      to one partition chosen by cluster-LDG (total external edges,
///      free-capacity weighted); otherwise assign the single vertex by LDG;
///   3. buffer the new arrival and feed the matcher.
///
/// A cluster too large for any partition's remaining capacity is split —
/// the safety valve for the balance risk the paper flags as future work
/// (§4.4, §5). A window cluster is split into connected chunks, each placed
/// as a unit; a recalled memo unit is placed member by member.

#include <utility>

#include "common/small_vector.h"
#include "core/loom_options.h"
#include "matching/stream_matcher.h"
#include "partition/gain_scorer.h"
#include "partition/partitioner.h"
#include "stream/cluster_log.h"
#include "stream/window.h"
#include "tpstry/tpstry_pp.h"

namespace loom {

/// Workload-aware streaming partitioner.
class LoomPartitioner : public StreamingPartitioner {
 public:
  /// \param trie workload summary (must outlive the partitioner).
  LoomPartitioner(const LoomOptions& options, const TpstryPP* trie);

  void OnVertex(VertexId v, Label label,
                Span<const VertexId> back_edges) override;

  void Finish() override;

  /// Restream hook: also resets the window, the matcher and the per-pass
  /// LOOM cluster counters, so each pass starts clean and its stats are
  /// independently meaningful even if the previous use stopped mid-stream.
  void BeginPass(const PartitionAssignment* prior) override;

  std::string Name() const override { return "loom"; }

  /// Drift reaction hook: re-points the partitioner at a new workload
  /// summary (e.g. a `WorkloadTracker::Snapshot()` taken after drift), so
  /// the next pass re-scores motif clusters against the *drifted* trie —
  /// matcher and traversal edge-weights are rebuilt here. Call between
  /// passes only (the window must be empty; an in-flight window would mix
  /// closures from two summaries); `trie` must outlive the partitioner.
  void SetTrie(const TpstryPP* trie);

  const TpstryPP* trie() const { return trie_; }

  const LoomStats& loom_stats() const { return loom_stats_; }
  const StreamMatcherStats& matcher_stats() const { return matcher_.stats(); }

  /// Cluster memoization (stream/cluster_log.h): when logging is on, the
  /// partitioner records every unit it assigns (singles and pre-split motif
  /// clusters, in assignment order); with a memo installed, recalled units
  /// are scored straight off their buffered arrivals through the blocked
  /// kernel — no window, no matcher. The memo must be replayed over the
  /// stream it was recorded from, in GroupPermByUnits order; nothing is
  /// re-checked. A buffered unit cut short by another unit's arrival is
  /// placed as buffered, as Finish places a stranded one, and counted in
  /// LoomStats::memo_invalidated.
  void SetClusterLogging(bool enabled) override;
  const ClusterLog* cluster_log() const override {
    return log_enabled_ ? &cluster_log_ : nullptr;
  }
  void TakeClusterLog(ClusterLog* out) override {
    if (!log_enabled_) return;
    *out = std::move(cluster_log_);
    cluster_log_.Reset();  // restore the moved-from invariant
  }
  void SetClusterMemo(const ClusterMemo* memo) override;

 private:
  /// Re-derives the per-label-pair traversal weights from `trie_` (no-op
  /// unless traversal weighting is enabled).
  void RebuildEdgeWeights();

  /// Memoized-replay arrival handling. Returns true when the arrival was
  /// consumed (buffered into, or completing, a recalled unit); false sends
  /// an unrecorded vertex through the normal pipeline.
  bool HandleMemoArrival(VertexId v, Label label,
                         Span<const VertexId> back_edges);

  /// Scores and places the buffered unit (whole-unit cluster-LDG first; a
  /// unit of one or one that fits no partition goes member by member via
  /// PlaceSingle), records it into this pass's log, and clears the buffer.
  void AssignPendingUnit();

  void ClearPending();

  /// Neighbourhood of buffered member `index` (into the flat arena).
  Span<const VertexId> PendingNeighbors(uint32_t index) const {
    return Span<const VertexId>(
        pending_neighbors_.data() + pending_offsets_[index],
        pending_offsets_[index + 1] - pending_offsets_[index]);
  }

  /// Assigns the oldest window member (with its motif closure, if any).
  void EvictOldest();

  /// Single-vertex LDG over `neighbors`, the edges seen for `v` (a window
  /// member's, a buffered member's or a borrowed arrival's); counts
  /// LoomStats::single_vertices.
  void PlaceSingle(VertexId v, Label label, Span<const VertexId> neighbors);

  /// Assigns every cluster vertex to `part`, removing them from window and
  /// matcher.
  void AssignCluster(const std::vector<VertexId>& cluster, uint32_t part);

  /// §5 future work: splits an oversized window cluster into connected
  /// chunks no larger than the largest free capacity and assigns each chunk
  /// as a unit; a chunk that still fits nowhere goes member by member.
  void SplitAndAssignCluster(const std::vector<VertexId>& cluster);

  /// Accumulates the (possibly weighted) LDG scores of `vertices`' edges
  /// into each partition via the blocked kernel; `scorer_.touched()` lists
  /// the dirtied partitions afterwards. Only edges to assigned vertices
  /// count.
  void ScoreVertices(const std::vector<VertexId>& vertices,
                     std::vector<double>* scores);

  LoomOptions loom_options_;
  StreamWindow window_;
  StreamMatcher matcher_;
  /// LOOM-specific counters; named apart from the base's PartitionerStats
  /// `stats_` so neither shadows the other.
  LoomStats loom_stats_;
  std::vector<double> scores_;
  /// The one reset-then-accumulate scoring kernel: every writer of `scores_`
  /// (cluster scoring, chunk scoring, single-vertex LDG) goes through it, so
  /// the touched-partition invariant lives in one place. Also owns the dense
  /// label-pair traversal-weight table.
  BlockedGainScorer scorer_;
  /// Per-arrival scratch for the in-window back-edge filter (reused so the
  /// hot path stays amortized allocation-free).
  std::vector<VertexId> in_window_scratch_;
  /// Cluster-split scratch, keyed by window slot: 0 = not in the cluster,
  /// 1 = in the cluster and unplaced, 2 = placed into a chunk.
  std::vector<uint8_t> split_state_;
  /// Label of every vertex ever seen (index = VertexId); needed to weight
  /// edges towards already-assigned endpoints.
  std::vector<Label> label_of_;

  // --- Cluster memoization state (stream/cluster_log.h) ---
  /// Recording switch; off by default so single-pass streaming pays nothing.
  bool log_enabled_ = false;
  /// The decomposition this pass assigned (valid when log_enabled_).
  ClusterLog cluster_log_;
  /// Previous pass's decomposition to replay, or null (not owned).
  const ClusterMemo* memo_ = nullptr;
  /// The one unit currently buffering (grouped arrival order guarantees at
  /// most one): its id, its members so far, and their neighbourhoods in a
  /// flat arena.
  int32_t pending_unit_ = -1;
  SmallVector<VertexId, 32> pending_ids_;
  std::vector<VertexId> pending_neighbors_;
  SmallVector<uint32_t, 33> pending_offsets_{0};

  const TpstryPP* trie_;
};

}  // namespace loom

#endif  // LOOM_CORE_LOOM_PARTITIONER_H_

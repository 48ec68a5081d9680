#ifndef LOOM_EDGE_PARTITION_EDGE_PARTITIONER_H_
#define LOOM_EDGE_PARTITION_EDGE_PARTITIONER_H_

/// \file
/// Streaming *edge* partitioning — the standard answer where the paper's
/// vertex partitioners degrade (power-law graphs, §5 future work). Instead
/// of assigning vertices to partitions and cutting edges, an edge
/// partitioner assigns each edge to exactly one partition and *replicates*
/// the endpoint vertices into every partition that holds one of their
/// edges; the quality metric is the replication factor (average replicas
/// per vertex) instead of the edge-cut fraction.
///
/// The edge cursor is the existing ArrivalSource back-edge view: every
/// undirected edge is yielded exactly once, on its later endpoint's
/// arrival, so the same stream files, generators and replay machinery that
/// feed the vertex partitioners feed this module, and "edge i" has a
/// stable meaning (the i-th back edge in arrival order) that the placement
/// log, restream comparisons and golden-hash pins rely on.
///
/// Implementations: HDRF (hdrf_partitioner.h) and DBH (dbh_partitioner.h),
/// both backed by ReplicaSet for the vertex→partition-set state. A
/// workload-aware hook (workload_heat.h) scales partial degrees by motif
/// support so hot motif hubs replicate first; the edge restreamer
/// (edge_restream.h) replays the stream with the degrees earlier passes
/// counted.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "partition/replica_set.h"
#include "stream/arrival_source.h"

namespace loom {

/// Workload-aware heat for an endpoint: a value in [0, 1] (larger = hotter)
/// that scales the vertex's *effective* partial degree, so degree-sensitive
/// placement rules (HDRF's θ, DBH's lower-degree hash) treat hot motif hubs
/// as high-degree and replicate them first. Must be deterministic for a
/// given (vertex, label) pair — it participates in golden-hashed placement.
using VertexHeatFn = std::function<double(VertexId, Label)>;

/// Configuration shared by all streaming edge partitioners.
struct EdgePartitionerOptions {
  /// Number of partitions k.
  uint32_t k = 4;
  /// HDRF balance weight λ: 0 = pure replication greed, larger values trade
  /// replication factor for tighter edge balance. Ignored by DBH.
  double lambda = 1.0;
  /// Expected edge count m; sizes the per-partition edge budget. 0 leaves
  /// the budget unconstrained (balance then rests on the scoring alone).
  uint64_t num_edges_hint = 0;
  /// Expected vertex count n (reserves the degree tables; optional).
  uint64_t num_vertices_hint = 0;
  /// Edge-budget slack: each partition takes at most ceil(slack * m / k)
  /// edges before the overflow fallback re-routes (never drops) the edge.
  double balance_slack = 1.1;
  /// Replica budget per vertex: a vertex may appear in at most this many
  /// partitions. 0 = unbounded (effectively k). When both endpoints are at
  /// their budget with disjoint partition sets the cap must be relaxed for
  /// that edge (counted in stats().cap_relaxations).
  uint32_t max_partitions_per_vertex = 0;
  /// Seed for hash-based placement (DBH).
  uint64_t seed = 42;
  /// Record the per-edge placement log (stream order). Required by the
  /// edge restreamer, the differential tests and the golden hashes; costs
  /// 4 bytes per edge, so the out-of-core tier may turn it off.
  bool record_placements = true;
  /// Optional workload-aware scoring hook; nullptr = degree-only.
  VertexHeatFn heat;
  /// Weight of the heat term: effective_degree = degree * (1 + weight *
  /// heat). 0 disables the hook even when `heat` is set.
  double heat_weight = 1.0;
};

/// Rejects (InvalidArgument, mutating nothing): `k == 0`, a NaN or negative
/// `lambda`, a non-finite or sub-1.0 `balance_slack`, a NaN or negative
/// `heat_weight`, and `max_partitions_per_vertex == 1` with `k > 1` (a
/// one-partition replica budget makes every edge with previously-seen
/// endpoints a cap relaxation — always a configuration mistake). A replica
/// budget above k is valid and means the same as 0: no vertex can be in
/// more than k partitions.
Status ValidateEdgePartitionerOptions(const EdgePartitionerOptions& options);

/// The per-partition edge budget ceil(slack * m / k), at least 1; 0 when
/// `num_edges` is 0 (unconstrained). `ComputeCapacity` over edges, with
/// its clamping: NaN or below 1 gives 1, at or past 2^64 the largest value.
uint64_t ComputeEdgeCapacity(uint32_t k, uint64_t num_edges, double slack);

/// Counters shared by every streaming edge partitioner; the same
/// fail-loud-in-Release philosophy as PartitionerStats.
struct EdgePartitionerStats {
  /// Edges placed so far this pass (== sum of per-partition edge counts).
  uint64_t edges_assigned = 0;
  /// Placements where the heuristic's pick (or every scored candidate) was
  /// blocked — by the edge budget or an endpoint's replica budget — and
  /// the edge was re-routed to the least-loaded partition the replica
  /// budgets allow, possibly past the edge budget.
  uint64_t overflow_fallbacks = 0;
  /// Placements where both endpoints were at `max_partitions_per_vertex`
  /// with disjoint partition sets, so the replica cap had to be relaxed for
  /// the edge (never happens with the default unbounded cap).
  uint64_t cap_relaxations = 0;
  /// Placement-application failures (partition index out of range). Always
  /// a partitioner logic error; surfaced so Release builds report it
  /// instead of silently mis-counting.
  uint64_t assign_errors = 0;
};

/// Base class for streaming edge partitioners.
///
/// ## Lifecycle
///
/// Mirrors StreamingPartitioner: a single pass is `Run` (or per-arrival
/// `OnArrival` / per-edge `OnEdge` calls) over a back-edge ArrivalSource;
/// after the pass, `replicas()` / `edge_counts()` / `placements()` describe
/// the result. `BeginPass()` rewinds to an empty placement for a restream
/// pass and keeps the degree table, which goes on counting: the graph is
/// known after pass one, so a later pass scores even its first edges with
/// at least the whole graph's degrees. Nothing else carries over.
/// `Reset()` discards everything including degrees.
class EdgePartitioner {
 public:
  /// `options` must pass ValidateEdgePartitionerOptions (asserted in Debug);
  /// `MakeEdgePartitioner` checks it for its callers.
  explicit EdgePartitioner(const EdgePartitionerOptions& options);
  virtual ~EdgePartitioner() = default;

  EdgePartitioner(const EdgePartitioner&) = delete;
  EdgePartitioner& operator=(const EdgePartitioner&) = delete;

  /// Drains `source` (from its current position) through OnArrival. The
  /// source must yield *back-edge* views — a full-neighbourhood replay
  /// would place every edge twice.
  void Run(ArrivalSource& source);

  /// Consumes one arrival: refreshes the vertex's heat scale from its label
  /// (heat hook only) and places each carried back edge via OnEdge. An
  /// arrival whose vertex is kInvalidVertex is ignored.
  void OnArrival(const ArrivalView& view);

  /// Places one edge, in stream order; `u` is the later endpoint (the
  /// arriving vertex), `v` an earlier arrival. Updates both partial
  /// degrees *before* scoring (the HDRF/DBH convention), applies the
  /// replica-budget and edge-budget rules, and returns the chosen
  /// partition. An edge with an endpoint equal to kInvalidVertex places
  /// nothing, changes no state (it takes no place in the log) and returns
  /// `options().k`.
  uint32_t OnEdge(VertexId u, VertexId v);

  /// Partitioner name for result tables ("hdrf", "dbh").
  virtual std::string Name() const = 0;

  /// Restreaming hook: discards the placement state (replicas, edge
  /// counts, placement log, stats). Partial degrees and heat scales are
  /// retained, so a pass that replays the stream depends only on them and
  /// the stream, not on any earlier placement.
  void BeginPass();

  /// Rewinds to the fresh state: BeginPass() plus degree and heat scale
  /// tables cleared.
  void Reset();

  /// Vertex→partition-set replica state of the current pass.
  const ReplicaSet& replicas() const { return replicas_; }

  /// Edges per partition (size k).
  const std::vector<uint64_t>& edge_counts() const { return edge_counts_; }

  /// Per-edge placements in stream order; empty when
  /// `options().record_placements` is false.
  const std::vector<uint32_t>& placements() const { return placements_; }

  /// Partial degree of `v` as seen so far (0 for unseen ids).
  uint32_t PartialDegree(VertexId v) const {
    return v < degree_.size() ? degree_[v] : 0;
  }

  const EdgePartitionerOptions& options() const { return options_; }
  const EdgePartitionerStats& stats() const { return stats_; }

 protected:
  /// Placement rule of the concrete algorithm. Called with both partial
  /// degrees already incremented for this edge; must return either an
  /// Eligible() partition or FallbackPartition(u, v).
  virtual uint32_t PickPartition(VertexId u, VertexId v) = 0;

  /// True iff `p` may take edge (u, v): below the per-partition edge
  /// budget, and within both endpoints' replica budgets (a partition
  /// already holding the endpoint never spends budget).
  bool Eligible(VertexId u, VertexId v, uint32_t p) const;

  /// The shared never-drop re-route, in order of preference: least-loaded
  /// partition the replica budgets allow (counts an overflow fallback when
  /// the scored pick was budget-blocked), else — both endpoints capped
  /// with disjoint sets — least-loaded partition holding either endpoint,
  /// found by walking mask(u) | mask(v) in ascending index order (counts a
  /// cap relaxation, plus an overflow fallback if it is also past the edge
  /// budget). Ties prefer the lower index.
  uint32_t FallbackPartition(VertexId u, VertexId v);

  /// Degree scaled by the workload heat hook: degree * heat_scale_[v],
  /// where the scale (1 + heat_weight * heat(v, label)) is cached when the
  /// vertex first appears and refreshed when its label arrives — the hook
  /// is deterministic per (vertex, label), so the cache is exact and the
  /// hot path never re-invokes it. Plain degree when no hook is installed.
  double EffectiveDegree(VertexId v) const {
    const double degree = static_cast<double>(PartialDegree(v));
    if (!has_heat_) return degree;
    return degree * (v < heat_scale_.size() ? heat_scale_[v] : 1.0);
  }

  /// Replica-budget test for one endpoint: true iff `p` already holds `x`
  /// or `x` has budget for a new partition. Mask-only — no hashing. At the
  /// default cap of k the test passes without a popcount: only a vertex
  /// already in all k partitions fails the count, and it holds every `p`.
  bool WithinReplicaBudget(VertexId x, uint32_t p) const {
    return replica_cap_ == options_.k || replicas_.Has(x, p) ||
           replicas_.NumReplicasOf(x) < replica_cap_;
  }

  /// True iff `p` is past its edge budget. Equivalent to testing the
  /// full-partition bit word (the bits are maintained by
  /// NoteEdgeCountIncrement for the kernels that consume whole words).
  bool AtEdgeCapacity(uint32_t p) const {
    return edge_capacity_ != 0 && edge_counts_[p] >= edge_capacity_;
  }

  /// Bookkeeping for one `++edge_counts_[p]`: advances the running max,
  /// maintains the lazily-refreshed min tracker (counts only increment
  /// within a pass, so the min can only rise — when the last partition at
  /// the minimum leaves it, the tracker recounts at min+1, which is always
  /// populated; the recount runs at most min(m, m/k · k) = m times total,
  /// so the amortized cost is O(1) per edge), and sets the partition's
  /// full bit when the increment reaches its budget.
  void NoteEdgeCountIncrement(uint32_t p);

  /// O(k) recompute of max/min load, the min population count and the
  /// full-partition bit words from `edge_counts_` and the edge budget.
  /// Called whenever counts change non-incrementally (construction,
  /// BeginPass).
  void RebuildLoadBounds();

  EdgePartitionerOptions options_;
  EdgePartitionerStats stats_;
  ReplicaSet replicas_;
  std::vector<uint64_t> edge_counts_;
  std::vector<uint32_t> placements_;
  std::vector<uint32_t> degree_;
  /// Per-partition edge budget (0 = unconstrained).
  uint64_t edge_capacity_ = 0;
  /// Replica budget resolved against k (options value 0 → k).
  uint32_t replica_cap_ = 0;
  /// True iff the heat hook is installed with nonzero weight.
  bool has_heat_ = false;
  /// Cached per-vertex heat scale 1 + heat_weight * heat(v, label); only
  /// populated when `has_heat_`.
  std::vector<double> heat_scale_;
  /// Incrementally maintained load bounds over `edge_counts_` (see
  /// NoteEdgeCountIncrement): running max, current min, and how many
  /// partitions sit at the min.
  uint64_t max_load_ = 0;
  uint64_t min_load_ = 0;
  uint32_t num_at_min_ = 0;
  /// Bit p of word w set iff partition 64w + p is at/past its edge budget.
  /// ceil(k / 64) words; kernels AND the complement into eligibility.
  std::vector<uint64_t> full_words_;

 private:
  void GrowTables(VertexId v);

  /// Recomputes heat_scale_[v] for `v` carrying `label` (no-op without
  /// the hook).
  void RefreshHeatScale(VertexId v, Label label);
};

/// Every name `MakeEdgePartitioner` accepts, in the canonical bench-table
/// order (hdrf, dbh).
const std::vector<std::string>& KnownEdgePartitioners();

/// True iff `name` is one of `KnownEdgePartitioners()`.
bool IsKnownEdgePartitioner(const std::string& name);

/// Constructs the named edge partitioner; InvalidArgument on an unknown
/// name or options that fail ValidateEdgePartitionerOptions.
Result<std::unique_ptr<EdgePartitioner>> MakeEdgePartitioner(
    const std::string& name, const EdgePartitionerOptions& options);

}  // namespace loom

#endif  // LOOM_EDGE_PARTITION_EDGE_PARTITIONER_H_

#ifndef LOOM_PARTITION_PARTITIONER_H_
#define LOOM_PARTITION_PARTITIONER_H_

/// \file
/// The streaming-partitioner interface (§3.1): each vertex is considered
/// once, in stream order, carrying its edges to earlier arrivals; the
/// partitioner assigns it (possibly after buffering a bounded window) and
/// never revisits the decision.

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "partition/partition_state.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"

namespace loom {

class ClusterLog;
class ClusterMemo;

/// Configuration shared by all streaming partitioners.
struct PartitionerOptions {
  /// Number of partitions k.
  uint32_t k = 4;
  /// Expected vertex count n; sizes the capacity constraint C.
  size_t num_vertices_hint = 0;
  /// Expected edge count m; used by Fennel's alpha.
  size_t num_edges_hint = 0;
  /// Capacity slack: C = ceil(slack * n / k). 1.0 = perfectly tight.
  double capacity_slack = 1.1;
  /// Buffer size for windowed partitioners (ignored by one-shot heuristics).
  size_t window_size = 256;
  /// Seed for any internal randomness.
  uint64_t seed = 42;
};

/// The capacity constraint C = ceil(slack * n / k), at least 1; 0 when
/// `num_vertices` is 0 (unconstrained). A product the result type cannot
/// hold is clamped rather than cast: NaN or below 1 gives 1, at or past
/// 2^64 gives the largest size_t.
size_t ComputeCapacity(uint32_t k, size_t num_vertices, double slack);

/// True iff `slack` is a usable capacity or edge-budget slack: finite and
/// at least 1.0 (below 1.0 the k partitions cannot hold the whole stream).
bool IsValidSlack(double slack);

/// Rejects (InvalidArgument naming the field, mutating nothing) `k == 0`
/// and a `capacity_slack` that fails IsValidSlack. The partitioner factory,
/// `Loom::Create` and `ValidateServiceOptions` all check through this.
Status ValidatePartitionerOptions(const PartitionerOptions& options);

/// Counters for the capacity-overflow fallback shared by every streaming
/// partitioner: when the placement heuristic finds no eligible partition the
/// vertex is re-routed to the partition with the most free capacity — past
/// the capacity bound C only once every partition is full — instead of being
/// dropped (the pre-fix behaviour under NDEBUG) or asserted on (Debug).
struct PartitionerStats {
  /// Placements where the heuristic found no partition with room and the
  /// vertex fell back to the most-free partition.
  uint64_t overflow_fallbacks = 0;
  /// Fallback placements forced past C because every partition was full;
  /// only possible when the stream carries more than k·C vertices.
  uint64_t forced_placements = 0;
  /// Assign() failures that were not capacity-related (double assignment,
  /// bad index). Always a partitioner logic error; surfaced here so Release
  /// builds report it instead of silently discarding the Status.
  uint64_t assign_errors = 0;
  /// Restream passes only: placements that landed on a different partition
  /// than the prior pass assigned — the pass's migration count, maintained
  /// live so a migration budget can be enforced mid-stream.
  uint64_t prior_moves = 0;
  /// Budgeted restream passes only: would-be moves clamped back to the
  /// vertex's prior partition — either because the migration budget was
  /// already spent, or because the move target's free capacity was fully
  /// reserved for its not-yet-replayed prior members (the home-slot
  /// reservation that keeps the budget strict).
  uint64_t budget_denied_moves = 0;
};

/// Base class for streaming partitioners.
///
/// ## Lifecycle (the supported surface)
///
/// A partitioner moves through these states; everything else in the class
/// is plumbing for one of the arrows:
///
///   fresh ──OnVertex*──▶ streaming ──Finish──▶ finished
///     ▲                                           │
///     └────────────── Reset ◀────────────────────┘
///
///  * **Single pass**: `OnVertex` per arrival in stream order (or `Run` for
///    a whole recorded stream), then `Finish` — after which every streamed
///    vertex is assigned and `assignment()` is final for the pass.
///  * **Restream**: `BeginPass(&prior)` rewinds to fresh with the previous
///    pass's assignment installed as the scoring prior (optionally budgeted
///    via `SetMigrationBudget`), then stream + `Finish` again. `Reset()` is
///    the no-prior special case: back to fresh, nothing remembered.
///  * **Adoption**: `AdoptAssignment` installs an externally composed
///    result (a keep-best drift reaction) as if a serial pass had just
///    finished — the partitioner continues live from it.
///
/// `stats()` always describes the *current* pass (BeginPass/Reset clear it;
/// AdoptAssignment overwrites it with the adopted stats). `options()` is
/// immutable after construction.
class StreamingPartitioner {
 public:
  /// `options` must pass ValidatePartitionerOptions (asserted in Debug); the
  /// factory and `Loom::Create` check it for their callers.
  explicit StreamingPartitioner(const PartitionerOptions& options);
  virtual ~StreamingPartitioner() = default;

  StreamingPartitioner(const StreamingPartitioner&) = delete;
  StreamingPartitioner& operator=(const StreamingPartitioner&) = delete;

  /// Consumes one arrival: vertex `v` with `label` and its edges to
  /// already-arrived vertices. The span is borrowed from the caller's cursor
  /// and is only valid for the duration of the call — implementations copy
  /// whatever they buffer (the window's arena does this).
  virtual void OnVertex(VertexId v, Label label,
                        Span<const VertexId> back_edges) = 0;

  /// Flushes buffered state; after this every streamed vertex is assigned.
  virtual void Finish() {}

  /// Partitioner name for result tables.
  virtual std::string Name() const = 0;

  /// Drains `source` (from its current position) through OnVertex and
  /// finishes. Early-stop: once a migration budget is exhausted mid-pass,
  /// the remaining arrivals bypass OnVertex scoring entirely and are placed
  /// straight onto their prior partition — the budget forces that outcome
  /// anyway, so the tail of a budgeted pass costs one table lookup per
  /// vertex instead of a full scoring round. In a restream pass each
  /// arrival's neighbour rows of the score table are prefetched before
  /// OnVertex, which scores off them; a replay order is random, so those
  /// rows are cold.
  void Run(ArrivalSource& source);

  /// Convenience adapter: runs a borrowed in-memory stream through a
  /// StreamCursor. Identical arrivals produce identical assignments whether
  /// fed through this overload or any other ArrivalSource.
  void Run(const GraphStream& stream);

  /// Restreaming hook (ReLDG/ReFennel semantics): discards this partitioner's
  /// assignment and stats, and installs `prior` — the previous pass's
  /// assignment — as the scoring prior for the next pass. Until a vertex is
  /// re-assigned this pass, ScorePartOf reports its prior-pass partition, so
  /// placement scores incorporate last pass's neighbourhoods while balance is
  /// accounted against this pass's placements only. The pass scores off one
  /// table: a copy of the prior's per-id partitions (4 B per id) that every
  /// placement of the pass overwrites. Pass nullptr to reset to single-pass
  /// behaviour, which drops the table. `prior` must outlive the pass and
  /// must not alias this partitioner's own assignment (copy it first).
  virtual void BeginPass(const PartitionAssignment* prior);

  /// Rewinds to the fresh state: discards the assignment, stats, prior and
  /// any migration budget. Equivalent to `BeginPass(nullptr)`.
  void Reset() { BeginPass(nullptr); }

  const PartitionAssignment& assignment() const { return assignment_; }
  const PartitionerOptions& options() const { return options_; }
  const PartitionerStats& stats() const { return stats_; }

  /// True while a restream pass (BeginPass with a non-null prior) is active.
  bool HasPrior() const { return prior_ != nullptr; }

  /// `max_moves` value meaning "no migration budget" (the default).
  static constexpr uint64_t kUnlimitedMigrationBudget = ~uint64_t{0};

  /// Bounded-migration restream (drift reaction): caps the number of
  /// placements this pass that may differ from the prior's partition. Once
  /// `stats().prior_moves` reaches the budget, every further placement is
  /// clamped back to the vertex's prior partition. The clamp is backed by
  /// *home-slot reservation*: while the budget is finite, a vertex may only
  /// move into a partition whose free capacity exceeds the outstanding home
  /// claims of its not-yet-replayed prior members, so every stayer keeps a
  /// guaranteed slot, the clamp never overflows, and the cap is strict —
  /// provided the replay covers the prior's vertex set (a restream replay
  /// does; vertices absent from the prior bypass the reservation). Reset to
  /// unlimited by BeginPass; call after BeginPass, before streaming. No
  /// effect without a prior.
  void SetMigrationBudget(uint64_t max_moves);

  /// Installs an externally composed assignment and stats — the adopted
  /// result of a drift reaction — and drops any prior / migration budget,
  /// leaving the partitioner in the same logical state a serial pass ends
  /// in.
  void AdoptAssignment(PartitionAssignment assignment,
                       const PartitionerStats& stats);

  /// True when a prior is installed and the migration budget is spent: every
  /// remaining placement will be clamped to its prior partition, so drivers
  /// may skip scoring for the rest of the pass (see Run's early-stop).
  bool MigrationBudgetExhausted() const {
    return prior_ != nullptr && stats_.prior_moves >= migration_budget_;
  }

  /// Drops the restream prior and the pass's score table without touching
  /// the current assignment (for drivers whose prior storage goes out of
  /// scope after the run).
  void ClearPrior() {
    prior_ = nullptr;
    score_part_ = std::vector<int32_t>();
  }

  /// Cluster-memoization hooks (see stream/cluster_log.h). A partitioner
  /// whose unit of assignment is larger than a vertex (LOOM) can record the
  /// cluster decomposition it actually assigned and replay it next pass.
  /// The base implementations record nothing and ignore the memo, so every
  /// other partitioner is unaffected.
  ///
  /// Turns on (or off) recording of the assigned-unit decomposition for
  /// subsequent passes. Off by default: single-pass use pays nothing.
  virtual void SetClusterLogging(bool enabled) { (void)enabled; }
  /// Decomposition of the last recorded pass, or null when the partitioner
  /// does not record one (or logging is off).
  virtual const ClusterLog* cluster_log() const { return nullptr; }
  /// Moves the recorded decomposition into `*out` (leaving the live log
  /// empty), so multi-pass drivers can keep the previous pass's log without
  /// an O(V) copy. No-op (and `*out` untouched) when there is no log.
  virtual void TakeClusterLog(ClusterLog* out) { (void)out; }
  /// Installs the previous pass's decomposition for memoized replay of the
  /// pass that just began (call after BeginPass; BeginPass drops any
  /// installed memo). The pass must replay the stream the memo was recorded
  /// from, one unit at a time (GroupPermByUnits). `memo` must outlive the
  /// pass; null disables replay.
  virtual void SetClusterMemo(const ClusterMemo* memo) { (void)memo; }

 protected:
  /// Partition of `w` as seen by placement scores: this pass's placement
  /// when present, else the prior pass's, else -1. With a prior installed
  /// that is one load from the pass's score table (see BeginPass), which
  /// holds exactly this by construction; without one it is this pass's
  /// placement.
  int32_t ScorePartOf(VertexId w) const {
    if (prior_ == nullptr) return assignment_.PartOf(w);
    return w < score_part_.size() ? score_part_[w] : -1;
  }

  /// Assigns `v` to `part` when valid; otherwise (no eligible partition, or
  /// the chosen one is full) falls back to the partition with the most free
  /// capacity, forcing placement past C as a last resort. Never drops a
  /// vertex; every fallback is counted in stats().
  void AssignOrFallback(VertexId v, uint32_t part);

  PartitionerOptions options_;
  PartitionAssignment assignment_;
  PartitionerStats stats_;
  /// Previous restream pass's assignment (not owned); null in pass one.
  const PartitionAssignment* prior_ = nullptr;
  /// While a prior is installed: per id, this pass's partition when placed,
  /// else the prior's, else -1 — what ScorePartOf reads. Seeded from the
  /// prior by BeginPass and written by every AssignOrFallback placement;
  /// empty without a prior.
  std::vector<int32_t> score_part_;
  /// Max placements allowed to leave their prior partition this pass.
  uint64_t migration_budget_ = kUnlimitedMigrationBudget;
  /// Budgeted passes only: per partition, prior members not yet placed this
  /// pass — the home claims the reservation rule protects.
  std::vector<uint32_t> home_claims_;
};

/// Shared LDG placement rule (§4.1): pick argmax_i |edges_i| * (1 - |Vi|/C)
/// over partitions with at least `need` free slots; ties prefer the smaller
/// partition, then the lower index; all-zero scores fall back to the least
/// loaded eligible partition. Returns k (invalid) iff no partition has room.
uint32_t PickLdgPartition(const PartitionAssignment& assignment,
                          const std::vector<uint32_t>& edges_to_partition,
                          size_t need = 1);

/// Weighted LDG variant (paper §5 future work): edge counts are replaced by
/// arbitrary non-negative weights (e.g. traversal probabilities).
uint32_t PickLdgPartitionWeighted(const PartitionAssignment& assignment,
                                  const std::vector<double>& weight_to_partition,
                                  size_t need = 1);

/// Sparse fast path of PickLdgPartitionWeighted for callers that know which
/// partitions hold non-zero weight (`touched`, e.g. from
/// BlockedGainScorer::touched()). When a touched, eligible partition wins
/// with a strictly positive score, no zero-weight partition can beat it and
/// the O(k) scan is skipped; otherwise the decision falls back to the dense
/// rule, so the result is always identical to the dense pick.
uint32_t PickLdgPartitionWeightedSparse(
    const PartitionAssignment& assignment,
    const std::vector<double>& weight_to_partition,
    Span<const uint32_t> touched, size_t need = 1);

}  // namespace loom

#endif  // LOOM_PARTITION_PARTITIONER_H_

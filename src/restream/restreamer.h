#ifndef LOOM_RESTREAM_RESTREAMER_H_
#define LOOM_RESTREAM_RESTREAMER_H_

/// \file
/// Multi-pass restreaming / repartitioning over any StreamingPartitioner —
/// the literature's cure for single-pass fragility and the entry point for
/// adapting a partitioning after workload or graph drift (paper §5 future
/// work). Pass one consumes the recorded stream as-is; every later pass
/// replays the graph with *full* neighbourhoods (the graph is known after
/// pass one) under a pluggable inter-pass ordering, with the previous pass's
/// assignment installed as a scoring prior (ReLDG/ReFennel semantics:
/// balance counts this pass's placements, scores see last pass's
/// neighbourhoods). Prioritized orderings follow Awadelkarim & Ugander,
/// "Prioritized Restreaming Algorithms for Balanced Graph Partitioning"
/// (KDD 2020); the repartitioning framing follows Le Merrer & Liang,
/// "(Re)partitioning for stream-enabled computation" (2013). Running the
/// LOOM partitioner through the same driver restreams whole motif clusters
/// against the prior — the workload-aware mode the paper leaves open.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "partition/partitioner.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"

namespace loom {

/// How passes >= 2 order the replayed vertices.
enum class RestreamOrder {
  /// Replay the pass-one arrival order.
  kOriginal,
  /// Prioritized restreaming: descending gain, where gain(v) = edges to v's
  /// prior partition minus edges to its best alternative. Confidently-placed
  /// vertices stream first and anchor their neighbourhoods.
  kGain,
  /// Descending |gain| — the most *decided* vertices first: strong stayers
  /// anchor their neighbourhoods and strong movers spend the migration
  /// budget before the ambivalent tail can waste it. The right ordering for
  /// budgeted passes, where kGain would queue every mover at the stream
  /// tail in worst-value-first order.
  kDecisive,
};

/// Human-readable ordering name for tables.
std::string RestreamOrderName(RestreamOrder order);

struct RestreamOptions {
  /// Total passes including the initial stream (>= 1). Every run is
  /// anytime: the best-cut assignment so far is the prior of the next pass
  /// and the final result, so the reported partitioning never regresses
  /// below the best pass.
  uint32_t num_passes = 3;
  RestreamOrder order = RestreamOrder::kGain;
  /// Cluster-memoized replay (stream/cluster_log.h): when the partitioner
  /// supports cluster logging (LOOM does), record the unit decomposition of
  /// every pass and feed it to the next as pre-grouped arrivals, so
  /// recalled units skip the window/matcher pipeline and are re-scored
  /// straight off their buffered neighbourhoods. Pass one is untouched.
  /// No-op for partitioners without the logging hook.
  bool memoize_clusters = true;
};

/// Uniform options contract (shared with `DriftControllerOptions` and
/// `ServiceOptions`): every options struct ships a `Validate*Options` that
/// *rejects* — returns InvalidArgument naming the first bad field, mutating
/// nothing — and a `Sanitize*Options` that *clamps* — a total function
/// mapping any input to a safe configuration, always towards the
/// conservative end. Facade entry points (`Service::Create`) validate so
/// callers hear about mistakes; internal constructors sanitize so garbage
/// can never reach the arithmetic.
///
/// Rejects `num_passes == 0`.
Status ValidateRestreamOptions(const RestreamOptions& options);

/// Sanitized copy of `options`: `num_passes` clamped to >= 1. The
/// Restreamer constructor applies this to everything it is given.
RestreamOptions SanitizeRestreamOptions(RestreamOptions options);

/// Move allowance implied by a migration-fraction budget over `prior`:
/// floor(fraction * prior.NumAssigned()), saturating to unlimited for
/// fraction >= 1 and to zero for fraction <= 0 — or NaN, which is invalid
/// input and maps to the conservative end (zero moves), never to
/// unlimited.
uint64_t MigrationBudgetMoves(const PartitionAssignment& prior,
                              double max_migration_fraction);

/// Quality and cost of one restream pass.
struct RestreamPassStats {
  /// 1-based pass number.
  uint32_t pass = 0;
  /// Raw edge-cut fraction of this pass's assignment.
  double edge_cut_fraction = 0.0;
  /// Best edge-cut fraction over passes 1..pass (the anytime trajectory;
  /// non-increasing by construction).
  double best_edge_cut_fraction = 0.0;
  double balance = 0.0;
  /// Fraction of vertices whose partition changed from the previous pass's
  /// prior (0 for pass one) — the data-migration cost of adopting the pass.
  double migration_fraction = 0.0;
  /// Capacity-pressure counters from PartitionerStats, per pass: a non-zero
  /// value means placements were re-routed (or forced past C) because
  /// partitions filled up — quality numbers under pressure are suspect, so
  /// benches assert these stay zero during budgeted migration.
  uint64_t overflow_fallbacks = 0;
  uint64_t forced_placements = 0;
  /// Non-capacity Assign failures (always a logic error; see
  /// PartitionerStats::assign_errors). Surfaced per pass so Release-mode
  /// drivers can fail loudly instead of reading a silently-wrong cut.
  uint64_t assign_errors = 0;
  /// Would-be moves clamped back to the prior partition by the migration
  /// budget (0 on unbudgeted passes).
  uint64_t budget_denied_moves = 0;
  double seconds = 0.0;
};

/// Outcome of a full restream run.
struct RestreamResult {
  std::vector<RestreamPassStats> passes;
  /// Final assignment: the best-cut pass (the later one on a tie).
  PartitionAssignment assignment{1, 0};
  /// Edge-cut fraction of `assignment`.
  double edge_cut_fraction = 0.0;
};

/// Replays a recorded stream for N passes over one partitioner.
///
/// Every pass reads one ReplaySource (stream/arrival_source.h) through one
/// borrowing cursor, whichever backing holds the stream:
///
///  * an in-memory GraphStream (which must outlive the Restreamer), wrapped
///    in a StreamReplay whose full neighbourhoods come from one
///    GraphFromStream rebuild at construction;
///  * an mmap-ed FileArrivalSource written with full neighbourhoods, read
///    straight out of the mapping. Passes keep O(V) memory (ordering keys,
///    permutation, vertex index — never the edges).
///
/// Pass one streams the arrivals in order with their back edges; later
/// passes replay full neighbourhoods in the prioritized order, located
/// through a vertex -> arrival index built on the first replay. That order
/// is random, so the replay cursor looks ahead: it warms the index entry,
/// record and edges of arrivals a few positions past its own through
/// ReplaySource::Prefetch, and the partitioner scores off one table per
/// pass (StreamingPartitioner::BeginPass). Neither moves a placement. Only
/// ReplayStream materialises a stream (`materializations()`).
class Restreamer {
 public:
  /// Replays `stream`, which is borrowed (must outlive the Restreamer); its
  /// adjacency is rebuilt once, here.
  Restreamer(const GraphStream& stream, const RestreamOptions& options);

  /// Replays `file`, which is borrowed (must outlive the Restreamer; its
  /// own cursor is not used). The file must carry full neighbourhoods
  /// (`info().has_full_neighborhoods`) — replay passes need them.
  Restreamer(FileArrivalSource* file, const RestreamOptions& options);

  /// Runs `options.num_passes` passes of `partitioner` (reset via BeginPass,
  /// so a used partitioner is fine). After the call the partitioner holds
  /// the *last* pass's assignment; the returned result holds the final one.
  RestreamResult Run(StreamingPartitioner* partitioner) const;

  /// One bounded-migration pass against an externally-supplied prior —
  /// typically the *live* assignment, which is what turns a restream pass
  /// into an incremental drift reaction. Replays the stream under
  /// `options.order` with `prior` installed as the scoring prior and at most
  /// `max_moves` placements allowed to leave their prior partition
  /// (kUnlimitedMoves disables the cap). After the call the partitioner
  /// holds the resulting assignment and its prior is cleared. The returned
  /// stats carry pass = 1 and best = raw cut; callers chaining passes
  /// renumber and fold them.
  RestreamPassStats RunIncrementalPass(StreamingPartitioner* partitioner,
                                       const PartitionAssignment& prior,
                                       uint64_t max_moves) const;

  /// `max_moves` value that disables the migration cap.
  static constexpr uint64_t kUnlimitedMoves =
      StreamingPartitioner::kUnlimitedMigrationBudget;

  /// The pass >= 2 stream for `order` given a prior assignment: arrivals in
  /// prioritized order, each carrying its full neighbourhood, materialised
  /// into an owned GraphStream (counted by `materializations()`). Exposed
  /// for tests and for drivers that schedule passes themselves — the passes
  /// run here replay through a borrowing cursor instead.
  GraphStream ReplayStream(RestreamOrder order,
                           const PartitionAssignment& prior) const;

  /// Edge-cut fraction of `a` over the recorded stream: one sweep of every
  /// arrival's back edges, so each edge counts once.
  double CutFraction(const PartitionAssignment& a) const;

  /// How many times this Restreamer has built O(E) neighbourhood state: the
  /// construction-time GraphFromStream (in-memory backing) plus one per
  /// ReplayStream call. Passes replay through a borrowing cursor, so a
  /// 3-pass Run() reports exactly 1 for a GraphStream and 0 for a file —
  /// the guard against a per-pass copy of the stream.
  uint64_t materializations() const { return materializations_; }

 private:
  /// The vertex permutation for a pass >= 2.
  std::vector<VertexId> PassOrder(RestreamOrder order,
                                  const PartitionAssignment& prior) const;

  /// Arrival index of each vertex id, the last arrival of an id winning;
  /// built lazily on the first replay pass (O(id bound) once, then reused
  /// by every pass).
  const std::vector<uint32_t>& IndexOfVertex() const;

  /// Runs `partitioner` over the source: arrival order with back edges when
  /// `perm` is null, else `perm`'s vertices with full neighbourhoods.
  void Replay(StreamingPartitioner* partitioner,
              const std::vector<VertexId>* perm) const;

  /// Owns the in-memory backing; null when replaying a file.
  std::unique_ptr<StreamReplay> memory_;
  const ReplaySource* source_;
  RestreamOptions options_;
  /// O(E) neighbourhood-state builds so far (see materializations()).
  mutable uint64_t materializations_ = 0;
  /// Lazy cache behind IndexOfVertex().
  mutable std::vector<uint32_t> index_of_vertex_;
};

}  // namespace loom

#endif  // LOOM_RESTREAM_RESTREAMER_H_

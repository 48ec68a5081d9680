#include "restream/restreamer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "stream/cluster_log.h"

namespace loom {

std::string RestreamOrderName(RestreamOrder order) {
  switch (order) {
    case RestreamOrder::kOriginal:
      return "original";
    case RestreamOrder::kGain:
      return "gain";
    case RestreamOrder::kDecisive:
      return "decisive";
  }
  return "unknown";
}

Status ValidateRestreamOptions(const RestreamOptions& options) {
  if (options.num_passes == 0) {
    return Status::InvalidArgument("RestreamOptions.num_passes must be >= 1");
  }
  return Status::OK();
}

RestreamOptions SanitizeRestreamOptions(RestreamOptions options) {
  if (options.num_passes < 1) options.num_passes = 1;
  return options;
}

uint64_t MigrationBudgetMoves(const PartitionAssignment& prior,
                              double max_migration_fraction) {
  // NaN fails every comparison: without the explicit test it would fall
  // through to the cast below (undefined behaviour). Invalid input maps to
  // the conservative end — zero moves — never to an unbudgeted pass.
  if (std::isnan(max_migration_fraction)) return 0;
  if (max_migration_fraction >= 1.0) return Restreamer::kUnlimitedMoves;
  if (max_migration_fraction <= 0.0) return 0;
  return static_cast<uint64_t>(max_migration_fraction *
                               static_cast<double>(prior.NumAssigned()));
}

Restreamer::Restreamer(const GraphStream& stream,
                       const RestreamOptions& options)
    : memory_(std::make_unique<StreamReplay>(stream)),
      source_(memory_.get()),
      options_(SanitizeRestreamOptions(options)),
      materializations_(1) {}  // the construction-time GraphFromStream

Restreamer::Restreamer(FileArrivalSource* file, const RestreamOptions& options)
    : source_(file), options_(SanitizeRestreamOptions(options)) {
  assert(file != nullptr);
  assert(file->info().has_full_neighborhoods &&
         "out-of-core restreaming needs a full-neighbourhood stream file");
}

namespace {

// The one borrowing cursor over a ReplaySource, owning its own position so
// drivers never fight over a file's cursor. With no permutation it yields
// the arrivals in order with their back edges: pass one, and the sweep
// behind the cut. With a permutation it yields `perm`'s vertices in that
// order with their full neighbourhoods, located through the vertex ->
// arrival index: passes >= 2.
//
// A permutation reads the source in random order, so each arrival would
// stall on its index entry, then its record, then its edges. The cursor
// therefore looks ahead: it warms the index entry kLookAhead * 4 arrivals
// ahead, the record kLookAhead * 2 ahead and the edges kLookAhead ahead, so
// each load has been in flight for a few arrivals when it is needed. The
// in-order sweeps read sequentially and get no hints.
class ReplayCursor final : public ArrivalSource {
 public:
  explicit ReplayCursor(const ReplaySource& source)
      : source_(&source), size_(source.NumVertices()) {}
  ReplayCursor(const ReplaySource& source, const std::vector<VertexId>& perm,
               const std::vector<uint32_t>& index_of_vertex)
      : source_(&source),
        perm_(&perm),
        index_of_vertex_(&index_of_vertex),
        size_(perm.size()) {}

  bool Next(ArrivalView* out) override {
    if (pos_ >= size_) return false;
    if (perm_ == nullptr) {
      const ReplaySource::Record record = source_->At(pos_++);
      out->vertex = record.vertex;
      out->label = record.label;
      out->back_edges = record.back_edges;
      return true;
    }
    WarmAhead();
    const ReplaySource::Record record = source_->At(IndexAt(pos_++));
    out->vertex = record.vertex;
    out->label = record.label;
    out->back_edges = record.full_edges;
    return true;
  }
  void Reset() override { pos_ = 0; }
  uint64_t NumVertices() const override { return size_; }
  uint64_t NumEdges() const override { return source_->NumEdges(); }

 private:
  // Arrivals between the edge hint and the read; the record and index hints
  // run 2x and 4x as far ahead. Tuned on a 500k-vertex replay.
  static constexpr uint64_t kLookAhead = 8;

  // Arrival index of the permutation's `pos`-th vertex.
  uint64_t IndexAt(uint64_t pos) const {
    return (*index_of_vertex_)[(*perm_)[pos]];
  }

  void WarmAhead() const {
    if (pos_ + 4 * kLookAhead < size_) {
      __builtin_prefetch(index_of_vertex_->data() +
                         (*perm_)[pos_ + 4 * kLookAhead]);
    }
    if (pos_ + 2 * kLookAhead < size_) {
      source_->Prefetch(IndexAt(pos_ + 2 * kLookAhead),
                        ReplaySource::Warm::kRecord);
    }
    if (pos_ + kLookAhead < size_) {
      source_->Prefetch(IndexAt(pos_ + kLookAhead),
                        ReplaySource::Warm::kEdges);
    }
  }

  const ReplaySource* source_;
  const std::vector<VertexId>* perm_ = nullptr;
  const std::vector<uint32_t>* index_of_vertex_ = nullptr;
  uint64_t size_;
  uint64_t pos_ = 0;
};

// Reorders `perm` by (key, id) ascending — the order of a comparison sort
// with the id tie-break, in O(n + id bound + key span). The gain keys are
// integers in [-deg, deg], so each key value gets one bucket, and a sweep
// of the ids in ascending order fills every bucket in id order.
void SortByKeyThenId(const std::vector<int64_t>& key,
                     std::vector<VertexId>* perm) {
  if (perm->empty()) return;
  int64_t lo = key[perm->front()];
  int64_t hi = lo;
  for (const VertexId v : *perm) {
    lo = std::min(lo, key[v]);
    hi = std::max(hi, key[v]);
  }
  // next[b]: output slot of the next id in bucket b. A vertex listed twice
  // in `perm` is emitted twice, as the comparison sort would; an id not in
  // `perm` (its key may lie outside [lo, hi]) is skipped. The sweep reads
  // only the counts, so it can overwrite `perm` in place.
  std::vector<size_t> next(static_cast<size_t>(hi - lo) + 2, 0);
  std::vector<uint32_t> multiplicity(key.size(), 0);
  for (const VertexId v : *perm) {
    ++multiplicity[v];
    ++next[static_cast<size_t>(key[v] - lo) + 1];
  }
  for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  for (size_t v = 0; v < key.size(); ++v) {
    if (multiplicity[v] == 0) continue;
    size_t& slot = next[static_cast<size_t>(key[v] - lo)];
    for (uint32_t c = 0; c < multiplicity[v]; ++c) {
      (*perm)[slot++] = static_cast<VertexId>(v);
    }
  }
}

}  // namespace

std::vector<VertexId> Restreamer::PassOrder(
    RestreamOrder order, const PartitionAssignment& prior) const {
  const uint64_t n = source_->NumVertices();
  std::vector<VertexId> perm;
  perm.reserve(n);
  if (order == RestreamOrder::kOriginal) {
    for (uint64_t i = 0; i < n; ++i) perm.push_back(source_->At(i).vertex);
    return perm;
  }

  // Prioritized restreaming: gain(v) = edges to v's prior partition minus
  // edges to its best alternative, over the full (known) neighbourhood.
  const uint32_t k = prior.k();
  const auto gain_key = [order](int64_t gain) -> int64_t {
    // Sort key ascending: descending gain (kGain) or descending
    // decisiveness, |gain| (kDecisive).
    if (order == RestreamOrder::kGain) return -gain;
    return gain < 0 ? gain : -gain;
  };
  const auto scored_gain = [&prior, k](VertexId v,
                                       Span<const VertexId> neighbors,
                                       std::vector<uint32_t>& counts) {
    std::fill(counts.begin(), counts.end(), 0);
    for (const VertexId w : neighbors) {
      const int32_t p = prior.PartOf(w);
      if (p >= 0) ++counts[static_cast<uint32_t>(p)];
    }
    const int32_t home = prior.PartOf(v);
    uint32_t stay = 0;
    uint32_t best_other = 0;
    for (uint32_t p = 0; p < k; ++p) {
      if (static_cast<int32_t>(p) == home) {
        stay = counts[p];
      } else {
        best_other = std::max(best_other, counts[p]);
      }
    }
    return static_cast<int64_t>(stay) - static_cast<int64_t>(best_other);
  };

  // One sequential sweep of the full neighbourhoods lists the ids and their
  // keys; O(V) keys and O(k) scratch, never the adjacency. The sort reads
  // only which ids `perm` holds, not their order.
  std::vector<int64_t> key(source_->IdBound(), 0);
  std::vector<uint32_t> counts(k, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const ReplaySource::Record record = source_->At(i);
    perm.push_back(record.vertex);
    key[record.vertex] =
        gain_key(scored_gain(record.vertex, record.full_edges, counts));
  }
  SortByKeyThenId(key, &perm);
  return perm;
}

const std::vector<uint32_t>& Restreamer::IndexOfVertex() const {
  if (index_of_vertex_.empty() && source_->NumVertices() > 0) {
    index_of_vertex_.assign(source_->IdBound(), ~uint32_t{0});
    for (uint64_t i = 0; i < source_->NumVertices(); ++i) {
      index_of_vertex_[source_->At(i).vertex] = static_cast<uint32_t>(i);
    }
  }
  return index_of_vertex_;
}

void Restreamer::Replay(StreamingPartitioner* partitioner,
                        const std::vector<VertexId>* perm) const {
  ReplayCursor cursor = perm == nullptr
                            ? ReplayCursor(*source_)
                            : ReplayCursor(*source_, *perm, IndexOfVertex());
  partitioner->Run(cursor);
}

double Restreamer::CutFraction(const PartitionAssignment& a) const {
  ReplayCursor cursor(*source_);
  return EdgeCutFraction(cursor, a);
}

GraphStream Restreamer::ReplayStream(RestreamOrder order,
                                     const PartitionAssignment& prior) const {
  // Restream passes know the whole graph: each arrival carries the full
  // neighbourhood, and scores fall through to the prior for neighbours not
  // yet re-assigned this pass.
  const std::vector<VertexId> perm = PassOrder(order, prior);
  ReplayCursor cursor(*source_, perm, IndexOfVertex());
  ++materializations_;
  return MaterializeStream(cursor);
}

RestreamPassStats Restreamer::RunIncrementalPass(
    StreamingPartitioner* partitioner, const PartitionAssignment& prior,
    uint64_t max_moves) const {
  WallTimer timer;
  // The replay ordering is part of the reaction latency: an incremental pass
  // is judged end-to-end, ordering included. The replay itself goes through
  // the borrowing cursor — no stream copy.
  const std::vector<VertexId> perm = PassOrder(options_.order, prior);
  partitioner->BeginPass(&prior);
  partitioner->SetMigrationBudget(max_moves);
  Replay(partitioner, &perm);
  partitioner->ClearPrior();

  RestreamPassStats s;
  s.pass = 1;
  s.seconds = timer.ElapsedSeconds();
  s.edge_cut_fraction = CutFraction(partitioner->assignment());
  s.best_edge_cut_fraction = s.edge_cut_fraction;
  s.balance = BalanceMaxOverAvg(partitioner->assignment());
  s.migration_fraction = MigrationFraction(prior, partitioner->assignment());
  s.overflow_fallbacks = partitioner->stats().overflow_fallbacks;
  s.forced_placements = partitioner->stats().forced_placements;
  s.assign_errors = partitioner->stats().assign_errors;
  s.budget_denied_moves = partitioner->stats().budget_denied_moves;
  return s;
}

RestreamResult Restreamer::Run(StreamingPartitioner* partitioner) const {
  RestreamResult result;

  PartitionAssignment prior{1, 0};
  PartitionAssignment best{1, 0};
  double best_cut = std::numeric_limits<double>::infinity();

  const uint32_t passes = options_.num_passes;  // >= 1: sanitized
  // Cluster memoization: ask the partitioner to log its unit decomposition;
  // partitioners without the hook return no log and the whole feature
  // degrades to a no-op. Logging stays off for single-pass runs — the hot
  // path pays nothing.
  const bool want_memo = options_.memoize_clusters && passes > 1;
  if (want_memo) partitioner->SetClusterLogging(true);
  const bool memoize = want_memo && partitioner->cluster_log() != nullptr;
  // The previous pass's log (copied out before BeginPass resets the live
  // one) and the memo over it; both must outlive the pass that replays them.
  ClusterLog prev_log;
  ClusterMemo memo;

  for (uint32_t pass = 1; pass <= passes; ++pass) {
    std::vector<VertexId> perm;
    if (pass == 1) {
      partitioner->BeginPass(nullptr);
    } else {
      perm = PassOrder(options_.order, prior);
      if (memoize) {
        partitioner->TakeClusterLog(&prev_log);
        // The final pass's log has no consumer — skip recording it, which
        // keeps the peak at one retained log plus one being recorded.
        partitioner->SetClusterLogging(pass < passes);
      }
      partitioner->BeginPass(&prior);
      if (memoize && prev_log.NumUnits() > 0) {
        memo = ClusterMemo(&prev_log);
        // The memo contract: replay the stream it was recorded from (this
        // run's one source_), one unit at a time. Hoisting each recalled
        // unit's members to its first member's position makes the unit
        // arrive contiguously, to be scored as one buffered group.
        perm = GroupPermByUnits(perm, memo);
        partitioner->SetClusterMemo(&memo);
      }
    }

    WallTimer timer;
    // Pass one streams the recorded arrivals (back edges only); later
    // passes replay full neighbourhoods — no per-pass stream copy.
    Replay(partitioner, pass == 1 ? nullptr : &perm);

    RestreamPassStats s;
    s.pass = pass;
    s.seconds = timer.ElapsedSeconds();
    s.edge_cut_fraction = CutFraction(partitioner->assignment());
    s.balance = BalanceMaxOverAvg(partitioner->assignment());
    s.migration_fraction =
        pass == 1 ? 0.0 : MigrationFraction(prior, partitioner->assignment());
    s.overflow_fallbacks = partitioner->stats().overflow_fallbacks;
    s.forced_placements = partitioner->stats().forced_placements;
    s.assign_errors = partitioner->stats().assign_errors;
    s.budget_denied_moves = partitioner->stats().budget_denied_moves;

    if (s.edge_cut_fraction <= best_cut) {
      best_cut = s.edge_cut_fraction;
      best = partitioner->assignment();
    }
    s.best_edge_cut_fraction = best_cut;
    result.passes.push_back(s);

    prior = best;
  }
  // `prior`, `prev_log` and `memo` die with this call; the partitioner must
  // not keep pointing at any of them, and logging is switched back off so
  // later single-pass uses pay nothing.
  partitioner->SetClusterMemo(nullptr);
  if (want_memo) partitioner->SetClusterLogging(false);
  partitioner->ClearPrior();

  result.assignment = best;
  result.edge_cut_fraction = best_cut;
  return result;
}

}  // namespace loom

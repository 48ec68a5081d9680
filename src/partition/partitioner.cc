#include "partition/partitioner.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace loom {

size_t ComputeCapacity(uint32_t k, size_t num_vertices, double slack) {
  if (num_vertices == 0) return 0;  // unconstrained when n is unknown
  const double per_part = std::ceil(
      slack * static_cast<double>(num_vertices) / static_cast<double>(k));
  // Casting NaN, a negative or a value past the range is undefined; only
  // those are clamped, so every representable capacity is unchanged.
  if (!(per_part >= 1.0)) return 1;
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  if (per_part >= static_cast<double>(kMax)) return kMax;
  return static_cast<size_t>(per_part);
}

bool IsValidSlack(double slack) {
  return std::isfinite(slack) && slack >= 1.0;
}

Status ValidatePartitionerOptions(const PartitionerOptions& options) {
  if (options.k == 0) {
    return Status::InvalidArgument("PartitionerOptions.k must be >= 1");
  }
  if (!IsValidSlack(options.capacity_slack)) {
    return Status::InvalidArgument(
        "PartitionerOptions.capacity_slack must be finite and >= 1.0");
  }
  return Status::OK();
}

void StreamingPartitioner::Run(ArrivalSource& source) {
  ArrivalView arrival;
  while (source.Next(&arrival)) {
    if (MigrationBudgetExhausted()) {
      // Every further placement is clamped to the prior partition anyway;
      // skip scoring (and any window/matcher work) for the rest of the pass.
      const int32_t home = prior_->PartOf(arrival.vertex);
      if (home >= 0) {
        AssignOrFallback(arrival.vertex, static_cast<uint32_t>(home));
        continue;
      }
    }
    if (prior_ != nullptr) {
      // A replay pass visits ids in random order, so the neighbours' score
      // rows are cold; start their loads before OnVertex scores them.
      const int32_t* rows = score_part_.data();
      for (const VertexId w : arrival.back_edges) {
        if (w < score_part_.size()) __builtin_prefetch(rows + w);
      }
    }
    OnVertex(arrival.vertex, arrival.label, arrival.back_edges);
  }
  Finish();
}

void StreamingPartitioner::Run(const GraphStream& stream) {
  StreamCursor cursor(stream);
  Run(cursor);
}

void StreamingPartitioner::BeginPass(const PartitionAssignment* prior) {
  assert(prior != &assignment_ && "prior must not alias the live assignment");
  assert((prior == nullptr || prior->k() == options_.k) &&
         "prior partition count must match the partitioner's k");
  // A prior with a different k would leak partition indices >= k into the
  // scoring scratch arrays; ignore it rather than corrupt memory in Release.
  if (prior != nullptr && prior->k() != options_.k) prior = nullptr;
  assignment_ = PartitionAssignment(
      options_.k, ComputeCapacity(options_.k, options_.num_vertices_hint,
                                  options_.capacity_slack));
  stats_ = PartitionerStats();
  ClearPrior();
  if (prior != nullptr) {
    prior_ = prior;
    const Span<const int32_t> table = prior->PartTable();
    score_part_.assign(table.begin(), table.end());
  }
  migration_budget_ = kUnlimitedMigrationBudget;
  home_claims_.clear();
}

void StreamingPartitioner::SetMigrationBudget(uint64_t max_moves) {
  migration_budget_ = max_moves;
  home_claims_.clear();
  if (prior_ != nullptr && max_moves != kUnlimitedMigrationBudget) {
    home_claims_.assign(prior_->Sizes().begin(), prior_->Sizes().end());
  }
}

void StreamingPartitioner::AdoptAssignment(PartitionAssignment assignment,
                                           const PartitionerStats& stats) {
  assignment_ = std::move(assignment);
  stats_ = stats;
  ClearPrior();
  migration_budget_ = kUnlimitedMigrationBudget;
  home_claims_.clear();
}

void StreamingPartitioner::AssignOrFallback(VertexId v, uint32_t part) {
  const int32_t home = prior_ != nullptr ? prior_->PartOf(v) : -1;
  const bool budgeted =
      home >= 0 && migration_budget_ != kUnlimitedMigrationBudget;
  if (budgeted) {
    const uint32_t h = static_cast<uint32_t>(home);
    if (part >= assignment_.k()) {
      // Heuristic found no eligible partition: in a budgeted pass the
      // natural fallback is the vertex's reserved home slot.
      ++stats_.overflow_fallbacks;
      part = h;
    } else if (part != h) {
      // A move must fit the budget AND leave the target partition enough
      // free capacity for its outstanding home claims; otherwise every
      // stayer's guaranteed slot (the induction behind the strict cap)
      // would erode. FreeCapacity is SIZE_MAX when unconstrained, which
      // never denies.
      bool deny = stats_.prior_moves >= migration_budget_;
      if (!deny && assignment_.FreeCapacity(part) <= home_claims_[part]) {
        deny = true;
      }
      if (deny) {
        ++stats_.budget_denied_moves;
        part = h;
      }
    }
  }

  uint32_t placed = part;
  bool assigned = false;
  if (part < assignment_.k()) {
    const Status s = assignment_.Assign(v, part);
    if (s.ok()) {
      assigned = true;
    } else if (s.code() != StatusCode::kCapacityExceeded) {
      ++stats_.assign_errors;
      assert(false && "non-capacity Assign error in streaming partitioner");
      return;
    }
  }
  if (!assigned) {
    // No eligible partition (or the chosen one filled up between scoring and
    // assignment): most free capacity wins, least loaded on ties.
    ++stats_.overflow_fallbacks;
    const uint32_t fallback = assignment_.MostFreePartition();
    Status s = assignment_.Assign(v, fallback);
    if (!s.ok() && s.code() == StatusCode::kCapacityExceeded) {
      // Every partition is at C: the stream exceeds k*C vertices. Stretch
      // the bound rather than dropping the vertex.
      ++stats_.forced_placements;
      s = assignment_.ForceAssign(v, fallback);
    }
    if (!s.ok()) {
      ++stats_.assign_errors;
      assert(false && "unrecoverable Assign error in streaming partitioner");
      return;
    }
    placed = fallback;
  }
  if (prior_ != nullptr) {
    if (v >= score_part_.size()) score_part_.resize(v + 1, -1);
    score_part_[v] = static_cast<int32_t>(placed);
  }
  if (home >= 0) {
    if (placed != static_cast<uint32_t>(home)) ++stats_.prior_moves;
    // Either way the vertex's home claim is settled.
    if (budgeted && home_claims_[static_cast<uint32_t>(home)] > 0) {
      --home_claims_[static_cast<uint32_t>(home)];
    }
  }
}

uint32_t PickLdgPartition(const PartitionAssignment& assignment,
                          const std::vector<uint32_t>& edges_to_partition,
                          size_t need) {
  std::vector<double> weights(edges_to_partition.begin(),
                              edges_to_partition.end());
  return PickLdgPartitionWeighted(assignment, weights, need);
}

uint32_t PickLdgPartitionWeighted(
    const PartitionAssignment& assignment,
    const std::vector<double>& weight_to_partition, size_t need) {
  const uint32_t k = assignment.k();
  const double capacity =
      assignment.capacity() == 0
          ? static_cast<double>(assignment.NumAssigned() + need) * 2.0
          : static_cast<double>(assignment.capacity());

  uint32_t best = k;
  double best_score = -1.0;
  for (uint32_t p = 0; p < k; ++p) {
    if (assignment.FreeCapacity(p) < need) continue;
    const double penalty =
        1.0 - static_cast<double>(assignment.Sizes()[p]) / capacity;
    const double score = weight_to_partition[p] * penalty;
    const bool better =
        best == k || score > best_score ||
        (score == best_score &&
         assignment.Sizes()[p] < assignment.Sizes()[best]);
    if (better) {
      best = p;
      best_score = score;
    }
  }
  return best;
}

uint32_t PickLdgPartitionWeightedSparse(
    const PartitionAssignment& assignment,
    const std::vector<double>& weight_to_partition,
    Span<const uint32_t> touched, size_t need) {
  const uint32_t k = assignment.k();
  const double capacity =
      assignment.capacity() == 0
          ? static_cast<double>(assignment.NumAssigned() + need) * 2.0
          : static_cast<double>(assignment.capacity());

  // `touched` arrives in first-touch order, not index order, so the dense
  // scan's implicit lowest-index tie preference must be spelled out.
  uint32_t best = k;
  double best_score = -1.0;
  for (const uint32_t p : touched) {
    if (assignment.FreeCapacity(p) < need) continue;
    const double penalty =
        1.0 - static_cast<double>(assignment.Sizes()[p]) / capacity;
    const double score = weight_to_partition[p] * penalty;
    const bool better =
        best == k || score > best_score ||
        (score == best_score &&
         (assignment.Sizes()[p] < assignment.Sizes()[best] ||
          (assignment.Sizes()[p] == assignment.Sizes()[best] && p < best)));
    if (better) {
      best = p;
      best_score = score;
    }
  }
  // A strictly positive winner beats every untouched partition (their weight
  // is zero, so their score is zero at best). Anything else — no eligible
  // touched partition, or an all-zero-score round where the least-loaded
  // eligible partition should win — needs the dense rule.
  if (best < k && best_score > 0.0) return best;
  return PickLdgPartitionWeighted(assignment, weight_to_partition, need);
}

}  // namespace loom

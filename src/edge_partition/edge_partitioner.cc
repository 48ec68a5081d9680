#include "edge_partition/edge_partitioner.h"

#include <algorithm>
#include <cmath>

#include "edge_partition/dbh_partitioner.h"
#include "edge_partition/hdrf_partitioner.h"
#include "partition/partitioner.h"

namespace loom {

Status ValidateEdgePartitionerOptions(const EdgePartitionerOptions& options) {
  if (options.k == 0) {
    return Status::InvalidArgument("EdgePartitionerOptions.k must be >= 1");
  }
  if (std::isnan(options.lambda) || options.lambda < 0.0) {
    return Status::InvalidArgument(
        "EdgePartitionerOptions.lambda must be >= 0");
  }
  if (!IsValidSlack(options.balance_slack)) {
    return Status::InvalidArgument(
        "EdgePartitionerOptions.balance_slack must be finite and >= 1.0");
  }
  if (std::isnan(options.heat_weight) || options.heat_weight < 0.0) {
    return Status::InvalidArgument(
        "EdgePartitionerOptions.heat_weight must be >= 0");
  }
  if (options.max_partitions_per_vertex == 1 && options.k > 1) {
    return Status::InvalidArgument(
        "EdgePartitionerOptions.max_partitions_per_vertex of 1 pins every "
        "vertex to one partition; use >= 2 (or 0 = unbounded)");
  }
  return Status::OK();
}

EdgePartitionerOptions SanitizeEdgePartitionerOptions(
    EdgePartitionerOptions options) {
  if (options.k == 0) options.k = 1;
  if (std::isnan(options.lambda) || options.lambda < 0.0) {
    options.lambda = 0.0;
  }
  if (!IsValidSlack(options.balance_slack)) options.balance_slack = 1.0;
  if (std::isnan(options.heat_weight) || options.heat_weight < 0.0) {
    options.heat_weight = 0.0;
  }
  if (options.max_partitions_per_vertex > options.k) {
    options.max_partitions_per_vertex = options.k;
  }
  if (options.max_partitions_per_vertex == 1 && options.k > 1) {
    options.max_partitions_per_vertex = 2;
  }
  return options;
}

uint64_t ComputeEdgeCapacity(uint32_t k, uint64_t num_edges, double slack) {
  // The vertex capacity formula, counted in edges.
  return ComputeCapacity(k == 0 ? 1 : k, num_edges, slack);
}

EdgePartitioner::EdgePartitioner(const EdgePartitionerOptions& options)
    : options_(SanitizeEdgePartitionerOptions(options)),
      edge_counts_(options_.k, 0),
      edge_capacity_(ComputeEdgeCapacity(options_.k, options_.num_edges_hint,
                                         options_.balance_slack)),
      replica_cap_(options_.max_partitions_per_vertex == 0
                       ? options_.k
                       : options_.max_partitions_per_vertex),
      has_heat_(static_cast<bool>(options_.heat) &&
                options_.heat_weight != 0.0) {
  if (options_.num_vertices_hint > 0) {
    degree_.reserve(options_.num_vertices_hint);
    if (has_heat_) heat_scale_.reserve(options_.num_vertices_hint);
  }
  RebuildLoadBounds();
}

void EdgePartitioner::Run(ArrivalSource& source) {
  ArrivalView view;
  while (source.Next(&view)) OnArrival(view);
}

void EdgePartitioner::OnArrival(const ArrivalView& view) {
  if (view.vertex == kInvalidVertex) return;
  GrowTables(view.vertex);
  RefreshHeatScale(view.vertex, view.label);
  // Every edge reads its neighbour's degree and replica mask, rows of
  // vertices that arrived anywhere earlier; start all of their loads before
  // the first edge is placed.
  for (const VertexId neighbor : view.back_edges) {
    if (neighbor < degree_.size()) {
      __builtin_prefetch(degree_.data() + neighbor);
    }
    replicas_.PrefetchMask(neighbor);
  }
  for (const VertexId neighbor : view.back_edges) {
    OnEdge(view.vertex, neighbor);
  }
}

uint32_t EdgePartitioner::OnEdge(VertexId u, VertexId v) {
  // An invalid endpoint names no vertex: place nothing, so the placement
  // log holds valid edges only and stays aligned across passes.
  if (u == kInvalidVertex || v == kInvalidVertex) return options_.k;
  GrowTables(std::max(u, v));
  // The HDRF/DBH convention: the edge counts towards both partial degrees
  // before the placement rule sees them, so the very first edge already has
  // degree-1 endpoints and θ is well defined.
  ++degree_[u];
  ++degree_[v];

  uint32_t pick = PickPartition(u, v);
  if (pick >= options_.k) {
    // A placement rule returning an out-of-range partition is a logic
    // error; re-route instead of corrupting the counts, and surface it.
    ++stats_.assign_errors;
    pick = static_cast<uint32_t>(
        std::min_element(edge_counts_.begin(), edge_counts_.end()) -
        edge_counts_.begin());
  }

  replicas_.Add(u, pick);
  replicas_.Add(v, pick);
  ++edge_counts_[pick];
  NoteEdgeCountIncrement(pick);
  ++stats_.edges_assigned;
  if (options_.record_placements) {
    placements_.push_back(pick);
  }
  return pick;
}

void EdgePartitioner::BeginPass() {
  // A restream pass re-streams the same vertex population: clearing in
  // place keeps the replica rows, so the pass allocates nothing for them.
  replicas_.Clear();
  std::fill(edge_counts_.begin(), edge_counts_.end(), 0);
  placements_.clear();
  stats_ = EdgePartitionerStats();
  RebuildLoadBounds();
}

void EdgePartitioner::Reset() {
  BeginPass();
  degree_.clear();
  heat_scale_.clear();
}

void EdgePartitioner::NoteEdgeCountIncrement(uint32_t p) {
  const uint64_t count = edge_counts_[p];
  if (count > max_load_) max_load_ = count;
  if (count - 1 == min_load_ && --num_at_min_ == 0) {
    // The partition leaving the minimum sits at exactly min + 1, and every
    // other count already exceeded the old min, so min + 1 is the new
    // minimum and the recount always finds it populated. The min rises at
    // most once per placed edge, so the O(k) recount is amortized O(1).
    ++min_load_;
    for (const uint64_t c : edge_counts_) {
      num_at_min_ += static_cast<uint32_t>(c == min_load_);
    }
  }
  if (edge_capacity_ != 0 && count >= edge_capacity_) {
    full_words_[p >> 6] |= uint64_t{1} << (p & 63);
  }
}

void EdgePartitioner::RebuildLoadBounds() {
  max_load_ = 0;
  min_load_ = ~uint64_t{0};
  for (const uint64_t c : edge_counts_) {
    if (c > max_load_) max_load_ = c;
    if (c < min_load_) min_load_ = c;
  }
  num_at_min_ = 0;
  for (const uint64_t c : edge_counts_) {
    num_at_min_ += static_cast<uint32_t>(c == min_load_);
  }
  full_words_.assign((options_.k + 63) / 64, 0);
  for (uint32_t p = 0; p < options_.k; ++p) {
    if (AtEdgeCapacity(p)) full_words_[p >> 6] |= uint64_t{1} << (p & 63);
  }
}

bool EdgePartitioner::Eligible(VertexId u, VertexId v, uint32_t p) const {
  return !AtEdgeCapacity(p) && WithinReplicaBudget(u, p) &&
         WithinReplicaBudget(v, p);
}

uint32_t EdgePartitioner::FallbackPartition(VertexId u, VertexId v) {
  // Preference 1: least-loaded partition both replica budgets allow, even
  // past the edge budget (stretching the balance bound beats spending
  // replica budget the scoring refused to spend).
  uint32_t best = options_.k;
  for (uint32_t p = 0; p < options_.k; ++p) {
    if (!WithinReplicaBudget(u, p) || !WithinReplicaBudget(v, p)) continue;
    if (best == options_.k || edge_counts_[p] < edge_counts_[best]) best = p;
  }
  if (best != options_.k) {
    ++stats_.overflow_fallbacks;
    return best;
  }
  // Preference 2: both endpoints capped with disjoint sets — the cap must
  // give way (the edge has to live somewhere). Least-loaded partition
  // already holding *either* endpoint, so exactly one endpoint gains a
  // replica past its budget (anywhere else would push both). Note the cap
  // can only bind this way when 2 * cap <= k: with cap > k/2 the two full
  // sets must intersect and preference 1 always finds a partition — the
  // regime the property tests pin.
  ++stats_.cap_relaxations;
  best = options_.k;
  for (uint32_t w = 0; w < replicas_.words_per_vertex(); ++w) {
    // mask(u) | mask(v) in ascending index order with a strict < keeps the
    // canonical least-loaded-then-lowest-index pick (the differential
    // oracle re-derives it from sorted sets).
    uint64_t held = replicas_.MaskWordOf(u, w) | replicas_.MaskWordOf(v, w);
    while (held != 0) {
      const uint32_t p =
          (w << 6) + static_cast<uint32_t>(__builtin_ctzll(held));
      held &= held - 1;
      if (best == options_.k || edge_counts_[p] < edge_counts_[best]) {
        best = p;
      }
    }
  }
  if (best == options_.k) {
    best = static_cast<uint32_t>(
        std::min_element(edge_counts_.begin(), edge_counts_.end()) -
        edge_counts_.begin());
  }
  if (AtEdgeCapacity(best)) ++stats_.overflow_fallbacks;
  return best;
}

void EdgePartitioner::GrowTables(VertexId v) {
  if (v >= degree_.size()) {
    const size_t old_size = degree_.size();
    degree_.resize(v + 1, 0);
    if (has_heat_) {
      heat_scale_.resize(v + 1, 1.0);
      // Seed the cache with the default label 0; OnArrival refreshes when
      // the real label lands (each vertex arrives once, so the refresh is
      // final).
      for (size_t x = old_size; x <= v; ++x) {
        RefreshHeatScale(static_cast<VertexId>(x), 0);
      }
    }
  }
}

void EdgePartitioner::RefreshHeatScale(VertexId v, Label label) {
  if (!has_heat_ || v >= heat_scale_.size()) return;
  heat_scale_[v] = 1.0 + options_.heat_weight * options_.heat(v, label);
}

const std::vector<std::string>& KnownEdgePartitioners() {
  static const std::vector<std::string> kNames = {"hdrf", "dbh"};
  return kNames;
}

bool IsKnownEdgePartitioner(const std::string& name) {
  const std::vector<std::string>& names = KnownEdgePartitioners();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Result<std::unique_ptr<EdgePartitioner>> MakeEdgePartitioner(
    const std::string& name, const EdgePartitionerOptions& options) {
  const Status valid = ValidateEdgePartitionerOptions(options);
  if (!valid.ok()) return valid;
  if (name == "hdrf") {
    return std::unique_ptr<EdgePartitioner>(
        std::make_unique<HdrfPartitioner>(options));
  }
  if (name == "dbh") {
    return std::unique_ptr<EdgePartitioner>(
        std::make_unique<DbhPartitioner>(options));
  }
  return Status::InvalidArgument("unknown edge partitioner '" + name + "'");
}

}  // namespace loom

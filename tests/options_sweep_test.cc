// Seeded option-space sweeps over the checked entry points:
// `Service::Create` with its nested drift, detector and tracker options;
// `MakeEdgePartitioner` followed by an `EdgeRestreamer`; and a `Restreamer`
// over LOOM and over LDG built by `MakePartitioner`. Every field is drawn
// from a small pool that holds 0, 1, negative values, NaN and ±inf beside
// ordinary values. The property: an entry point refuses a configuration
// exactly when its `Validate*Options` rejects it, and a configuration it
// accepts runs with every vertex (or edge) placed, every partition within
// its capacity whenever the k partitions can hold the stream, each budgeted
// pass and drift reaction within its migration budget, rf >= 1 and no
// assign errors. Sizes stay bounded (k <= 64, window <= 64, n <= 500).
// Suite names put all three sweeps in CI's TSan selection.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "edge_partition/edge_partitioner.h"
#include "edge_partition/edge_restream.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "serving/service.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
T OneOf(Rng* rng, std::initializer_list<T> pool) {
  return pool.begin()[rng->UniformInt(0, pool.size() - 1)];
}

// Draws one configuration field by field: each field comes from its wild
// pool with probability `wild_share`, else from its tame pool. Sweeps draw
// half their configurations with a high share, so most are refused, and
// half with a low one, so most run.
class Drawer {
 public:
  Drawer(Rng* rng, double wild_share) : rng_(rng), wild_share_(wild_share) {}

  template <typename T>
  T Pick(std::initializer_list<T> tame, std::initializer_list<T> wild) {
    return OneOf(rng_, rng_->Bernoulli(wild_share_) ? wild : tame);
  }

 private:
  Rng* rng_;
  double wild_share_;
};

Drawer NewDrawer(Rng* rng) {
  return Drawer(rng, rng->Bernoulli(0.5) ? 0.5 : 0.05);
}

// A seeded Barabási–Albert stream of at most 500 vertices over 4 labels, in
// a drawn arrival order.
GraphStream DrawStream(Rng* rng) {
  const uint32_t n = OneOf<uint32_t>(rng, {1, 2, 40, 200, 500});
  const LabeledGraph g = BarabasiAlbert(n, 3, LabelConfig{4, 0.0}, *rng);
  const StreamOrder order = OneOf<StreamOrder>(
      rng, {StreamOrder::kRandom, StreamOrder::kBfs, StreamOrder::kDfs,
            StreamOrder::kAdversarial, StreamOrder::kStochastic,
            StreamOrder::kNatural});
  return MakeStream(g, order, *rng);
}

// Paths and cycles over labels {0, 1}; triangles and stars over {2, 3}. A
// service built for the first and queried with the second sees its whole
// motif mix move.
Workload WorkloadA() {
  Workload w;
  (void)w.Add("path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

Workload WorkloadB() {
  Workload w;
  (void)w.Add("triangle", TriangleQuery(2, 3, 2), 2.0);
  (void)w.Add("star", StarQuery(3, {2, 2}), 1.0);
  w.Normalize();
  return w;
}

// The capacity C of `options` when the k partitions can hold `n` vertices
// (C = 0 holds any number), else nullopt. Only then do the capacity bound
// and a strict migration budget hold: past k * C, placements are forced.
std::optional<size_t> CapacityHolding(const PartitionerOptions& options,
                                      size_t n) {
  const size_t capacity = ComputeCapacity(
      options.k, options.num_vertices_hint, options.capacity_slack);
  if (capacity != 0 && capacity < (n + options.k - 1) / options.k) {
    return std::nullopt;
  }
  return capacity;
}

// Every vertex of the stream placed; every partition within its capacity
// when the k partitions can hold the stream.
void ExpectPlacedWithinCapacity(const PartitionAssignment& a,
                                const GraphStream& stream,
                                const PartitionerOptions& options) {
  const size_t n = stream.NumVertices();
  EXPECT_EQ(a.NumAssigned(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(a.PartOf(stream.At(i).vertex), 0);
  }
  const std::optional<size_t> capacity = CapacityHolding(options, n);
  if (!capacity.has_value() || *capacity == 0) return;
  for (const uint32_t size : a.Sizes()) EXPECT_LE(size, *capacity);
}

TEST(ServingOptionsSweepTest, CreateRefusesExactlyWhatValidateRejects) {
  Rng rng(30);
  const Workload workload_a = WorkloadA();
  const Workload workload_b = WorkloadB();
  int accepted = 0;
  int refused = 0;
  int reactions = 0;
  for (int draw = 0; draw < 200; ++draw) {
    SCOPED_TRACE(draw);
    const GraphStream stream = DrawStream(&rng);
    const size_t n = stream.NumVertices();
    Drawer pick = NewDrawer(&rng);
    ServiceOptions opts;
    PartitionerOptions& popts = opts.loom.partitioner;
    popts.k = pick.Pick<uint32_t>({2, 4, 8}, {0, 1, 3, 64});
    popts.capacity_slack = pick.Pick<double>(
        {1.0, 1.1, 2.0}, {kNaN, -kInf, -1.0, 0.0, 0.5, 1.0, kInf});
    popts.num_vertices_hint = pick.Pick<size_t>({n, 3 * n}, {0, 1, n / 2, n});
    popts.window_size = pick.Pick<size_t>({8, 64}, {0, 1, 64});
    opts.loom.matcher.frequency_threshold = pick.Pick<double>(
        {0.0, 0.2, 0.5}, {kNaN, -kInf, -1.0, 0.0, 1.0, 2.0, kInf});
    opts.partitioner = pick.Pick<std::string>(
        {"loom", "ldg", "fennel", "hash"}, {"loom", "ldg", "metis", ""});
    // The stream carries labels 0-3, and the workload 0-1 alone: a
    // smaller alphabet would reject batches, which is ingest's contract.
    opts.num_labels = pick.Pick<uint32_t>({4}, {4, 9});
    opts.drift_check_every_queries = pick.Pick<uint64_t>({1, 8, 16}, {0, 1});
    opts.publish_every_batches = pick.Pick<uint32_t>({1, 3}, {0, 1, 64});
    opts.tracker.window_queries = pick.Pick<size_t>({16, 32, 64}, {0, 1});
    DriftControllerOptions& drift = opts.drift;
    drift.max_migration_fraction = pick.Pick<double>(
        {0.05, 0.25, 1.0}, {kNaN, -kInf, -1.0, 0.0, 2.0, kInf});
    drift.reaction_passes = pick.Pick<uint32_t>({1, 2, 3}, {0, 1, 5});
    drift.detector.fire_threshold = pick.Pick<double>(
        {0.05, 0.15, 0.3}, {kNaN, -kInf, -0.5, 0.0, 1.0, 1.5, kInf});
    drift.detector.min_consecutive = pick.Pick<uint32_t>({1, 2}, {0, 1, 9});
    drift.detector.clear_threshold = pick.Pick<double>(
        {0.0, 0.05}, {kNaN, -kInf, -0.1, 0.0, 0.5, 1.0, kInf});

    const bool valid = ValidateServiceOptions(opts).ok();
    auto created = Service::Create(workload_a, opts);
    ASSERT_EQ(created.ok(), valid) << created.status().ToString();
    if (!valid) {
      EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
      ++refused;
      continue;
    }
    ++accepted;
    Service& service = **created;

    // Ingest half the stream, move the query mix from A to B, ingest the
    // rest and seal.
    const size_t batch = OneOf<size_t>(&rng, {1, 7, 64});
    const auto ingest = [&](size_t begin, size_t end) {
      GraphStream part;
      for (size_t i = begin; i < end; ++i) {
        const ArrivalView a = stream.At(i);
        part.Append(a.vertex, a.label, a.back_edges);
      }
      StreamCursor cursor(part);
      ASSERT_TRUE(service.IngestSource(cursor, batch).ok());
    };
    ingest(0, n / 2);
    for (int q = 0; q < 32; ++q) {
      ASSERT_TRUE(service.ObserveQuery(workload_a.queries()[q % 2].pattern)
                      .ok());
    }
    for (int q = 0; q < 96; ++q) {
      ASSERT_TRUE(service.ObserveQuery(workload_b.queries()[q % 2].pattern)
                      .ok());
    }
    ingest(n / 2, n);
    ASSERT_TRUE(service.Seal().ok());

    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.ingested_vertices, n);
    EXPECT_EQ(stats.rejected_batches, 0u);
    EXPECT_EQ(stats.assign_errors, 0u);
    const PlacementSnapshot* snapshot = service.Snapshot();
    EXPECT_EQ(snapshot->num_assigned, n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(service.Locate(stream.At(i).vertex), 0);
    }
    reactions += stats.drift_reactions > 0;
    const std::optional<size_t> capacity = CapacityHolding(popts, n);
    if (!capacity.has_value()) continue;
    if (*capacity != 0) {
      for (const uint32_t size : snapshot->sizes) EXPECT_LE(size, *capacity);
    }
    if (stats.drift_reactions > 0) {
      EXPECT_LE(stats.last_reaction_migration_fraction,
                drift.max_migration_fraction + 1e-12);
    }
  }
  EXPECT_GT(accepted, 40);
  EXPECT_GT(refused, 40);
  EXPECT_GT(reactions, 20);
}

TEST(EdgePartitionOptionsSweepTest, FactoryRefusesExactlyWhatValidateRejects) {
  Rng rng(31);
  int accepted = 0;
  int refused = 0;
  for (int draw = 0; draw < 400; ++draw) {
    SCOPED_TRACE(draw);
    const GraphStream stream = DrawStream(&rng);
    const uint64_t m = stream.NumEdges();
    Drawer pick = NewDrawer(&rng);
    const std::string name =
        pick.Pick<std::string>({"hdrf", "dbh"}, {"hdrf", "dbh", "greedy"});
    EdgePartitionerOptions opt;
    opt.k = pick.Pick<uint32_t>({2, 4, 8}, {0, 1, 3, 64});
    opt.lambda =
        pick.Pick<double>({0.0, 1.0, 4.0}, {kNaN, -kInf, -1.0, 0.0, kInf});
    opt.num_edges_hint = pick.Pick<uint64_t>({m, 3 * m}, {0, 1, m / 2, m});
    opt.balance_slack = pick.Pick<double>(
        {1.0, 1.1, 2.0}, {kNaN, -kInf, -1.0, 0.0, 0.5, 1.0, kInf});
    opt.max_partitions_per_vertex =
        pick.Pick<uint32_t>({0, 2, 3}, {0, 1, opt.k, opt.k + 1, 100});
    opt.heat_weight =
        pick.Pick<double>({0.0, 1.0}, {kNaN, -kInf, -1.0, 0.0, kInf});
    if (rng.Bernoulli(0.5)) {
      opt.heat = [](VertexId, Label label) { return label / 4.0; };
    }
    opt.seed = rng();
    EdgeRestreamOptions ropt;
    ropt.num_passes = pick.Pick<uint32_t>({1, 2, 3}, {0, 1, 5});

    auto made = MakeEdgePartitioner(name, opt);
    ASSERT_EQ(made.ok(), IsKnownEdgePartitioner(name) &&
                             ValidateEdgePartitionerOptions(opt).ok())
        << made.status().ToString();
    if (!made.ok() || !ValidateEdgeRestreamOptions(ropt).ok()) {
      ++refused;
      continue;
    }
    ++accepted;
    StreamCursor cursor(stream);
    EdgeRestreamer restreamer(&cursor, ropt);
    const Result<EdgeRestreamResult> run = restreamer.Run(made->get());
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    EXPECT_EQ(run->passes.size(), ropt.num_passes);
    for (const EdgeRestreamPassStats& pass : run->passes) {
      EXPECT_EQ(pass.assign_errors, 0u);
      if (m > 0) {
        EXPECT_GE(pass.replication_factor, 1.0);
      }
    }
    ASSERT_EQ(run->placements.size(), m);
    std::vector<uint64_t> counts(opt.k, 0);
    for (const uint32_t p : run->placements) {
      ASSERT_LT(p, opt.k);
      ++counts[p];
    }
    // An edge leaves its budget only to respect a replica cap, so with no
    // cap every partition stays within the budget whenever the k
    // budgets can hold the stream.
    const uint64_t capacity =
        ComputeEdgeCapacity(opt.k, opt.num_edges_hint, opt.balance_slack);
    const uint32_t cap = opt.max_partitions_per_vertex;
    if (capacity != 0 && capacity >= (m + opt.k - 1) / opt.k &&
        (cap == 0 || cap >= opt.k)) {
      for (const uint64_t c : counts) EXPECT_LE(c, capacity);
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 100);
}

TEST(RestreamOptionsSweepTest, RestreamerOverLoomAndLdgKeepsTheInvariants) {
  Rng rng(32);
  auto trie = BuildTrie(WorkloadA());
  ASSERT_TRUE(trie.ok());
  int accepted = 0;
  int refused = 0;
  for (int draw = 0; draw < 400; ++draw) {
    SCOPED_TRACE(draw);
    const GraphStream stream = DrawStream(&rng);
    const size_t n = stream.NumVertices();
    Drawer pick = NewDrawer(&rng);
    const bool loom = draw % 2 == 1;
    LoomOptions lo;
    PartitionerOptions& popts = lo.partitioner;
    popts.k = pick.Pick<uint32_t>({2, 4, 8}, {0, 1, 3, 64});
    popts.capacity_slack = pick.Pick<double>(
        {1.0, 1.1, 2.0}, {kNaN, -kInf, -1.0, 0.0, 0.5, 1.0, kInf});
    popts.num_vertices_hint = pick.Pick<size_t>({n, 3 * n}, {0, 1, n / 2, n});
    popts.num_edges_hint = stream.NumEdges();
    popts.window_size = pick.Pick<size_t>({8, 64}, {0, 1, 64});
    lo.matcher.frequency_threshold = pick.Pick<double>(
        {0.0, 0.2, 0.5}, {kNaN, -kInf, -1.0, 0.0, 1.0, 2.0, kInf});
    RestreamOptions ro;
    ro.num_passes = pick.Pick<uint32_t>({1, 2, 3}, {0, 1, 5});
    ro.order = OneOf<RestreamOrder>(
        &rng, {RestreamOrder::kOriginal, RestreamOrder::kGain,
               RestreamOrder::kDecisive});
    ro.memoize_clusters = rng.Bernoulli(0.5);
    const double fraction = pick.Pick<double>(
        {0.1, 0.25, 1.0}, {kNaN, -kInf, -1.0, 0.0, 2.0, kInf});

    auto made = loom ? MakePartitioner("loom", lo, trie->get())
                     : MakePartitioner("ldg", popts);
    const bool valid = loom ? ValidateLoomOptions(lo).ok()
                            : ValidatePartitionerOptions(popts).ok();
    ASSERT_EQ(made.ok(), valid) << made.status().ToString();
    if (!made.ok() || !ValidateRestreamOptions(ro).ok()) {
      ++refused;
      continue;
    }
    ++accepted;
    StreamingPartitioner* partitioner = made->get();
    const Restreamer restreamer(stream, ro);
    const RestreamResult result = restreamer.Run(partitioner);
    EXPECT_EQ(result.passes.size(), ro.num_passes);
    for (const RestreamPassStats& pass : result.passes) {
      EXPECT_EQ(pass.assign_errors, 0u);
    }
    ExpectPlacedWithinCapacity(result.assignment, stream, popts);

    // One budgeted pass against the result moves at most its allowance.
    const uint64_t budget = MigrationBudgetMoves(result.assignment, fraction);
    const RestreamPassStats pass =
        restreamer.RunIncrementalPass(partitioner, result.assignment, budget);
    EXPECT_EQ(pass.assign_errors, 0u);
    ExpectPlacedWithinCapacity(partitioner->assignment(), stream, popts);
    if (CapacityHolding(popts, n).has_value()) {
      EXPECT_LE(
          ComputeMigration(result.assignment, partitioner->assignment()).moved,
          budget);
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 100);
}

}  // namespace
}  // namespace loom

// Tests for the restreaming/repartitioning subsystem: replay-stream
// construction, ReLDG prior semantics, the anytime (monotone best-cut)
// contract over the benchmark graph families for ldg/fennel/loom,
// migration-cost accounting, the bounded-migration incremental pass for
// every standard partitioner, and RestreamOptions validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "param_printers.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "restream/restreamer.h"
#include "stream/stream.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

PartitionerOptions Opts(uint32_t k, size_t n, size_t m = 0,
                        double slack = 1.1) {
  PartitionerOptions o;
  o.k = k;
  o.num_vertices_hint = n;
  o.num_edges_hint = m;
  o.capacity_slack = slack;
  return o;
}

TEST(GraphFromStreamTest, RoundTripsVerticesEdgesAndLabels) {
  Rng rng(11);
  const LabeledGraph g = ErdosRenyiGnm(200, 600, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const LabeledGraph back = GraphFromStream(stream);
  ASSERT_EQ(back.NumVertices(), g.NumVertices());
  EXPECT_EQ(back.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(back.LabelOf(v), g.LabelOf(v));
  }
  g.ForEachEdge([&](VertexId u, VertexId v) {
    EXPECT_TRUE(back.HasEdge(u, v)) << u << "-" << v;
  });
}

TEST(RestreamerTest, ReplayStreamCarriesFullNeighborhoodsOncePerVertex) {
  Rng rng(12);
  const LabeledGraph g = BarabasiAlbert(300, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, RestreamOptions{});

  // A prior to prioritize against.
  LdgPartitioner ldg(Opts(4, g.NumVertices()));
  ldg.Run(stream);
  const PartitionAssignment prior = ldg.assignment();

  for (const RestreamOrder order :
       {RestreamOrder::kOriginal, RestreamOrder::kGain}) {
    const GraphStream replay = restreamer.ReplayStream(order, prior);
    ASSERT_EQ(replay.NumVertices(), g.NumVertices());
    std::set<VertexId> seen;
    size_t carried = 0;
    for (const VertexArrival& a : replay.arrivals()) {
      EXPECT_TRUE(seen.insert(a.vertex).second) << "duplicate arrival";
      EXPECT_EQ(a.back_edges.size(), g.Degree(a.vertex));
      carried += a.back_edges.size();
    }
    // Full neighbourhoods: every edge carried from both endpoints.
    EXPECT_EQ(carried, 2 * g.NumEdges());
  }
}

TEST(RestreamerTest, GainOrderingIsDeterministic) {
  Rng rng(13);
  const LabeledGraph g = WattsStrogatz(200, 3, 0.1, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, RestreamOptions{});
  LdgPartitioner ldg(Opts(4, g.NumVertices()));
  ldg.Run(stream);
  const GraphStream a =
      restreamer.ReplayStream(RestreamOrder::kGain, ldg.assignment());
  const GraphStream b =
      restreamer.ReplayStream(RestreamOrder::kGain, ldg.assignment());
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  for (size_t i = 0; i < a.NumVertices(); ++i) {
    EXPECT_EQ(a.At(i).vertex, b.At(i).vertex);
  }
}

TEST(RestreamerTest, PrioritizedOrderIsKeyThenId) {
  // Each prioritized order streams vertices by its documented key, ids
  // ascending among equal keys. gain(v) = neighbours in v's prior partition
  // minus neighbours in its best other partition, recomputed here from the
  // graph; keys: -gain (kGain), -|gain| (kDecisive).
  // The second stream leaves every fifth id out, so the rebuilt graph has
  // ids that never arrive; the replay must not emit them.
  Rng rng(14);
  const LabeledGraph g = BarabasiAlbert(400, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream dense = MakeStream(g, StreamOrder::kRandom, rng);
  std::vector<VertexArrival> kept;
  for (const VertexArrival& a : dense.arrivals()) {
    if (a.vertex % 5 == 0) continue;
    VertexArrival b = a;
    b.back_edges.clear();
    for (const VertexId w : a.back_edges) {
      if (w % 5 != 0) b.back_edges.push_back(w);
    }
    kept.push_back(std::move(b));
  }
  const GraphStream sparse(kept);

  for (const GraphStream* stream : {&dense, &sparse}) {
    const Restreamer restreamer(*stream, RestreamOptions{});
    const LabeledGraph graph = GraphFromStream(*stream);
    LdgPartitioner ldg(Opts(4, stream->NumVertices()));
    ldg.Run(*stream);
    const PartitionAssignment& prior = ldg.assignment();

    std::vector<int64_t> gain(graph.NumVertices(), 0);
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (prior.PartOf(v) < 0) continue;  // never arrived
      std::vector<int64_t> counts(prior.k(), 0);
      for (const VertexId w : graph.Neighbors(v)) ++counts[prior.PartOf(w)];
      int64_t best_other = 0;
      for (uint32_t p = 0; p < prior.k(); ++p) {
        if (static_cast<int32_t>(p) != prior.PartOf(v)) {
          best_other = std::max(best_other, counts[p]);
        }
      }
      gain[v] = counts[prior.PartOf(v)] - best_other;
    }

    for (const RestreamOrder order :
         {RestreamOrder::kGain, RestreamOrder::kDecisive}) {
      const auto key = [&](VertexId v) {
        const int64_t abs_gain = gain[v] < 0 ? -gain[v] : gain[v];
        if (order == RestreamOrder::kGain) return -gain[v];
        return -abs_gain;
      };
      const std::string name = RestreamOrderName(order);
      const GraphStream replay = restreamer.ReplayStream(order, prior);
      ASSERT_EQ(replay.NumVertices(), stream->NumVertices()) << name;
      std::set<int64_t> distinct_keys;
      for (size_t i = 0; i < replay.NumVertices(); ++i) {
        const VertexId v = replay.At(i).vertex;
        ASSERT_GE(prior.PartOf(v), 0) << name << " emitted absent id " << v;
        distinct_keys.insert(key(v));
        if (i == 0) continue;
        const VertexId before = replay.At(i - 1).vertex;
        ASSERT_LE(key(before), key(v)) << name << " position " << i;
        if (key(before) == key(v)) {
          ASSERT_LT(before, v) << name << " position " << i;
        }
      }
      // The order is not vacuous: several key values, each a run of ids.
      EXPECT_GE(distinct_keys.size(), 3u) << name;
    }
  }
}

// The heart of ReLDG: a neighbour not yet re-assigned this pass scores with
// its prior-pass partition, so placement follows last pass's neighbourhood.
TEST(RestreamerTest, PriorPartitionAttractsUnassignedNeighbors) {
  // k=2, vertices 0..3, single edge {0,1}. Prior: 1 and 3 in partition 1,
  // 2 in partition 0. Pass two streams 0 first with its full neighbourhood
  // {1}: without the prior the score is all-zero (least-loaded -> p0); with
  // the prior, 1's last-pass placement pulls 0 into p1.
  LabeledGraph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(0);
  g.AddEdgeUnchecked(0, 1);

  PartitionAssignment prior(2, /*capacity=*/2);
  ASSERT_TRUE(prior.Assign(1, 1).ok());
  ASSERT_TRUE(prior.Assign(3, 1).ok());
  ASSERT_TRUE(prior.Assign(2, 0).ok());

  LdgPartitioner ldg(Opts(2, 4, 0, /*slack=*/1.0));
  ldg.BeginPass(&prior);
  ldg.OnVertex(0, 0, {1});
  EXPECT_EQ(ldg.assignment().PartOf(0), 1);
  ldg.ClearPrior();

  LdgPartitioner fresh(Opts(2, 4, 0, /*slack=*/1.0));
  fresh.OnVertex(0, 0, {1});
  EXPECT_EQ(fresh.assignment().PartOf(0), 0);
}

TEST(RestreamerTest, BeginPassResetsToSinglePassBehavior) {
  Rng rng(14);
  const LabeledGraph g = BarabasiAlbert(400, 3, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  FennelPartitioner reused(Opts(4, g.NumVertices(), g.NumEdges()));
  reused.Run(stream);
  reused.BeginPass(nullptr);
  EXPECT_EQ(reused.assignment().NumAssigned(), 0u);
  EXPECT_EQ(reused.stats().overflow_fallbacks, 0u);
  reused.Run(stream);

  FennelPartitioner fresh(Opts(4, g.NumVertices(), g.NumEdges()));
  fresh.Run(stream);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(reused.assignment().PartOf(v), fresh.assignment().PartOf(v));
  }
}

// Anytime contract on the BENCH_edge_cut.json graph families: three passes
// never end above the single-pass cut, the best-cut trajectory is monotone
// non-increasing, every pass assigns every vertex within the capacity bound,
// and migration is a sane fraction.
class RestreamQuality
    : public ::testing::TestWithParam<std::tuple<int, RestreamOrder>> {};

LabeledGraph FamilyGraph(int family, Rng& rng) {
  return family == 0 ? ErdosRenyiGnm(1200, 4800, LabelConfig{4, 0.3}, rng)
                     : BarabasiAlbert(1200, 4, LabelConfig{4, 0.3}, rng);
}

void CheckRestream(const LabeledGraph& g, const GraphStream& stream,
                   StreamingPartitioner* p, RestreamOrder order) {
  const uint32_t k = p->options().k;
  RestreamOptions ropts;
  ropts.num_passes = 3;
  ropts.order = order;
  const Restreamer restreamer(stream, ropts);

  const RestreamResult r = restreamer.Run(p);
  ASSERT_EQ(r.passes.size(), 3u);

  const size_t cap = ComputeCapacity(k, g.NumVertices(), 1.1);
  double prev_best = 1.0;
  for (const RestreamPassStats& s : r.passes) {
    EXPECT_LE(s.best_edge_cut_fraction, prev_best) << "pass " << s.pass;
    prev_best = s.best_edge_cut_fraction;
    EXPECT_GE(s.migration_fraction, 0.0);
    EXPECT_LE(s.migration_fraction, 1.0);
    EXPECT_EQ(s.forced_placements, 0u) << "pass " << s.pass;
  }
  EXPECT_EQ(r.passes[0].migration_fraction, 0.0);

  // Final result: never above single-pass (pass 1) quality, every vertex
  // assigned, balance within the capacity bound.
  EXPECT_LE(r.edge_cut_fraction, r.passes[0].edge_cut_fraction);
  EXPECT_EQ(r.assignment.NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, r.assignment));
  for (const uint32_t size : r.assignment.Sizes()) EXPECT_LE(size, cap);

  // The partitioner itself holds the last pass, also complete.
  EXPECT_EQ(p->assignment().NumAssigned(), g.NumVertices());
}

TEST_P(RestreamQuality, LdgImprovesOrEqual) {
  const auto [family, order] = GetParam();
  Rng rng(21);
  const LabeledGraph g = FamilyGraph(family, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  LdgPartitioner p(Opts(8, g.NumVertices(), g.NumEdges()));
  CheckRestream(g, stream, &p, order);
}

TEST_P(RestreamQuality, FennelImprovesOrEqual) {
  const auto [family, order] = GetParam();
  Rng rng(22);
  const LabeledGraph g = FamilyGraph(family, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  FennelPartitioner p(Opts(8, g.NumVertices(), g.NumEdges()));
  CheckRestream(g, stream, &p, order);
}

TEST_P(RestreamQuality, LoomImprovesOrEqual) {
  const auto [family, order] = GetParam();
  Rng rng(23);
  // Labels must stay inside the workload's label universe (3 labels here).
  LabeledGraph g =
      family == 0 ? ErdosRenyiGnm(1200, 4800, LabelConfig{3, 0.2}, rng)
                  : BarabasiAlbert(1200, 4, LabelConfig{3, 0.2}, rng);
  PlantMotifs(&g, TriangleQuery(0, 1, 2), 30, rng, /*locality_span=*/16);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  Workload w;
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();
  LoomOptions o;
  o.partitioner = Opts(8, g.NumVertices(), g.NumEdges());
  o.partitioner.window_size = 64;
  o.matcher.frequency_threshold = 0.4;
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  CheckRestream(g, stream, &(*loom)->Partitioner(), order);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RestreamQuality,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(RestreamOrder::kGain,
                                         RestreamOrder::kDecisive,
                                         RestreamOrder::kOriginal)),
    [](const ::testing::TestParamInfo<RestreamQuality::ParamType>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "er_" : "ba_") +
             RestreamOrderName(std::get<1>(info.param));
    });

TEST(RestreamerTest, MigrationFractionMatchesManualCount) {
  Rng rng(24);
  const LabeledGraph g = ErdosRenyiGnm(500, 1500, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  RestreamOptions ropts;
  ropts.num_passes = 2;
  ropts.order = RestreamOrder::kGain;
  const Restreamer restreamer(stream, ropts);

  LdgPartitioner first(Opts(4, g.NumVertices()));
  first.Run(stream);
  const PartitionAssignment pass1 = first.assignment();

  LdgPartitioner p(Opts(4, g.NumVertices()));
  const RestreamResult r = restreamer.Run(&p);
  // Pass one is deterministic, so the driver's pass-one assignment is
  // `pass1`; its reported migration for pass two must match a manual count.
  size_t moved = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (p.assignment().PartOf(v) != pass1.PartOf(v)) ++moved;
  }
  EXPECT_DOUBLE_EQ(
      r.passes[1].migration_fraction,
      static_cast<double>(moved) / static_cast<double>(g.NumVertices()));
}

// Restreaming an over-capacity stream must still never drop a vertex: the
// overflow fallback and the prior hook compose.
TEST(RestreamerTest, OverfullStreamRestreamsWithoutDrops) {
  Rng rng(25);
  const LabeledGraph g = BarabasiAlbert(600, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  // Capacity sized for half the stream: k*C < n on every pass.
  PartitionerOptions o = Opts(4, g.NumVertices() / 2, 0, /*slack=*/1.0);
  LdgPartitioner p(o);
  RestreamOptions ropts;
  ropts.num_passes = 3;
  const Restreamer restreamer(stream, ropts);
  const RestreamResult r = restreamer.Run(&p);
  for (const RestreamPassStats& s : r.passes) {
    EXPECT_GT(s.forced_placements, 0u);
  }
  EXPECT_EQ(r.assignment.NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, r.assignment));
}

// Bounded-migration incremental pass (the drift reaction's building block),
// for every standard partitioner: repeat runs are bit-identical, the budget
// is a strict cap that never costs capacity, and the returned stats describe
// the assignment the partitioner is left holding.
class IncrementalPassProperty
    : public ::testing::TestWithParam<std::string> {
 protected:
  // Test graph with planted motifs so LOOM has clusters to re-score.
  static LabeledGraph TestGraph(uint64_t seed) {
    Rng rng(seed);
    LabeledGraph g = BarabasiAlbert(900, 4, LabelConfig{3, 0.2}, rng);
    PlantMotifs(&g, TriangleQuery(0, 1, 2), 24, rng, /*locality_span=*/16);
    return g;
  }

  // A fresh partitioner named by the test parameter. LOOM partitioners are
  // owned by their Loom, which is kept alive in `looms_`.
  StreamingPartitioner* Make(const LabeledGraph& g) {
    const PartitionerOptions popts = Opts(6, g.NumVertices(), g.NumEdges());
    if (GetParam() != "loom") {
      auto made = MakePartitioner(GetParam(), popts);
      EXPECT_TRUE(made.ok()) << GetParam();
      owned_.push_back(std::move(made).value());
      return owned_.back().get();
    }
    Workload w;
    EXPECT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
    EXPECT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
    w.Normalize();
    LoomOptions o;
    o.partitioner = popts;
    o.partitioner.window_size = 64;
    o.matcher.frequency_threshold = 0.4;
    auto created = Loom::Create(w, o);
    EXPECT_TRUE(created.ok());
    looms_.push_back(std::move(created).value());
    return &looms_.back()->Partitioner();
  }

  static RestreamOptions DecisiveOrder() {
    RestreamOptions ropts;
    ropts.order = RestreamOrder::kDecisive;
    return ropts;
  }

 private:
  std::vector<std::unique_ptr<StreamingPartitioner>> owned_;
  std::vector<std::unique_ptr<Loom>> looms_;
};

TEST_P(IncrementalPassProperty, DeterministicAcrossRepeatedRuns) {
  const LabeledGraph g = TestGraph(43);
  Rng rng(44);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, DecisiveOrder());

  StreamingPartitioner* live = Make(g);
  live->Run(stream);
  const PartitionAssignment prior = live->assignment();
  const uint64_t budget = MigrationBudgetMoves(prior, 0.25);

  StreamingPartitioner* first = Make(g);
  StreamingPartitioner* second = Make(g);
  const RestreamPassStats a =
      restreamer.RunIncrementalPass(first, prior, budget);
  const RestreamPassStats b =
      restreamer.RunIncrementalPass(second, prior, budget);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(first->assignment().PartOf(v), second->assignment().PartOf(v))
        << "vertex " << v;
  }
  EXPECT_EQ(first->assignment().Sizes(), second->assignment().Sizes());
  EXPECT_EQ(a.edge_cut_fraction, b.edge_cut_fraction);
  EXPECT_EQ(a.balance, b.balance);
  EXPECT_EQ(a.migration_fraction, b.migration_fraction);
  EXPECT_EQ(a.budget_denied_moves, b.budget_denied_moves);
}

TEST_P(IncrementalPassProperty, BudgetNeverExceeded) {
  const LabeledGraph g = TestGraph(47);
  Rng rng(48);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, DecisiveOrder());
  const size_t cap = ComputeCapacity(6, g.NumVertices(), 1.1);

  StreamingPartitioner* live = Make(g);
  live->Run(stream);
  const PartitionAssignment prior = live->assignment();

  for (const double fraction : {0.0, 0.1, 0.3}) {
    SCOPED_TRACE(fraction);
    const uint64_t budget = MigrationBudgetMoves(prior, fraction);
    StreamingPartitioner* pass = Make(g);
    const RestreamPassStats stats =
        restreamer.RunIncrementalPass(pass, prior, budget);
    const MigrationStats moved = ComputeMigration(prior, pass->assignment());
    EXPECT_LE(moved.moved, budget);
    if (fraction == 0.0) {
      EXPECT_EQ(moved.moved, 0u);
    }
    EXPECT_EQ(stats.forced_placements, 0u);
    EXPECT_EQ(stats.assign_errors, 0u);
    EXPECT_TRUE(AllAssigned(g, pass->assignment()));
    for (const uint32_t size : pass->assignment().Sizes()) {
      EXPECT_LE(size, cap);
    }
  }
}

TEST_P(IncrementalPassProperty, StatsDescribeTheResultingAssignment) {
  const LabeledGraph g = TestGraph(53);
  Rng rng(54);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const Restreamer restreamer(stream, DecisiveOrder());

  StreamingPartitioner* live = Make(g);
  live->Run(stream);
  const PartitionAssignment prior = live->assignment();
  const uint64_t budget = MigrationBudgetMoves(prior, 0.25);

  StreamingPartitioner* pass = Make(g);
  const RestreamPassStats stats =
      restreamer.RunIncrementalPass(pass, prior, budget);
  const MigrationStats moved = ComputeMigration(prior, pass->assignment());
  EXPECT_EQ(pass->stats().prior_moves, moved.moved);
  EXPECT_DOUBLE_EQ(stats.migration_fraction,
                   MigrationFraction(prior, pass->assignment()));
  EXPECT_DOUBLE_EQ(stats.balance, BalanceMaxOverAvg(pass->assignment()));
  EXPECT_DOUBLE_EQ(stats.edge_cut_fraction,
                   EdgeCutFraction(g, pass->assignment()));
  EXPECT_EQ(stats.best_edge_cut_fraction, stats.edge_cut_fraction);
  EXPECT_EQ(pass->assignment().NumAssigned(), g.NumVertices());
  // The pass ends with the prior cleared and no live budget.
  EXPECT_FALSE(pass->HasPrior());
  EXPECT_FALSE(pass->MigrationBudgetExhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Partitioners, IncrementalPassProperty,
    ::testing::ValuesIn(KnownPartitioners()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// An over-capacity prior (k*C < n, so the prior itself overflows C) must
// still be re-placed in full by a budgeted pass: capacity pressure forces
// placements but never drops a vertex or errors an assignment.
TEST(RestreamerTest, OverfullPriorIncrementalPassAssignsEveryVertex) {
  Rng rng(71);
  const LabeledGraph g = BarabasiAlbert(600, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const PartitionerOptions popts =
      Opts(4, g.NumVertices() / 2, 0, /*slack=*/1.0);
  RestreamOptions ropts;
  ropts.order = RestreamOrder::kDecisive;
  const Restreamer restreamer(stream, ropts);

  LdgPartitioner live(popts);
  live.Run(stream);
  const PartitionAssignment prior = live.assignment();
  const uint64_t budget = MigrationBudgetMoves(prior, 0.2);

  LdgPartitioner pass(popts);
  const RestreamPassStats stats =
      restreamer.RunIncrementalPass(&pass, prior, budget);
  EXPECT_TRUE(AllAssigned(g, pass.assignment()));
  EXPECT_EQ(stats.assign_errors, 0u);
  EXPECT_GT(stats.forced_placements, 0u);
  EXPECT_EQ(pass.assignment().NumAssigned(), g.NumVertices());
}

// ------------------------------------------------ score table differential

// A partitioner that checks the pass's score table against the rule it
// stands for: before and after every placement of an OnVertex, and at
// Finish, every id must score as "this pass's placement, else the prior's,
// else -1". It places an arrival where most of its scored neighbours are,
// ties and empty neighbourhoods on partition 0, so a test can steer
// placements into full partitions.
class ScoreTableProbe final : public StreamingPartitioner {
 public:
  ScoreTableProbe(const PartitionerOptions& options, size_t id_bound)
      : StreamingPartitioner(options),
        id_bound_(id_bound),
        counts_(options.k, 0) {}

  void OnVertex(VertexId v, Label label,
                Span<const VertexId> back_edges) override {
    (void)label;
    Check();
    std::fill(counts_.begin(), counts_.end(), 0);
    for (const VertexId w : back_edges) {
      const int32_t p = ScorePartOf(w);
      if (p >= 0) ++counts_[static_cast<uint32_t>(p)];
    }
    const uint32_t part = static_cast<uint32_t>(
        std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
    AssignOrFallback(v, part);
    Check();
  }
  void Finish() override { Check(); }
  std::string Name() const override { return "score-table-probe"; }

  // Compares ScorePartOf with the rule for every id up to past the largest
  // one the stream, the assignment or the prior knows.
  void Check() {
    ++checks_;
    const size_t prior_bound = prior_ != nullptr ? prior_->IdBound() : 0;
    const size_t bound =
        std::max({id_bound_, assignment_.IdBound(), prior_bound}) + 1;
    for (VertexId w = 0; w < bound; ++w) {
      const int32_t placed = assignment_.PartOf(w);
      const int32_t want =
          placed >= 0 ? placed : (prior_ != nullptr ? prior_->PartOf(w) : -1);
      const int32_t got = ScorePartOf(w);
      if (got == want) continue;
      if (mismatches_ == 0) {
        first_mismatch_ = "id " + std::to_string(w) + " scores " +
                          std::to_string(got) + ", want " +
                          std::to_string(want);
      }
      ++mismatches_;
    }
  }

  uint64_t checks() const { return checks_; }
  uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  size_t id_bound_;
  std::vector<uint32_t> counts_;
  uint64_t checks_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

// The probe checked at least once and never saw a mismatch.
void ExpectScoreTableHolds(const ScoreTableProbe& probe) {
  EXPECT_GT(probe.checks(), 0u);
  EXPECT_EQ(probe.mismatches(), 0u)
      << "first mismatch: " << probe.first_mismatch();
}

TEST(ScoreTableTest, RestreamPassScoresPlacementElsePriorElseNone) {
  Rng rng(81);
  const LabeledGraph g = BarabasiAlbert(300, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  RestreamOptions ropts;
  ropts.num_passes = 3;
  ScoreTableProbe probe(Opts(4, g.NumVertices(), g.NumEdges()),
                        g.NumVertices());
  const RestreamResult r = Restreamer(stream, ropts).Run(&probe);
  ASSERT_EQ(r.passes.size(), 3u);
  EXPECT_GT(r.passes[1].migration_fraction, 0.0);
  ExpectScoreTableHolds(probe);
  // Run dropped the prior: scores are the assignment's again.
  probe.Check();
  ExpectScoreTableHolds(probe);
}

TEST(ScoreTableTest, BudgetedPassWithDeniedMovesAndEarlyStop) {
  Rng rng(82);
  const LabeledGraph g = BarabasiAlbert(400, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const PartitionerOptions popts = Opts(4, g.NumVertices(), g.NumEdges());
  ScoreTableProbe first(popts, g.NumVertices());
  first.Run(stream);
  const PartitionAssignment prior = first.assignment();
  const uint64_t budget = MigrationBudgetMoves(prior, 0.05);
  ASSERT_GT(budget, 0u);

  RestreamOptions ropts;
  ropts.order = RestreamOrder::kDecisive;
  ScoreTableProbe pass(popts, g.NumVertices());
  const RestreamPassStats stats =
      Restreamer(stream, ropts).RunIncrementalPass(&pass, prior, budget);
  EXPECT_GT(stats.budget_denied_moves, 0u);
  // The budget ran out mid-pass, so the early-stop tail placed the rest.
  EXPECT_EQ(pass.stats().prior_moves, budget);
  EXPECT_TRUE(AllAssigned(g, pass.assignment()));
  ExpectScoreTableHolds(pass);
}

TEST(ScoreTableTest, OverfullStreamScoresFallbackAndForcedPlacements) {
  Rng rng(83);
  const LabeledGraph g = BarabasiAlbert(300, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  RestreamOptions ropts;
  ropts.num_passes = 2;
  // Capacity for a quarter of the stream: k*C < n on every pass.
  ScoreTableProbe probe(Opts(2, g.NumVertices() / 4, 0, /*slack=*/1.0),
                        g.NumVertices());
  const RestreamResult r = Restreamer(stream, ropts).Run(&probe);
  EXPECT_GT(r.passes[1].overflow_fallbacks, 0u);
  EXPECT_GT(r.passes[1].forced_placements, 0u);
  ExpectScoreTableHolds(probe);
}

TEST(ScoreTableTest, PriorBelowTheStreamsIdBoundThenClearAndAdopt) {
  // The prior knows ids 0..9, all in partition 0; the stream first brings
  // the new ids 10..19, which fill partition 0, then 0..9. A zero budget
  // sends 0..9 down Run's early-stop tail, where their home is full: each
  // falls back to partition 1, and the table must say so.
  GraphStream stream;
  for (VertexId v = 10; v < 20; ++v) stream.Append({v, 0, {}});
  for (VertexId v = 0; v < 10; ++v) stream.Append({v, 0, {v + 10}});
  PartitionAssignment prior(2, 0);
  for (VertexId v = 0; v < 10; ++v) ASSERT_TRUE(prior.Assign(v, 0).ok());

  ScoreTableProbe probe(Opts(2, 20, 0, /*slack=*/1.0), 20);
  probe.BeginPass(&prior);
  probe.SetMigrationBudget(0);
  probe.Run(stream);
  for (VertexId v = 0; v < 20; ++v) {
    EXPECT_EQ(probe.assignment().PartOf(v), v < 10 ? 1 : 0) << v;
  }
  EXPECT_EQ(probe.stats().overflow_fallbacks, 10u);
  ExpectScoreTableHolds(probe);

  probe.ClearPrior();
  probe.Check();
  ExpectScoreTableHolds(probe);
  probe.BeginPass(&prior);
  probe.AdoptAssignment(prior, PartitionerStats());
  probe.Check();
  ExpectScoreTableHolds(probe);
  probe.BeginPass(nullptr);
  probe.Check();
  ExpectScoreTableHolds(probe);
}

TEST(RestreamOptionsValidationTest, ClampsPassesAndRejectsInvalidBudgets) {
  RestreamOptions zero_passes;
  zero_passes.num_passes = 0;
  EXPECT_EQ(SanitizeRestreamOptions(zero_passes).num_passes, 1u);

  // MigrationBudgetMoves itself must never turn NaN into an unbudgeted
  // pass (the pre-fix behaviour cast NaN — undefined behaviour).
  PartitionAssignment prior(2, 10);
  ASSERT_TRUE(prior.Assign(0, 0).ok());
  ASSERT_TRUE(prior.Assign(1, 1).ok());
  EXPECT_EQ(MigrationBudgetMoves(prior, std::nan("")), 0u);
  EXPECT_EQ(MigrationBudgetMoves(prior, -1.0), 0u);
}

TEST(RestreamOptionsValidationTest, RestreamerSanitizesOnConstruction) {
  Rng rng(61);
  const LabeledGraph g = ErdosRenyiGnm(300, 900, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  // num_passes = 0 still runs one pass.
  RestreamOptions ropts;
  ropts.num_passes = 0;
  LdgPartitioner one_pass(Opts(4, g.NumVertices()));
  const RestreamResult r = Restreamer(stream, ropts).Run(&one_pass);
  EXPECT_EQ(r.passes.size(), 1u);
}

}  // namespace
}  // namespace loom

// Drift subsystem contract tests: detector thresholds + hysteresis, the
// strict migration budget of incremental restream passes, and the
// end-to-end piecewise-stationary scenario (shared with run_benchmarks'
// `drift` JSON section).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <memory>

#include "core/partitioner_factory.h"
#include "drift/drift_controller.h"
#include "drift/drift_detector.h"
#include "drift_scenario.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

using bench::DriftScenarioConfig;
using bench::DriftScenarioResult;
using bench::GraphKind;
using bench::MakeGraph;
using bench::RunDriftScenario;

MotifDistribution Dist(std::initializer_list<MotifSupport> entries) {
  MotifDistribution d(entries);
  std::sort(d.begin(), d.end(),
            [](const MotifSupport& a, const MotifSupport& b) {
              return a.canonical_hash < b.canonical_hash;
            });
  return d;
}

// Partitioners come through the factory — the same construction path the
// benches and tools use.
std::unique_ptr<StreamingPartitioner> MakeLdg(
    const PartitionerOptions& popts) {
  auto made = MakePartitioner("ldg", popts);
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

// ------------------------------------------------------------- distances

TEST(DriftDistanceTest, IdenticalDistributionsAreAtZero) {
  const MotifDistribution d = Dist({{1, 0.5}, {2, 0.3}, {3, 0.2}});
  EXPECT_DOUBLE_EQ(L1Distance(d, d), 0.0);
  EXPECT_DOUBLE_EQ(JensenShannonDistance(d, d), 0.0);
}

TEST(DriftDistanceTest, DisjointSupportsAreAtOne) {
  const MotifDistribution p = Dist({{1, 0.6}, {2, 0.4}});
  const MotifDistribution q = Dist({{3, 0.7}, {4, 0.3}});
  EXPECT_DOUBLE_EQ(L1Distance(p, q), 1.0);
  EXPECT_DOUBLE_EQ(JensenShannonDistance(p, q), 1.0);
}

TEST(DriftDistanceTest, PartialOverlapIsBetweenAndSymmetric) {
  const MotifDistribution p = Dist({{1, 0.5}, {2, 0.5}});
  const MotifDistribution q = Dist({{2, 0.5}, {3, 0.5}});
  const double l1 = L1Distance(p, q);
  const double js = JensenShannonDistance(p, q);
  EXPECT_GT(l1, 0.0);
  EXPECT_LT(l1, 1.0);
  EXPECT_GT(js, 0.0);
  EXPECT_LT(js, 1.0);
  EXPECT_DOUBLE_EQ(l1, L1Distance(q, p));
  EXPECT_DOUBLE_EQ(js, JensenShannonDistance(q, p));
  // Exactly half the mass moved: total variation is 0.5.
  EXPECT_NEAR(l1, 0.5, 1e-12);
}

TEST(DriftDistanceTest, EmptySides) {
  const MotifDistribution d = Dist({{1, 1.0}});
  EXPECT_DOUBLE_EQ(L1Distance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JensenShannonDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(L1Distance(d, {}), 1.0);
  EXPECT_DOUBLE_EQ(JensenShannonDistance({}, d), 1.0);
}

// -------------------------------------------------------------- detector

TEST(DriftDetectorTest, FiresOnMotifMixSwitchAfterConsecutiveStreak) {
  DriftDetectorOptions options;
  options.fire_threshold = 0.15;
  options.clear_threshold = 0.05;
  options.min_consecutive = 2;
  DriftDetector detector(options);

  const MotifDistribution a = Dist({{1, 0.6}, {2, 0.4}});
  const MotifDistribution b = Dist({{3, 0.7}, {4, 0.3}});
  detector.SetReference(a);

  // Stationary: never fires.
  for (int i = 0; i < 10; ++i) {
    const DriftSignal s = detector.Observe(a);
    EXPECT_FALSE(s.workload_drifted);
    EXPECT_FALSE(s.fired);
  }
  EXPECT_EQ(detector.NumFired(), 0u);

  // Switch: over threshold immediately, but the streak debounces — fires on
  // the second consecutive observation, not the first.
  DriftSignal s1 = detector.Observe(b);
  EXPECT_TRUE(s1.workload_drifted);
  EXPECT_FALSE(s1.fired);
  DriftSignal s2 = detector.Observe(b);
  EXPECT_TRUE(s2.fired);
  EXPECT_EQ(detector.NumFired(), 1u);
  EXPECT_FALSE(detector.Armed());
}

TEST(DriftDetectorTest, NoiseBelowThresholdResetsTheStreak) {
  DriftDetectorOptions options;
  options.fire_threshold = 0.3;
  options.min_consecutive = 2;
  DriftDetector detector(options);
  const MotifDistribution a = Dist({{1, 0.5}, {2, 0.5}});
  // 0.4 of the mass moved: JS distance 0.552, over the 0.3 threshold.
  const MotifDistribution spike = Dist({{1, 0.1}, {2, 0.5}, {3, 0.4}});
  detector.SetReference(a);

  // spike, calm, spike, calm, ...: the streak never reaches 2.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(detector.Observe(spike).fired);
    EXPECT_FALSE(detector.Observe(a).fired);
  }
  EXPECT_EQ(detector.NumFired(), 0u);
}

// The thresholds compare the JS distance; L1 is reported beside it.
TEST(DriftDetectorTest, ThresholdsJensenShannonAndReportsL1) {
  DriftDetectorOptions options;
  options.clear_threshold = 0.0;
  options.min_consecutive = 1;
  const MotifDistribution a = Dist({{1, 0.5}, {2, 0.5}});

  // Spike: L1 0.4 is under a 0.5 threshold, JS 0.552 is over it.
  options.fire_threshold = 0.5;
  DriftDetector spiked(options);
  spiked.SetReference(a);
  const MotifDistribution spike = Dist({{1, 0.1}, {2, 0.5}, {3, 0.4}});
  const DriftSignal s = spiked.Observe(spike);
  EXPECT_DOUBLE_EQ(s.l1, L1Distance(a, spike));
  EXPECT_DOUBLE_EQ(s.js, JensenShannonDistance(a, spike));
  EXPECT_LT(s.l1, options.fire_threshold);
  EXPECT_GE(s.js, options.fire_threshold);
  EXPECT_TRUE(s.workload_drifted);
  EXPECT_TRUE(s.fired);

  // Nudge: L1 0.1 is over a 0.09 threshold, JS 0.085 is under it.
  options.fire_threshold = 0.09;
  DriftDetector nudged(options);
  nudged.SetReference(a);
  const MotifDistribution nudge = Dist({{1, 0.6}, {2, 0.4}});
  const DriftSignal n = nudged.Observe(nudge);
  EXPECT_DOUBLE_EQ(n.l1, L1Distance(a, nudge));
  EXPECT_DOUBLE_EQ(n.js, JensenShannonDistance(a, nudge));
  EXPECT_GE(n.l1, options.fire_threshold);
  EXPECT_LT(n.js, options.fire_threshold);
  EXPECT_FALSE(n.workload_drifted);
  EXPECT_FALSE(n.fired);
  EXPECT_EQ(nudged.NumFired(), 0u);
}

TEST(DriftDetectorTest, HysteresisBlocksRefireUntilClear) {
  DriftDetectorOptions options;
  options.fire_threshold = 0.15;
  options.clear_threshold = 0.05;
  options.min_consecutive = 1;
  DriftDetector detector(options);
  const MotifDistribution a = Dist({{1, 0.6}, {2, 0.4}});
  const MotifDistribution b = Dist({{3, 0.7}, {4, 0.3}});
  detector.SetReference(a);

  EXPECT_TRUE(detector.Observe(b).fired);
  // Still drifted, but disarmed: an oscillating workload hovering over the
  // threshold cannot thrash the re-partitioner.
  for (int i = 0; i < 10; ++i) {
    const DriftSignal s = detector.Observe(b);
    EXPECT_TRUE(s.workload_drifted);
    EXPECT_FALSE(s.fired);
  }
  EXPECT_EQ(detector.NumFired(), 1u);

  // Clearing re-arms; a fresh switch fires again.
  EXPECT_FALSE(detector.Observe(a).fired);
  EXPECT_TRUE(detector.Armed());
  EXPECT_TRUE(detector.Observe(b).fired);
  EXPECT_EQ(detector.NumFired(), 2u);
}

TEST(DriftDetectorTest, SetReferenceAdoptsTheDriftedDistributionAndRearms) {
  DriftDetectorOptions options;
  options.min_consecutive = 1;
  DriftDetector detector(options);
  const MotifDistribution a = Dist({{1, 1.0}});
  const MotifDistribution b = Dist({{2, 1.0}});
  detector.SetReference(a);
  EXPECT_TRUE(detector.Observe(b).fired);

  detector.SetReference(b);
  EXPECT_TRUE(detector.Armed());
  // b is the new normal: quiet.
  EXPECT_FALSE(detector.Observe(b).workload_drifted);
  // ...and drifting *back* to a is a new drift.
  EXPECT_TRUE(detector.Observe(a).fired);
}

// ------------------------------------------------------- migration budget

TEST(MigrationBudgetTest, BudgetedPassNeverExceedsTheBudget) {
  Rng rng(7);
  LabeledGraph g = MakeGraph(GraphKind::kErdosRenyi, 1500, 8,
                             LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  PartitionerOptions popts;
  popts.k = 6;
  popts.num_vertices_hint = g.NumVertices();
  popts.num_edges_hint = g.NumEdges();

  for (const double fraction : {0.0, 0.05, 0.15, 0.30}) {
    auto ldg = MakeLdg(popts);
    ldg->Run(stream);
    const PartitionAssignment prior = ldg->assignment();

    RestreamOptions ropts;
    ropts.order = RestreamOrder::kDecisive;
    const Restreamer restreamer(stream, ropts);
    const RestreamPassStats stats = restreamer.RunIncrementalPass(
        ldg.get(), prior, MigrationBudgetMoves(prior, fraction));

    const MigrationStats moved = ComputeMigration(prior, ldg->assignment());
    EXPECT_LE(moved.moved, MigrationBudgetMoves(prior, fraction))
        << "fraction " << fraction;
    EXPECT_LE(stats.migration_fraction, fraction + 1e-12);
    // Strictness is backed by home-slot reservation, not by overflow: the
    // budgeted pass must show no capacity pressure at all.
    EXPECT_EQ(stats.forced_placements, 0u);
    EXPECT_EQ(stats.assign_errors, 0u);
    EXPECT_TRUE(AllAssigned(g, ldg->assignment()));
    if (fraction == 0.0) {
      // A zero budget is a pure re-affirmation pass: nothing moves.
      EXPECT_EQ(moved.moved, 0u);
      EXPECT_EQ(stats.migration_fraction, 0.0);
    }
  }
}

TEST(MigrationBudgetTest, LoomBudgetedPassRespectsBudgetAndAssignsAll) {
  Workload workload;
  ASSERT_TRUE(workload.Add("path", PathQuery({0, 1, 0}), 1.0).ok());
  workload.Normalize();

  Rng rng(11);
  LabeledGraph g = MakeGraph(GraphKind::kBarabasiAlbert, 1500, 6,
                             LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

  LoomOptions lopts;
  lopts.partitioner.k = 6;
  lopts.partitioner.num_vertices_hint = g.NumVertices();
  lopts.partitioner.num_edges_hint = g.NumEdges();
  lopts.partitioner.window_size = 128;
  lopts.matcher.frequency_threshold = 0.2;
  auto created = Loom::Create(workload, lopts);
  ASSERT_TRUE(created.ok());
  auto loom = std::move(created).value();
  loom->Partitioner().Run(stream);
  const PartitionAssignment prior = loom->Partitioner().assignment();

  const double fraction = 0.10;
  RestreamOptions ropts;
  ropts.order = RestreamOrder::kDecisive;
  const Restreamer restreamer(stream, ropts);
  const RestreamPassStats stats = restreamer.RunIncrementalPass(
      &loom->Partitioner(), prior, MigrationBudgetMoves(prior, fraction));

  EXPECT_LE(stats.migration_fraction, fraction + 1e-12);
  EXPECT_EQ(stats.forced_placements, 0u);
  EXPECT_EQ(stats.assign_errors, 0u);
  EXPECT_TRUE(AllAssigned(g, loom->Partitioner().assignment()));
}

TEST(MigrationBudgetTest, UnlimitedBudgetPreservesPlainRestreamSemantics) {
  Rng rng(13);
  LabeledGraph g = MakeGraph(GraphKind::kErdosRenyi, 1000, 8,
                             LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  popts.num_edges_hint = g.NumEdges();

  auto first = MakeLdg(popts);
  first->Run(stream);
  const PartitionAssignment prior = first->assignment();
  // A budget fraction of 1.0 is the unlimited cap.
  EXPECT_EQ(MigrationBudgetMoves(prior, 1.0), Restreamer::kUnlimitedMoves);

  // An incremental pass with the cap off must match the second pass of a
  // plain 2-pass run bit for bit (the budget machinery must be inert when
  // disabled): pass one of that run places exactly as `first` did.
  for (const RestreamOrder order :
       {RestreamOrder::kGain, RestreamOrder::kDecisive}) {
    SCOPED_TRACE(RestreamOrderName(order));
    RestreamOptions ropts;
    ropts.num_passes = 2;
    ropts.order = order;
    const Restreamer restreamer(stream, ropts);
    auto plain = MakeLdg(popts);
    auto unlimited = MakeLdg(popts);
    const RestreamResult r = restreamer.Run(plain.get());
    const RestreamPassStats s = restreamer.RunIncrementalPass(
        unlimited.get(), prior, Restreamer::kUnlimitedMoves);
    ASSERT_EQ(r.passes.size(), 2u);
    EXPECT_GT(r.passes[1].migration_fraction, 0.0);  // the pass moves some
    EXPECT_EQ(s.edge_cut_fraction, r.passes[1].edge_cut_fraction);
    EXPECT_EQ(s.migration_fraction, r.passes[1].migration_fraction);
    EXPECT_EQ(s.budget_denied_moves, 0u);
    EXPECT_EQ(r.passes[1].budget_denied_moves, 0u);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(plain->assignment().PartOf(v),
                unlimited->assignment().PartOf(v))
          << "vertex " << v;
    }
  }
}

TEST(MigrationBudgetTest, DecisiveReplayIsAPermutationOfAllVertices) {
  Rng rng(17);
  LabeledGraph g = MakeGraph(GraphKind::kErdosRenyi, 500, 6,
                             LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  auto ldg = MakeLdg(popts);
  ldg->Run(stream);

  RestreamOptions ropts;
  const Restreamer restreamer(stream, ropts);
  const GraphStream replay =
      restreamer.ReplayStream(RestreamOrder::kDecisive, ldg->assignment());
  ASSERT_EQ(replay.NumVertices(), g.NumVertices());
  std::vector<VertexId> ids;
  for (const VertexArrival& a : replay.arrivals()) ids.push_back(a.vertex);
  std::sort(ids.begin(), ids.end());
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(ids[v], v);
}

// ------------------------------------------------------------ controller

TEST(DriftControllerTest, NoReactionWithoutAConfirmedDrift) {
  Rng rng(23);
  LabeledGraph g = MakeGraph(GraphKind::kErdosRenyi, 800, 6,
                             LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  auto ldg = MakeLdg(popts);
  ldg->Run(stream);
  const PartitionAssignment before = ldg->assignment();

  DriftControllerOptions options;
  DriftController controller(options);
  const MotifDistribution reference = Dist({{1, 0.5}, {2, 0.5}});
  controller.SetReference(reference);

  // Service's path: Check, and React only on a fire.
  const DriftSignal signal = controller.Check(reference);
  EXPECT_FALSE(signal.fired);
  EXPECT_EQ(controller.NumReactions(), 0u);
  // The live assignment is untouched.
  EXPECT_EQ(ComputeMigration(before, ldg->assignment()).moved, 0u);
}

TEST(DriftControllerTest, ReactionStaysUnderBudgetAndNeverPublishesWorse) {
  Rng rng(29);
  LabeledGraph g = MakeGraph(GraphKind::kBarabasiAlbert, 1200, 6,
                             LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kDfs, rng);
  PartitionerOptions popts;
  popts.k = 6;
  popts.num_vertices_hint = g.NumVertices();
  popts.num_edges_hint = g.NumEdges();
  auto ldg = MakeLdg(popts);
  ldg->Run(stream);
  const PartitionAssignment before = ldg->assignment();
  const double cut_before = EdgeCutFraction(g, before);

  DriftControllerOptions options;
  options.detector.min_consecutive = 1;
  options.max_migration_fraction = 0.2;
  DriftController controller(options);
  controller.SetReference(Dist({{1, 1.0}}));

  // Service's path: Check, and React on the fire.
  const MotifDistribution drifted = Dist({{2, 1.0}});
  const DriftSignal signal = controller.Check(drifted);
  ASSERT_TRUE(signal.fired);
  const DriftReaction r = controller.React(stream, ldg.get(), drifted);
  EXPECT_EQ(controller.NumReactions(), 1u);
  EXPECT_DOUBLE_EQ(r.edge_cut_before, cut_before);
  EXPECT_LE(r.edge_cut_after, cut_before);  // keep-best adoption
  EXPECT_LE(r.migration_fraction, options.max_migration_fraction + 1e-12);
  EXPECT_FALSE(r.passes.empty());
  // The reaction re-armed the detector on the drifted distribution.
  EXPECT_TRUE(controller.detector().Armed());
  EXPECT_FALSE(controller.Check(drifted).workload_drifted);
}

// ------------------------------------------------------------- scenario

TEST(DriftScenarioTest, ReactionContractOnThePiecewiseStationaryScenario) {
  DriftScenarioConfig config;  // the recorded fast-mode configuration
  const DriftScenarioResult r = RunDriftScenario(config);

  // Detection: quiet while stationary, fires on the switch, no thrash.
  EXPECT_EQ(r.stationary_fires, 0u);
  ASSERT_TRUE(r.fired);
  EXPECT_GE(r.fire_tick, 1u);
  EXPECT_EQ(r.post_reaction_fires, 0u);
  EXPECT_GE(r.fire_signal.js, 0.15);

  // Reaction: strictly improves on doing nothing, lands within 2 edge-cut
  // points of the cold 3-pass restream, and stays under the budget.
  EXPECT_LT(r.cut_reaction, r.cut_no_reaction);
  EXPECT_LE(r.cut_reaction, r.cut_cold + 0.02);
  EXPECT_LE(r.migration_reaction, r.max_migration_fraction + 1e-12);
  // Cold pays for its extra edge-cut points with several times the
  // migration volume.
  EXPECT_GT(r.migration_cold, r.migration_reaction);

  // No silent capacity pressure during budgeted migration.
  EXPECT_EQ(r.reaction_overflow_fallbacks, 0u);
  EXPECT_EQ(r.reaction_forced_placements, 0u);
  EXPECT_EQ(r.reaction_assign_errors, 0u);
}

}  // namespace
}  // namespace loom

// Experiment-shape regression tests: small-scale versions of the headline
// experiments asserting the metric *orderings* that the full tables report
// (bench_experiments, checked in as bench/experiments.txt), so the
// reproduction claims are CI-checked. Scales are reduced for test runtime.

#include <gtest/gtest.h>

#include "core/loom.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "partition/offline_partitioner.h"
#include "replication/hotspot.h"
#include "stream/stream.h"
#include "tpstry/workload_tracker.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace loom {
namespace {

/// Shared fixture: motif-rich BA graph + mixed workload, natural order.
struct Scenario {
  LabeledGraph graph;
  GraphStream stream;
  Workload workload;
  PartitionerOptions popts;
};

Scenario MakeSetup(uint32_t n, uint32_t k, uint64_t seed) {
  Scenario s;
  Rng rng(seed);
  s.workload = Workload();
  EXPECT_TRUE(s.workload.Add("fof", PathQuery({0, 0, 0}), 3.0).ok());
  EXPECT_TRUE(s.workload.Add("tri", TriangleQuery(0, 1, 0), 2.0).ok());
  EXPECT_TRUE(s.workload.Add("chain", PathQuery({0, 1, 2}), 1.0).ok());
  s.workload.Normalize();
  s.graph = BarabasiAlbert(n, 3, LabelConfig{3, 0.3}, rng);
  for (const QuerySpec& q : s.workload.queries()) {
    PlantMotifs(&s.graph, q.pattern, n / 24, rng, /*locality_span=*/32);
  }
  s.stream = MakeStream(s.graph, StreamOrder::kNatural, rng);
  s.popts.k = k;
  s.popts.num_vertices_hint = s.graph.NumVertices();
  s.popts.num_edges_hint = s.graph.NumEdges();
  s.popts.window_size = 512;
  return s;
}

WorkloadIptStats RunLoomAndEvaluate(const Scenario& s, double threshold = 0.2) {
  LoomOptions lopts;
  lopts.partitioner = s.popts;
  lopts.matcher.frequency_threshold = threshold;
  auto loom = Loom::Create(s.workload, lopts);
  EXPECT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(s.stream);
  return EvaluateWorkloadIpt(s.graph, (*loom)->Partitioner().assignment(),
                             s.workload);
}

// E1 shape: hash cuts ~ (k-1)/k; LDG far less.
TEST(ExperimentShapes, E1_HashCutNearKMinusOneOverK) {
  const Scenario s = MakeSetup(6000, 8, 1);
  HashPartitioner hash(s.popts);
  hash.Run(s.stream);
  LdgPartitioner ldg(s.popts);
  ldg.Run(s.stream);
  const double hash_cut = EdgeCutFraction(s.graph, hash.assignment());
  const double ldg_cut = EdgeCutFraction(s.graph, ldg.assignment());
  EXPECT_NEAR(hash_cut, 7.0 / 8.0, 0.02);
  EXPECT_LT(ldg_cut, hash_cut * 0.8);  // at least 20% reduction
}

// E2 shape: loom >= ldg >> hash on single-partition answers; emb-cut
// ordering reversed.
TEST(ExperimentShapes, E2_WorkloadMetricsOrdering) {
  const Scenario s = MakeSetup(8000, 8, 2);
  HashPartitioner hash(s.popts);
  hash.Run(s.stream);
  LdgPartitioner ldg(s.popts);
  ldg.Run(s.stream);
  const WorkloadIptStats m_hash =
      EvaluateWorkloadIpt(s.graph, hash.assignment(), s.workload);
  const WorkloadIptStats m_ldg =
      EvaluateWorkloadIpt(s.graph, ldg.assignment(), s.workload);
  const WorkloadIptStats m_loom = RunLoomAndEvaluate(s);

  EXPECT_GT(m_ldg.single_partition_fraction,
            m_hash.single_partition_fraction * 3);
  EXPECT_GT(m_loom.single_partition_fraction,
            m_ldg.single_partition_fraction);
  EXPECT_LT(m_loom.embedding_cut_fraction, m_ldg.embedding_cut_fraction);
  EXPECT_LT(m_ldg.embedding_cut_fraction, m_hash.embedding_cut_fraction);
}

// E2 corollary (the paper's motivating argument): the offline partitioner
// wins edge-cut yet loses the workload metrics to loom.
TEST(ExperimentShapes, E2_EdgeCutIsNotWorkloadQuality) {
  const Scenario s = MakeSetup(6000, 8, 3);
  OfflineOptions oopts;
  oopts.k = 8;
  oopts.seed = 3;
  auto offline = OfflineMultilevelPartition(s.graph, oopts);
  ASSERT_TRUE(offline.ok());
  const WorkloadIptStats m_off =
      EvaluateWorkloadIpt(s.graph, *offline, s.workload);

  LoomOptions lopts;
  lopts.partitioner = s.popts;
  lopts.matcher.frequency_threshold = 0.2;
  auto loom = Loom::Create(s.workload, lopts);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(s.stream);
  const WorkloadIptStats m_loom = EvaluateWorkloadIpt(
      s.graph, (*loom)->Partitioner().assignment(), s.workload);

  EXPECT_GT(m_loom.single_partition_fraction,
            m_off.single_partition_fraction);
  EXPECT_LT(m_loom.embedding_cut_fraction, m_off.embedding_cut_fraction);
}

// E3 shape: loom's advantage needs temporal locality — natural order beats
// adversarial order on loom's own answer locality.
TEST(ExperimentShapes, E3_OrderingSensitivity) {
  Scenario s = MakeSetup(6000, 8, 4);
  const WorkloadIptStats natural = RunLoomAndEvaluate(s);
  Rng rng(99);
  s.stream = MakeStream(s.graph, StreamOrder::kAdversarial, rng);
  const WorkloadIptStats adversarial = RunLoomAndEvaluate(s);
  EXPECT_GT(natural.single_partition_fraction,
            adversarial.single_partition_fraction);
}

// E5 shape: a threshold above every support degenerates loom to windowed
// LDG (zero cluster vertices).
TEST(ExperimentShapes, E5_ThresholdDegeneration) {
  const Scenario s = MakeSetup(3000, 4, 5);
  LoomOptions lopts;
  lopts.partitioner = s.popts;
  lopts.matcher.frequency_threshold = 1.01;
  auto loom = Loom::Create(s.workload, lopts);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(s.stream);
  EXPECT_EQ((*loom)->Partitioner().loom_stats().cluster_vertices, 0u);
}

// E11 shape: hotspot replication reduces ipt on top of loom's layout.
TEST(ExperimentShapes, E11_ReplicationComplementsLoom) {
  const Scenario s = MakeSetup(5000, 8, 6);
  LoomOptions lopts;
  lopts.partitioner = s.popts;
  lopts.matcher.frequency_threshold = 0.2;
  auto loom = Loom::Create(s.workload, lopts);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(s.stream);
  const auto& assignment = (*loom)->Partitioner().assignment();

  const double before =
      EvaluateWorkloadIpt(s.graph, assignment, s.workload).ipt_probability;
  ReplicationOptions ropts;
  ropts.budget_fraction = 0.05;
  const ReplicaSet replicas =
      ComputeHotspotReplicas(s.graph, assignment, s.workload, ropts);
  const double after =
      EvaluateWorkloadIpt(s.graph, assignment, s.workload, 20000, &replicas)
          .ipt_probability;
  EXPECT_LT(after, before * 0.8);  // at least 20% ipt reduction at 5% budget
}

// E12 shape: after workload drift, the tracker snapshot beats the stale
// summary on live traffic.
TEST(ExperimentShapes, E12_TrackerBeatsStaleSummary) {
  Rng rng(7);
  Workload workload_a;
  ASSERT_TRUE(workload_a.Add("a", PathQuery({0, 1, 0}), 1.0).ok());
  workload_a.Normalize();
  Workload workload_b;
  ASSERT_TRUE(workload_b.Add("b", TriangleQuery(2, 3, 2), 1.0).ok());
  workload_b.Normalize();

  LabeledGraph g = BarabasiAlbert(6000, 3, LabelConfig{4, 0.2}, rng);
  PlantMotifs(&g, workload_a.queries()[0].pattern, 250, rng, 32);
  PlantMotifs(&g, workload_b.queries()[0].pattern, 250, rng, 32);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);

  WorkloadTrackerOptions topts;
  topts.window_queries = 64;
  WorkloadTracker tracker(4, topts, /*paths_only=*/false);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tracker.Observe(workload_a.queries()[0].pattern).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tracker.Observe(workload_b.queries()[0].pattern).ok());
  }
  const TpstryPP snapshot = tracker.Snapshot();

  LoomOptions lopts;
  lopts.partitioner.k = 8;
  lopts.partitioner.num_vertices_hint = g.NumVertices();
  lopts.partitioner.window_size = 512;
  lopts.matcher.frequency_threshold = 0.2;

  auto stale = Loom::Create(workload_a, lopts);
  ASSERT_TRUE(stale.ok());
  (*stale)->Partitioner().Run(stream);
  LoomPartitioner fresh(lopts, &snapshot);
  fresh.Run(stream);

  const double stale_1part =
      EvaluateWorkloadIpt(g, (*stale)->Partitioner().assignment(), workload_b)
          .single_partition_fraction;
  const double fresh_1part =
      EvaluateWorkloadIpt(g, fresh.assignment(), workload_b)
          .single_partition_fraction;
  EXPECT_GT(fresh_1part, stale_1part);
}

}  // namespace
}  // namespace loom

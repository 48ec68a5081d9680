// Tests for the LOOM façade and the LOOM partitioner (§4.1, §4.4).

#include <gtest/gtest.h>

#include <cmath>

#include "core/loom.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "stream/stream.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

Workload AbcWorkload() {
  Workload w;
  EXPECT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 1.0).ok());
  w.Normalize();
  return w;
}

LoomOptions Opts(uint32_t k, size_t n, size_t window = 8,
                 double threshold = 0.5) {
  LoomOptions o;
  o.partitioner.k = k;
  o.partitioner.num_vertices_hint = n;
  o.partitioner.window_size = window;
  o.matcher.frequency_threshold = threshold;
  o.matcher.verify_exact = true;
  return o;
}

TEST(LoomTest, CreateValidatesOptions) {
  const Workload w = AbcWorkload();
  LoomOptions bad_k = Opts(0, 10);
  EXPECT_FALSE(Loom::Create(w, bad_k).ok());
  LoomOptions bad_window = Opts(2, 10, 0);
  bad_window.partitioner.window_size = 0;
  EXPECT_FALSE(Loom::Create(w, bad_window).ok());
  LoomOptions bad_threshold = Opts(2, 10);
  bad_threshold.matcher.frequency_threshold = -0.5;
  EXPECT_FALSE(Loom::Create(w, bad_threshold).ok());
  LoomOptions over_one = Opts(2, 10);
  over_one.matcher.frequency_threshold = 1.5;  // valid: nothing frequent
  EXPECT_TRUE(Loom::Create(w, over_one).ok());
  for (const double slack : {std::nan(""), -1.0, 0.5, HUGE_VAL}) {
    LoomOptions bad_slack = Opts(2, 10);
    bad_slack.partitioner.capacity_slack = slack;
    EXPECT_FALSE(Loom::Create(w, bad_slack).ok()) << slack;
  }
  LoomOptions tight = Opts(2, 10);
  tight.partitioner.capacity_slack = 1.0;  // valid: n fills k * C exactly
  EXPECT_TRUE(Loom::Create(w, tight).ok());
  EXPECT_FALSE(Loom::Create(Workload(), Opts(2, 10)).ok());
  EXPECT_TRUE(Loom::Create(w, Opts(2, 10)).ok());
}

TEST(LoomTest, TrieBuiltFromWorkload) {
  auto loom = Loom::Create(AbcWorkload(), Opts(2, 100));
  ASSERT_TRUE(loom.ok());
  // a, b, c, ab, bc, abc.
  EXPECT_EQ((*loom)->Trie().NumNodes(), 6u);
}

TEST(LoomTest, MotifKeptWholeWithinPartition) {
  // Stream two disjoint abc paths; with k=2 and tight capacity both paths
  // must land intact (each wholly in one partition).
  LabeledGraph g;
  for (const Label l : {0u, 1u, 2u, 0u, 1u, 2u}) g.AddVertex(l);
  g.AddEdgeUnchecked(0, 1);
  g.AddEdgeUnchecked(1, 2);
  g.AddEdgeUnchecked(3, 4);
  g.AddEdgeUnchecked(4, 5);
  const Result<GraphStream> made = MakeStreamFromOrder(g, {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;

  auto loom = Loom::Create(AbcWorkload(), Opts(2, 6, /*window=*/4, 0.5));
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  const auto& a = (*loom)->Partitioner().assignment();
  EXPECT_TRUE(AllAssigned(g, a));
  EXPECT_EQ(a.PartOf(0), a.PartOf(1));
  EXPECT_EQ(a.PartOf(1), a.PartOf(2));
  EXPECT_EQ(a.PartOf(3), a.PartOf(4));
  EXPECT_EQ(a.PartOf(4), a.PartOf(5));
  EXPECT_GE((*loom)->Partitioner().loom_stats().clusters_assigned, 1u);
}

TEST(LoomTest, FinishDrainsEverything) {
  Rng rng(1);
  const LabeledGraph g = BarabasiAlbert(300, 3, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  auto loom = Loom::Create(AbcWorkload(), Opts(4, g.NumVertices(), 64, 0.3));
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  EXPECT_TRUE(AllAssigned(g, (*loom)->Partitioner().assignment()));
  EXPECT_EQ((*loom)->Partitioner().assignment().NumAssigned(),
            g.NumVertices());
}

TEST(LoomTest, CapacityNeverViolated) {
  Rng rng(2);
  LabeledGraph g = BarabasiAlbert(400, 3, LabelConfig{3, 0.0}, rng);
  PlantMotifs(&g, PathQuery({0, 1, 2}), 40, rng, /*locality_span=*/12);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);
  LoomOptions o = Opts(4, g.NumVertices(), 64, 0.3);
  o.partitioner.capacity_slack = 1.05;
  auto loom = Loom::Create(AbcWorkload(), o);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  const size_t cap = ComputeCapacity(4, g.NumVertices(), 1.05);
  for (const uint32_t size :
       (*loom)->Partitioner().assignment().Sizes()) {
    EXPECT_LE(size, cap);
  }
}

TEST(LoomTest, TraversalWeightedVariantRunsAndCompletes) {
  // §5 future work: LDG scores weighted by TPSTry++ edge traversal
  // probabilities. The variant must keep every invariant (completeness,
  // capacity) while weighting placement.
  Rng rng(9);
  LabeledGraph g = BarabasiAlbert(600, 3, LabelConfig{3, 0.2}, rng);
  PlantMotifs(&g, PathQuery({0, 1, 2}), 60, rng, /*locality_span=*/16);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);

  LoomOptions o = Opts(4, g.NumVertices(), 128, 0.3);
  o.use_traversal_weights = true;
  auto weighted = Loom::Create(AbcWorkload(), o);
  ASSERT_TRUE(weighted.ok());
  (*weighted)->Partitioner().Run(stream);
  EXPECT_TRUE(AllAssigned(g, (*weighted)->Partitioner().assignment()));
  const size_t cap = ComputeCapacity(4, g.NumVertices(), 1.1);
  for (const uint32_t size :
       (*weighted)->Partitioner().assignment().Sizes()) {
    EXPECT_LE(size, cap);
  }

  // The weighting changes placement relative to the unweighted variant on
  // at least some vertices (they are different heuristics).
  LoomOptions o2 = Opts(4, g.NumVertices(), 128, 0.3);
  auto plain = Loom::Create(AbcWorkload(), o2);
  ASSERT_TRUE(plain.ok());
  (*plain)->Partitioner().Run(stream);
  size_t differing = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if ((*weighted)->Partitioner().assignment().PartOf(v) !=
        (*plain)->Partitioner().assignment().PartOf(v)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(LoomTest, LocalSplitKeepsConnectedChunksTogether) {
  // A 12-vertex ab-chain whose closure exceeds capacity (C=3, k=4): local
  // splitting must produce connected chunks rather than scattering vertices,
  // so adjacent pairs mostly share partitions.
  LabeledGraph g;
  for (int i = 0; i < 12; ++i) g.AddVertex(i % 2 == 0 ? 0 : 1);
  for (VertexId v = 0; v + 1 < 12; ++v) g.AddEdgeUnchecked(v, v + 1);
  std::vector<VertexId> order(12);
  for (VertexId v = 0; v < 12; ++v) order[v] = v;
  const Result<GraphStream> made = MakeStreamFromOrder(g, order);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;

  Workload w;
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();
  LoomOptions o = Opts(4, 12, /*window=*/12, 0.5);
  o.partitioner.capacity_slack = 1.0;
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  const auto& a = (*loom)->Partitioner().assignment();
  EXPECT_TRUE(AllAssigned(g, a));
  EXPECT_GE((*loom)->Partitioner().loom_stats().split_chunks, 2u);
  // Chunked split: at most k-1 = 3 chain edges cut (one per chunk border).
  size_t cut = 0;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    if (a.PartOf(u) != a.PartOf(v)) ++cut;
  });
  EXPECT_LE(cut, 3u);
}

TEST(LoomTest, OversizedClusterSplitGracefully) {
  // A long chain of overlapping ab edges inside one window: the transitive
  // closure exceeds per-partition capacity and must be split, never dropped.
  LabeledGraph g;
  for (int i = 0; i < 12; ++i) g.AddVertex(i % 2 == 0 ? 0 : 1);
  for (VertexId v = 0; v + 1 < 12; ++v) g.AddEdgeUnchecked(v, v + 1);
  std::vector<VertexId> order(12);
  for (VertexId v = 0; v < 12; ++v) order[v] = v;
  const Result<GraphStream> made = MakeStreamFromOrder(g, order);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;

  Workload w;
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();
  LoomOptions o = Opts(4, 12, /*window=*/12, 0.5);
  o.partitioner.capacity_slack = 1.0;  // capacity 3 per partition
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  EXPECT_TRUE(AllAssigned(g, (*loom)->Partitioner().assignment()));
  EXPECT_GE((*loom)->Partitioner().loom_stats().clusters_split, 1u);
}

TEST(LoomTest, PathsOnlyModeBuildsSmallerTrie) {
  Workload w;
  ASSERT_TRUE(w.Add("cycle", PaperQ1(), 1.0).ok());
  w.Normalize();
  LoomOptions full = Opts(2, 100);
  LoomOptions paths = Opts(2, 100);
  paths.paths_only = true;
  auto loom_full = Loom::Create(w, full);
  auto loom_paths = Loom::Create(w, paths);
  ASSERT_TRUE(loom_full.ok() && loom_paths.ok());
  EXPECT_LT((*loom_paths)->Trie().NumNodes(), (*loom_full)->Trie().NumNodes());
}

TEST(LoomTest, StatsAreConsistent) {
  Rng rng(3);
  LabeledGraph g = BarabasiAlbert(500, 3, LabelConfig{3, 0.0}, rng);
  PlantMotifs(&g, PathQuery({0, 1, 2}), 50, rng, /*locality_span=*/12);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);
  auto loom = Loom::Create(AbcWorkload(), Opts(4, g.NumVertices(), 64, 0.3));
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  const LoomStats& s = (*loom)->Partitioner().loom_stats();
  EXPECT_EQ(s.cluster_vertices + s.single_vertices, g.NumVertices());
  EXPECT_GT(s.clusters_assigned, 0u);
}

}  // namespace
}  // namespace loom

// Tests for the hotspot-replication extension (paper §3.2, Yang et al.).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "partition/hash_partitioner.h"
#include "partition/replica_set.h"
#include "replication/hotspot.h"
#include "stream/stream.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace loom {
namespace {

TEST(ReplicaSetTest, AddHasIdempotent) {
  ReplicaSet r;
  EXPECT_FALSE(r.Has(5, 1));
  r.Add(5, 1);
  EXPECT_TRUE(r.Has(5, 1));
  EXPECT_FALSE(r.Has(5, 2));
  r.Add(5, 1);  // idempotent
  EXPECT_EQ(r.NumReplicas(), 1u);
  r.Add(5, 2);
  EXPECT_EQ(r.NumReplicas(), 2u);
  EXPECT_EQ(r.NumReplicatedVertices(), 1u);
  EXPECT_EQ(r.NumReplicasOf(5), 2u);
  EXPECT_EQ(r.NumReplicasOf(6), 0u);
}

TEST(ReplicaSetTest, PrimaryIsFirstAddedPartition) {
  ReplicaSet r;
  EXPECT_EQ(r.PrimaryOf(7), kNoReplica);
  r.Add(7, 3);
  r.Add(7, 1);
  r.Add(7, 5);
  EXPECT_EQ(r.PrimaryOf(7), 3u);
  EXPECT_EQ(r.NumReplicasOf(7), 3u);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(ReplicaSetTest, BitmaskMatchesSetOracleUnderRandomChurn) {
  // Randomized Add-only differential against an insertion-ordered oracle.
  // After every Add the touched vertex and one random probe must agree with
  // the oracle on Has, NumReplicasOf and PrimaryOf (the first Add), and so
  // must NumReplicas and NumReplicatedVertices. The partition range ramps
  // up to 150, so the mask table restrides 1 -> 2 -> 3 words mid-sequence;
  // each restride is followed by a sweep of the whole grid. The same checks
  // run again after Clear() and a refill.
  Rng rng(177);
  ReplicaSet set;
  std::map<VertexId, std::vector<uint32_t>> oracle;  // insertion-ordered
  size_t total = 0;
  constexpr uint32_t kVertices = 40;
  constexpr uint32_t kPartitions = 150;

  const auto expect_vertex = [&](VertexId v) {
    const auto it = oracle.find(v);
    const size_t n = it == oracle.end() ? 0 : it->second.size();
    ASSERT_EQ(set.NumReplicasOf(v), n) << "v=" << v;
    ASSERT_EQ(set.PrimaryOf(v), n == 0 ? kNoReplica : it->second.front())
        << "v=" << v;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      const bool has =
          it != oracle.end() && std::find(it->second.begin(),
                                          it->second.end(),
                                          p) != it->second.end();
      ASSERT_EQ(set.Has(v, p), has) << "v=" << v << " p=" << p;
    }
  };
  const auto expect_all = [&]() {
    ASSERT_TRUE(set.CheckInvariants());
    ASSERT_EQ(set.NumReplicas(), total);
    ASSERT_EQ(set.NumReplicatedVertices(), oracle.size());
    for (VertexId v = 0; v < kVertices; ++v) {
      ASSERT_NO_FATAL_FAILURE(expect_vertex(v));
    }
  };
  // Adds `steps` random replicas, appending each new mask stride.
  const auto fill = [&](int steps, std::vector<uint32_t>* strides) {
    for (int step = 0; step < steps; ++step) {
      const uint32_t range =
          std::min<uint32_t>(kPartitions, 8 + static_cast<uint32_t>(step) / 8);
      const VertexId v =
          static_cast<VertexId>(rng.UniformInt(0, kVertices - 1));
      const uint32_t p = static_cast<uint32_t>(rng.UniformInt(0, range - 1));
      set.Add(v, p);
      auto& parts = oracle[v];
      if (std::find(parts.begin(), parts.end(), p) == parts.end()) {
        parts.push_back(p);
        ++total;
      }
      ASSERT_EQ(set.NumReplicas(), total) << "step " << step;
      ASSERT_EQ(set.NumReplicatedVertices(), oracle.size()) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(expect_vertex(v)) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(expect_vertex(
          static_cast<VertexId>(rng.UniformInt(0, kVertices - 1))))
          << "step " << step;
      if (set.words_per_vertex() != strides->back()) {
        strides->push_back(set.words_per_vertex());
        ASSERT_NO_FATAL_FAILURE(expect_all()) << "step " << step;
      }
    }
  };

  std::vector<uint32_t> strides = {set.words_per_vertex()};
  ASSERT_NO_FATAL_FAILURE(fill(2000, &strides));
  // The restride path ran twice, one word at a time.
  EXPECT_EQ(strides, (std::vector<uint32_t>{1, 2, 3}));
  ASSERT_NO_FATAL_FAILURE(expect_all());

  set.Clear();
  oracle.clear();
  total = 0;
  EXPECT_EQ(set.words_per_vertex(), 3u);  // Clear keeps the stride
  ASSERT_NO_FATAL_FAILURE(expect_all());

  ASSERT_NO_FATAL_FAILURE(fill(1500, &strides));
  EXPECT_EQ(strides.back(), 3u);
  ASSERT_NO_FATAL_FAILURE(expect_all());
}

TEST(ReplicationTest, ReplicatedTraversalBecomesLocal) {
  // a(0) - b(1) split across partitions: the traversal crosses; replicating
  // b into a's partition makes it local.
  LabeledGraph g;
  const VertexId va = g.AddVertex(0);
  const VertexId vb = g.AddVertex(1);
  g.AddEdgeUnchecked(va, vb);
  PartitionAssignment split(2, 0);
  ASSERT_TRUE(split.Assign(va, 0).ok());
  ASSERT_TRUE(split.Assign(vb, 1).ok());

  const LabeledGraph q = PathQuery({0, 1});
  const QueryExecutionStats before = ExecuteQuery(g, split, q);
  EXPECT_EQ(before.cross_traversals, 1u);

  ReplicaSet replicas;
  replicas.Add(vb, 0);
  const QueryExecutionStats after =
      ExecuteQuery(g, split, q, SIZE_MAX, &replicas);
  EXPECT_EQ(after.cross_traversals, 0u);
  EXPECT_EQ(after.num_embeddings, before.num_embeddings);
  // Replicas also heal the per-embedding cut accounting.
  EXPECT_EQ(after.embedding_cut_edges, 0u);
}

TEST(ReplicationTest, ObserverSeesEveryTraversal) {
  const LabeledGraph g = PaperFigure1Graph();
  PartitionAssignment a(2, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_TRUE(a.Assign(v, v % 2).ok());
  }
  size_t observed = 0;
  size_t observed_cross = 0;
  const TraversalObserver obs = [&](VertexId, VertexId, bool cross) {
    ++observed;
    if (cross) ++observed_cross;
  };
  const QueryExecutionStats s =
      ExecuteQuery(g, a, PaperQ2(), SIZE_MAX, nullptr, obs);
  EXPECT_EQ(observed, s.total_traversals);
  EXPECT_EQ(observed_cross, s.cross_traversals);
}

TEST(ReplicationTest, BudgetRespected) {
  Rng rng(1);
  LabeledGraph g = BarabasiAlbert(2000, 3, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  HashPartitioner hash(popts);
  hash.Run(stream);

  Workload w;
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  ASSERT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 1.0).ok());
  w.Normalize();

  ReplicationOptions ropts;
  ropts.budget_fraction = 0.03;
  ReplicationStats stats;
  const ReplicaSet replicas =
      ComputeHotspotReplicas(g, hash.assignment(), w, ropts, &stats);
  EXPECT_LE(replicas.NumReplicas(),
            static_cast<size_t>(0.03 * g.NumVertices()));
  EXPECT_EQ(stats.replicas_placed, replicas.NumReplicas());
  EXPECT_GT(stats.hot_pairs_observed, 0u);
}

TEST(ReplicationTest, PerVertexPartitionCapRespected) {
  Rng rng(2);
  LabeledGraph g = BarabasiAlbert(1000, 4, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 8;
  popts.num_vertices_hint = g.NumVertices();
  HashPartitioner hash(popts);
  hash.Run(stream);

  Workload w;
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();

  ReplicationOptions ropts;
  ropts.budget_fraction = 0.5;  // generous: the cap must bind first
  ropts.max_partitions_per_vertex = 2;
  const ReplicaSet replicas =
      ComputeHotspotReplicas(g, hash.assignment(), w, ropts);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_LE(replicas.NumReplicasOf(v), 2u);
  }
}

TEST(ReplicationTest, ReplicationLowersWorkloadIpt) {
  Rng rng(3);
  LabeledGraph g = BarabasiAlbert(3000, 3, LabelConfig{3, 0.2}, rng);
  Workload w;
  ASSERT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 2.0).ok());
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
  w.Normalize();
  PlantMotifs(&g, w.queries()[0].pattern, 150, rng, 16);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);

  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  HashPartitioner hash(popts);
  hash.Run(stream);

  const double before =
      EvaluateWorkloadIpt(g, hash.assignment(), w).ipt_probability;
  ReplicationOptions ropts;
  ropts.budget_fraction = 0.05;
  const ReplicaSet replicas =
      ComputeHotspotReplicas(g, hash.assignment(), w, ropts);
  const double after =
      EvaluateWorkloadIpt(g, hash.assignment(), w, 20000, &replicas)
          .ipt_probability;
  EXPECT_LT(after, before);
}

TEST(ReplicationTest, ZeroBudgetMeansNoReplicas) {
  Rng rng(4);
  LabeledGraph g = BarabasiAlbert(500, 3, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  HashPartitioner hash(popts);
  hash.Run(stream);
  Workload w;
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();
  ReplicationOptions ropts;
  ropts.budget_fraction = 0.0;
  EXPECT_EQ(ComputeHotspotReplicas(g, hash.assignment(), w, ropts)
                .NumReplicas(),
            0u);
}

TEST(ReplicationTest, DeterministicGivenSameInputs) {
  Rng rng(5);
  LabeledGraph g = BarabasiAlbert(800, 3, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = g.NumVertices();
  HashPartitioner hash(popts);
  hash.Run(stream);
  Workload w;
  ASSERT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 1.0).ok());
  w.Normalize();
  ReplicationOptions ropts;
  ropts.budget_fraction = 0.05;
  const ReplicaSet r1 = ComputeHotspotReplicas(g, hash.assignment(), w, ropts);
  const ReplicaSet r2 = ComputeHotspotReplicas(g, hash.assignment(), w, ropts);
  EXPECT_EQ(r1.NumReplicas(), r2.NumReplicas());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t p = 0; p < 4; ++p) {
      EXPECT_EQ(r1.Has(v, p), r2.Has(v, p));
    }
  }
}

}  // namespace
}  // namespace loom

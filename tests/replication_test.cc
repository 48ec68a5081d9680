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
  ASSERT_NE(r.PartitionsOf(5), nullptr);
  EXPECT_EQ(r.PartitionsOf(5)->size(), 2u);
  EXPECT_EQ(r.PartitionsOf(6), nullptr);
}

TEST(ReplicaSetTest, PrimaryIsFirstAddedPartition) {
  ReplicaSet r;
  EXPECT_EQ(r.PrimaryOf(7), kNoReplica);
  r.Add(7, 3);
  r.Add(7, 1);
  r.Add(7, 5);
  EXPECT_EQ(r.PrimaryOf(7), 3u);
  EXPECT_EQ(r.NumReplicasOf(7), 3u);
  // A secondary erase never changes the primary.
  EXPECT_TRUE(r.Remove(7, 1));
  EXPECT_EQ(r.PrimaryOf(7), 3u);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(ReplicaSetTest, RemovingPrimaryPromotesOldestSecondary) {
  ReplicaSet r;
  r.Add(9, 2);
  r.Add(9, 0);
  r.Add(9, 4);
  EXPECT_TRUE(r.Remove(9, 2));
  // Insertion order is preserved, so the oldest secondary is promoted —
  // not the lowest partition index.
  EXPECT_EQ(r.PrimaryOf(9), 0u);
  EXPECT_TRUE(r.Remove(9, 0));
  EXPECT_EQ(r.PrimaryOf(9), 4u);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(ReplicaSetTest, EraseReAddAccounting) {
  ReplicaSet r;
  r.Add(1, 0);
  r.Add(1, 2);
  r.Add(2, 1);
  EXPECT_EQ(r.NumReplicas(), 3u);
  EXPECT_EQ(r.NumReplicatedVertices(), 2u);

  // Removing a missing pair changes nothing and reports false.
  EXPECT_FALSE(r.Remove(1, 3));
  EXPECT_FALSE(r.Remove(99, 0));
  EXPECT_EQ(r.NumReplicas(), 3u);

  // Erase + re-add: the count round-trips and the re-added partition comes
  // back as a *secondary* (the erase forgot its seniority).
  EXPECT_TRUE(r.Remove(1, 0));
  EXPECT_EQ(r.NumReplicas(), 2u);
  EXPECT_EQ(r.PrimaryOf(1), 2u);
  r.Add(1, 0);
  EXPECT_EQ(r.NumReplicas(), 3u);
  EXPECT_EQ(r.PrimaryOf(1), 2u);
  ASSERT_NE(r.PartitionsOf(1), nullptr);
  EXPECT_EQ((*r.PartitionsOf(1))[1], 0u);

  // Double-remove of the same pair is not double-counted.
  EXPECT_TRUE(r.Remove(1, 0));
  EXPECT_FALSE(r.Remove(1, 0));
  EXPECT_EQ(r.NumReplicas(), 2u);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(ReplicaSetTest, RemovingLastReplicaForgetsVertex) {
  ReplicaSet r;
  r.Add(4, 1);
  EXPECT_EQ(r.NumReplicatedVertices(), 1u);
  EXPECT_TRUE(r.Remove(4, 1));
  EXPECT_EQ(r.NumReplicatedVertices(), 0u);
  EXPECT_EQ(r.NumReplicas(), 0u);
  EXPECT_EQ(r.PrimaryOf(4), kNoReplica);
  EXPECT_EQ(r.PartitionsOf(4), nullptr);
  EXPECT_EQ(r.NumReplicasOf(4), 0u);
  EXPECT_TRUE(r.CheckInvariants());

  // The vertex can come back fresh.
  r.Add(4, 2);
  EXPECT_EQ(r.PrimaryOf(4), 2u);
  EXPECT_EQ(r.NumReplicas(), 1u);
  EXPECT_TRUE(r.CheckInvariants());
}

TEST(ReplicaSetTest, InvariantsHoldUnderInterleavedChurn) {
  // Deterministic add/remove churn; CheckInvariants recounts from scratch,
  // so any drift in num_replicas_ accounting surfaces here.
  ReplicaSet r;
  for (uint32_t round = 0; round < 200; ++round) {
    const VertexId v = (round * 7) % 23;
    const uint32_t p = (round * 13) % 6;
    if (round % 3 == 2) {
      r.Remove(v, p);
    } else {
      r.Add(v, p);
    }
  }
  EXPECT_TRUE(r.CheckInvariants());
  for (VertexId v = 0; v < 23; ++v) {
    if (r.NumReplicasOf(v) > 0) {
      EXPECT_EQ(r.PrimaryOf(v), (*r.PartitionsOf(v))[0]);
    }
  }
}

TEST(ReplicaSetTest, BitmaskMatchesSetOracleUnderRandomChurn) {
  // Randomized differential against an ordered-container oracle: drive the
  // same Add/Remove sequence through both, probing Has after every step and
  // sweeping the full (vertex, partition) grid at the end. Partition ids
  // run past 128, so the mask table restrides from one word per vertex to
  // three mid-sequence — the probe answers must survive both restrides.
  Rng rng(177);
  ReplicaSet set;
  std::map<VertexId, std::vector<uint32_t>> oracle;  // insertion-ordered
  size_t total = 0;
  constexpr uint32_t kVertices = 40;
  constexpr uint32_t kPartitions = 150;
  for (int step = 0; step < 4000; ++step) {
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, kVertices - 1));
    const uint32_t p =
        static_cast<uint32_t>(rng.UniformInt(0, kPartitions - 1));
    if (rng.Bernoulli(0.65)) {
      set.Add(v, p);
      auto& parts = oracle[v];
      if (std::find(parts.begin(), parts.end(), p) == parts.end()) {
        parts.push_back(p);
        ++total;
      }
    } else {
      bool oracle_removed = false;
      const auto it = oracle.find(v);
      if (it != oracle.end()) {
        const auto pos = std::find(it->second.begin(), it->second.end(), p);
        if (pos != it->second.end()) {
          it->second.erase(pos);
          oracle_removed = true;
          --total;
          if (it->second.empty()) oracle.erase(it);
        }
      }
      ASSERT_EQ(set.Remove(v, p), oracle_removed) << "step " << step;
    }
    const VertexId q = static_cast<VertexId>(rng.UniformInt(0, kVertices - 1));
    const uint32_t qp =
        static_cast<uint32_t>(rng.UniformInt(0, kPartitions - 1));
    const auto qit = oracle.find(q);
    const bool expect_has =
        qit != oracle.end() && std::find(qit->second.begin(),
                                         qit->second.end(),
                                         qp) != qit->second.end();
    ASSERT_EQ(set.Has(q, qp), expect_has) << "step " << step;
  }
  EXPECT_TRUE(set.CheckInvariants());
  EXPECT_EQ(set.NumReplicas(), total);
  EXPECT_GE(set.words_per_vertex(), 3u);  // the restride path actually ran
  EXPECT_EQ(set.NumReplicatedVertices(), oracle.size());
  for (VertexId v = 0; v < kVertices; ++v) {
    const auto it = oracle.find(v);
    const size_t n = it == oracle.end() ? 0 : it->second.size();
    EXPECT_EQ(set.NumReplicasOf(v), n);
    EXPECT_EQ(set.MaskCountOf(v), static_cast<uint32_t>(n));
    EXPECT_EQ(set.PrimaryOf(v), n == 0 ? kNoReplica : it->second.front());
    // Secondaries keep their insertion order through every Remove.
    const auto* parts = set.PartitionsOf(v);
    if (n == 0) {
      EXPECT_EQ(parts, nullptr) << "v=" << v;
    } else {
      ASSERT_NE(parts, nullptr) << "v=" << v;
      ASSERT_EQ(parts->size(), n) << "v=" << v;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*parts)[i], it->second[i]) << "v=" << v << " i=" << i;
      }
    }
    for (uint32_t p = 0; p < kPartitions; ++p) {
      const bool has =
          it != oracle.end() && std::find(it->second.begin(),
                                          it->second.end(),
                                          p) != it->second.end();
      ASSERT_EQ(set.Has(v, p), has) << "v=" << v << " p=" << p;
    }
  }
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
    const auto* parts = replicas.PartitionsOf(v);
    if (parts != nullptr) {
      EXPECT_LE(parts->size(), 2u);
    }
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

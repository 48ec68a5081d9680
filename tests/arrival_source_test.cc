// Cursor-layer tests for the out-of-core refactor: StreamCursor replay,
// generator-source determinism across Reset, the records of both
// ReplaySource backings, and the headline equivalence guarantee — every
// partitioner produces bit-identical assignments whether it consumes an
// in-memory GraphStream or an mmap-backed stream file. Also pins the
// Restreamer's materialization budget: a 3-pass materialized run builds the
// graph exactly once, an out-of-core run never does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"
#include "workload/workload_gen.h"

namespace loom {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GraphStream MakeTestStream(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  LabeledGraph g = BarabasiAlbert(n, 4, LabelConfig{4, 0.3}, rng);
  return MakeStream(g, StreamOrder::kRandom, rng);
}

std::vector<VertexId> ToVector(Span<const VertexId> s) {
  return std::vector<VertexId>(s.begin(), s.end());
}

void ExpectSameArrival(const ArrivalView& a, const ArrivalView& b) {
  EXPECT_EQ(a.vertex, b.vertex);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(ToVector(a.back_edges), ToVector(b.back_edges));
}

void ExpectSameStream(const GraphStream& a, const GraphStream& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  for (size_t i = 0; i < a.NumVertices(); ++i) {
    ExpectSameArrival(a.At(i), b.At(i));
  }
}

TEST(ArrivalSourceTest, StreamCursorReplaysTheStreamExactly) {
  const GraphStream stream = MakeTestStream(200, 7);
  StreamCursor cursor(stream);
  EXPECT_EQ(cursor.NumVertices(), stream.NumVertices());
  EXPECT_EQ(cursor.NumEdges(), stream.NumEdges());

  for (int pass = 0; pass < 2; ++pass) {
    cursor.Reset();
    ArrivalView view;
    for (const VertexArrival& expected : stream.arrivals()) {
      ASSERT_TRUE(cursor.Next(&view));
      EXPECT_EQ(view.vertex, expected.vertex);
      EXPECT_EQ(view.label, expected.label);
      ASSERT_EQ(view.back_edges.size(), expected.back_edges.size());
      for (size_t i = 0; i < expected.back_edges.size(); ++i) {
        EXPECT_EQ(view.back_edges[i], expected.back_edges[i]);
      }
    }
    EXPECT_FALSE(cursor.Next(&view));
  }

  cursor.Reset();
  ExpectSameStream(MaterializeStream(cursor), stream);
}

TEST(ArrivalSourceTest, GeneratorSourcesAreDeterministic) {
  // Each streaming generator must replay the identical sequence after
  // Reset, and two instances built from the same seed must agree — that is
  // what makes generator-fed restreaming and benches reproducible.
  ErdosRenyiArrivalSource er(2000, 0.004, LabelConfig{4, 0.3}, 99);
  BarabasiAlbertArrivalSource ba(2000, 4, LabelConfig{4, 0.3}, 99);
  ErdosRenyiArrivalSource er_twin(2000, 0.004, LabelConfig{4, 0.3}, 99);
  BarabasiAlbertArrivalSource ba_twin(2000, 4, LabelConfig{4, 0.3}, 99);

  const auto check = [](ArrivalSource& source, ArrivalSource& twin) {
    const GraphStream first = MaterializeStream(source);
    EXPECT_EQ(first.NumVertices(), source.NumVertices());
    source.Reset();
    ExpectSameStream(MaterializeStream(source), first);
    ExpectSameStream(MaterializeStream(twin), first);
    EXPECT_GT(first.NumEdges(), 0u);
  };
  check(er, er_twin);
  check(ba, ba_twin);
}

// Five arrivals over the sparse ids {0, 2, 5, 7, 9}, carrying five edges.
GraphStream SparseStream() {
  GraphStream stream;
  stream.Append({5, 0, {}});
  stream.Append({2, 1, {5}});
  stream.Append({9, 0, {2, 5}});
  stream.Append({0, 1, {9}});
  stream.Append({7, 2, {2}});
  return stream;
}

TEST(ArrivalSourceTest, ReplayRecordsAreBackEdgesThenForwardNeighbours) {
  // Both ReplaySource backings give each arrival its own label, its back
  // edges as recorded, and its full neighbourhood as those back edges
  // followed by the later arrivals that name it, in arrival order.
  const GraphStream stream = SparseStream();
  const std::vector<std::vector<VertexId>> full = {
      {2, 9}, {5, 9, 7}, {2, 5, 0}, {9}, {2}};

  const std::string path = TempPath("loom_replay_records.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto file = FileArrivalSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const StreamReplay memory(stream);

  for (const ReplaySource* source :
       {static_cast<const ReplaySource*>(&memory),
        static_cast<const ReplaySource*>(file->get())}) {
    EXPECT_EQ(source->NumVertices(), 5u);
    EXPECT_EQ(source->NumEdges(), 5u);
    EXPECT_EQ(source->IdBound(), 10u);
    for (uint64_t i = 0; i < stream.NumVertices(); ++i) {
      SCOPED_TRACE(i);
      const ArrivalView a = stream.At(i);
      const ReplaySource::Record r = source->At(i);
      EXPECT_EQ(r.vertex, a.vertex);
      EXPECT_EQ(r.label, a.label);
      EXPECT_EQ(ToVector(r.back_edges), ToVector(a.back_edges));
      EXPECT_EQ(ToVector(r.full_edges), full[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(ArrivalSourceTest, RestreamCutCountsEachEdgeOnceOnBothBackings) {
  // The Restreamer's cut sweeps every arrival's back edges, so each edge
  // counts once whichever backing holds the stream: here two of the five
  // edges (9-0 and 2-7) cross the partition.
  const GraphStream stream = SparseStream();
  const std::string path = TempPath("loom_replay_cut.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto file = FileArrivalSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  PartitionAssignment a(2, 5);
  for (const VertexId v : {5, 2, 9}) ASSERT_TRUE(a.Assign(v, 0).ok());
  for (const VertexId v : {0, 7}) ASSERT_TRUE(a.Assign(v, 1).ok());
  EXPECT_EQ(Restreamer(stream, RestreamOptions{}).CutFraction(a), 0.4);
  EXPECT_EQ(Restreamer(file->get(), RestreamOptions{}).CutFraction(a), 0.4);
  EXPECT_EQ(EdgeCutFraction(GraphFromStream(stream), a), 0.4);
  std::remove(path.c_str());
}

TEST(ArrivalSourceTest, StreamReplayMatchesTheFileRecordForRecord) {
  // The in-memory and the file-backed ReplaySource of one generated stream
  // agree on every count and on every arrival record, so a replay cannot
  // tell which backing it reads.
  const GraphStream stream = MakeTestStream(800, 10);
  const std::string path = TempPath("loom_replay_source.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto file = FileArrivalSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const StreamReplay memory(stream);
  const ReplaySource& from_file = **file;

  ASSERT_EQ(memory.NumVertices(), from_file.NumVertices());
  EXPECT_EQ(memory.NumEdges(), from_file.NumEdges());
  EXPECT_EQ(memory.NumEdges(), stream.NumEdges());
  EXPECT_EQ(memory.IdBound(), from_file.IdBound());
  for (uint64_t i = 0; i < memory.NumVertices(); ++i) {
    const ReplaySource::Record a = memory.At(i);
    const ReplaySource::Record b = from_file.At(i);
    ASSERT_EQ(a.vertex, b.vertex) << "arrival " << i;
    ASSERT_EQ(a.label, b.label) << "arrival " << i;
    ASSERT_EQ(ToVector(a.back_edges), ToVector(b.back_edges))
        << "arrival " << i;
    ASSERT_EQ(ToVector(a.full_edges), ToVector(b.full_edges))
        << "arrival " << i;
  }
  std::remove(path.c_str());
}

TEST(ArrivalSourceTest, FileBackedEqualsInMemoryForEveryPartitioner) {
  // The acceptance bar for the stream-file format: swapping the materialized
  // GraphStream for the mmap-backed cursor must not move a single vertex,
  // for any partitioner — including LOOM's windowed motif pipeline.
  const GraphStream stream = MakeTestStream(1500, 8);
  const std::string path = TempPath("loom_equiv_source.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto file = FileArrivalSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  WorkloadGenOptions wopts;
  wopts.num_queries = 4;
  const Workload workload = MixedMotifWorkload(wopts);
  auto trie = BuildTrie(workload);
  ASSERT_TRUE(trie.ok());

  LoomOptions lopts;
  lopts.partitioner.k = 8;
  lopts.partitioner.num_vertices_hint = stream.NumVertices();
  lopts.partitioner.num_edges_hint = stream.NumEdges();
  lopts.partitioner.window_size = 128;
  lopts.matcher.frequency_threshold = 0.2;

  for (const std::string& name : KnownPartitioners()) {
    auto from_stream = MakePartitioner(name, lopts, trie->get());
    auto from_file = MakePartitioner(name, lopts, trie->get());
    ASSERT_TRUE(from_stream.ok() && from_file.ok()) << name;

    (*from_stream)->Run(stream);
    (*from_file)->Run(**file);

    const PartitionAssignment& a = (*from_stream)->assignment();
    const PartitionAssignment& b = (*from_file)->assignment();
    ASSERT_EQ(a.NumAssigned(), b.NumAssigned()) << name;
    for (VertexId v = 0; v < stream.NumVertices(); ++v) {
      ASSERT_EQ(a.PartOf(v), b.PartOf(v)) << name << " vertex " << v;
    }
    (*file)->Reset();
  }
  std::remove(path.c_str());
}

// First vertex below `n` that `a` and `b` place differently, or
// kInvalidVertex when they agree on all of them.
VertexId FirstDifference(const PartitionAssignment& a,
                         const PartitionAssignment& b, uint64_t n) {
  for (VertexId v = 0; v < n; ++v) {
    if (a.PartOf(v) != b.PartOf(v)) return v;
  }
  return kInvalidVertex;
}

TEST(ArrivalSourceTest, OutOfCoreRestreamMatchesMaterialized) {
  // Same passes, same orderings, same placements on every replay path —
  // Run, a budgeted incremental pass, ReplayStream and the cut — for every
  // partitioner (LOOM with its cluster memo) and every order: the
  // file-backed Restreamer is a memory optimisation, not a different
  // algorithm. Also pins the materialization budget on both sides: the
  // in-memory driver builds its graph exactly once for a full 3-pass run,
  // the file-backed driver never builds it at all.
  const GraphStream stream = MakeTestStream(1200, 9);
  const LabeledGraph graph = GraphFromStream(stream);
  const uint64_t n = stream.NumVertices();
  const std::string path = TempPath("loom_equiv_restream.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto file = FileArrivalSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  WorkloadGenOptions wopts;
  wopts.num_queries = 4;
  auto trie = BuildTrie(MixedMotifWorkload(wopts));
  ASSERT_TRUE(trie.ok());
  LoomOptions lopts;
  lopts.partitioner.k = 8;
  lopts.partitioner.num_vertices_hint = n;
  lopts.partitioner.num_edges_hint = stream.NumEdges();
  lopts.partitioner.window_size = 128;
  lopts.matcher.frequency_threshold = 0.2;
  const auto make = [&](const std::string& name) {
    auto made = MakePartitioner(name, lopts, trie->get());
    EXPECT_TRUE(made.ok()) << name;
    return std::move(made).value();
  };

  for (const std::string& name : KnownPartitioners()) {
    auto first = make(name);
    first->Run(stream);
    const PartitionAssignment prior = first->assignment();
    const uint64_t budget = MigrationBudgetMoves(prior, 0.10);

    for (const RestreamOrder order :
         {RestreamOrder::kOriginal, RestreamOrder::kGain,
          RestreamOrder::kDecisive}) {
      SCOPED_TRACE(name + " " + RestreamOrderName(order));
      RestreamOptions ropts;
      ropts.num_passes = 3;
      ropts.order = order;
      const Restreamer in_memory(stream, ropts);
      const Restreamer from_file(file->get(), ropts);
      EXPECT_EQ(in_memory.CutFraction(prior), EdgeCutFraction(graph, prior));
      EXPECT_EQ(from_file.CutFraction(prior), EdgeCutFraction(graph, prior));

      auto p1 = make(name);
      auto p2 = make(name);
      const RestreamResult want = in_memory.Run(p1.get());
      const RestreamResult got = from_file.Run(p2.get());
      EXPECT_EQ(in_memory.materializations(), 1u);
      EXPECT_EQ(from_file.materializations(), 0u);
      ASSERT_EQ(want.passes.size(), got.passes.size());
      for (size_t i = 0; i < want.passes.size(); ++i) {
        EXPECT_EQ(want.passes[i].edge_cut_fraction,
                  got.passes[i].edge_cut_fraction);
        EXPECT_EQ(want.passes[i].migration_fraction,
                  got.passes[i].migration_fraction);
      }
      EXPECT_EQ(want.edge_cut_fraction, got.edge_cut_fraction);
      EXPECT_EQ(want.edge_cut_fraction,
                EdgeCutFraction(graph, want.assignment));
      EXPECT_EQ(FirstDifference(want.assignment, got.assignment, n),
                kInvalidVertex);

      auto q1 = make(name);
      auto q2 = make(name);
      const RestreamPassStats a =
          in_memory.RunIncrementalPass(q1.get(), prior, budget);
      const RestreamPassStats b =
          from_file.RunIncrementalPass(q2.get(), prior, budget);
      EXPECT_EQ(a.edge_cut_fraction, b.edge_cut_fraction);
      EXPECT_EQ(a.migration_fraction, b.migration_fraction);
      EXPECT_EQ(a.budget_denied_moves, b.budget_denied_moves);
      EXPECT_EQ(a.edge_cut_fraction, EdgeCutFraction(graph, q1->assignment()));
      EXPECT_EQ(FirstDifference(q1->assignment(), q2->assignment(), n),
                kInvalidVertex);

      ExpectSameStream(in_memory.ReplayStream(order, prior),
                       from_file.ReplayStream(order, prior));
    }
  }
  std::remove(path.c_str());
}

// `n` arrivals in a random order, with up to 3n edges among them.
GraphStream SmallStream(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  const uint64_t pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  const LabeledGraph g = ErdosRenyiGnm(
      n, std::min<uint64_t>(3 * uint64_t{n}, pairs), LabelConfig{3, 0.0}, rng);
  return MakeStream(g, StreamOrder::kRandom, rng);
}

TEST(ArrivalSourceTest, ReplayLookAheadStaysInsideShortAndSparseStreams) {
  // A replay pass hints arrivals up to 32 positions past its cursor. On
  // streams shorter than that, and on sparse ids, every hint must stay
  // inside the permutation and the source, and both backings must still
  // agree on every pass, for every partitioner and order.
  std::vector<GraphStream> streams;
  for (const uint32_t n : {1u, 2u, 9u, 33u}) {
    streams.push_back(SmallStream(n, 100 + n));
  }
  streams.push_back(SparseStream());

  WorkloadGenOptions wopts;
  wopts.num_queries = 4;
  auto trie = BuildTrie(MixedMotifWorkload(wopts));
  ASSERT_TRUE(trie.ok());
  const std::string path = TempPath("loom_lookahead.loomstrm");
  for (const GraphStream& stream : streams) {
    SCOPED_TRACE("arrivals " + std::to_string(stream.NumVertices()));
    ASSERT_TRUE(WriteStreamFile(stream, path).ok());
    auto file = FileArrivalSource::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const uint64_t id_bound = (*file)->IdBound();

    // Every hint a cursor can issue, on both backings.
    const StreamReplay memory(stream);
    for (const ReplaySource* source :
         {static_cast<const ReplaySource*>(&memory),
          static_cast<const ReplaySource*>(file->get())}) {
      for (uint64_t i = 0; i < source->NumVertices(); ++i) {
        source->Prefetch(i, ReplaySource::Warm::kRecord);
        source->Prefetch(i, ReplaySource::Warm::kEdges);
      }
    }

    LoomOptions lopts;
    lopts.partitioner.k = 2;
    lopts.partitioner.num_vertices_hint = stream.NumVertices();
    lopts.partitioner.num_edges_hint = stream.NumEdges();
    lopts.partitioner.window_size = 4;
    for (const std::string& name : KnownPartitioners()) {
      for (const RestreamOrder order :
           {RestreamOrder::kOriginal, RestreamOrder::kGain}) {
        SCOPED_TRACE(name + " " + RestreamOrderName(order));
        RestreamOptions ropts;
        ropts.num_passes = 3;
        ropts.order = order;
        const Restreamer in_memory(stream, ropts);
        const Restreamer from_file(file->get(), ropts);
        auto p1 = MakePartitioner(name, lopts, trie->get());
        auto p2 = MakePartitioner(name, lopts, trie->get());
        ASSERT_TRUE(p1.ok() && p2.ok());
        const RestreamResult want = in_memory.Run(p1->get());
        const RestreamResult got = from_file.Run(p2->get());
        ASSERT_EQ(want.passes.size(), got.passes.size());
        for (size_t i = 0; i < want.passes.size(); ++i) {
          EXPECT_EQ(want.passes[i].edge_cut_fraction,
                    got.passes[i].edge_cut_fraction);
          EXPECT_EQ(want.passes[i].migration_fraction,
                    got.passes[i].migration_fraction);
        }
        EXPECT_EQ(want.assignment.NumAssigned(), stream.NumVertices());
        EXPECT_EQ(FirstDifference(want.assignment, got.assignment, id_bound),
                  kInvalidVertex);
        ExpectSameStream(in_memory.ReplayStream(order, want.assignment),
                         from_file.ReplayStream(order, want.assignment));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ArrivalSourceTest, ResidencyDropsOnlyAMappingLargerThanItsBudget) {
  // A mapping no larger than the residency budget can never hold more than
  // the budget resident, so a 3-pass restream at the default budget drops
  // nothing. A budget below the file's size drops the mapping, and the
  // re-faulted pages give the same placements.
  const GraphStream stream = MakeTestStream(1200, 12);
  const std::string path = TempPath("loom_residency.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  auto roomy = FileArrivalSource::Open(path);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  StreamOpenOptions tight_options;
  tight_options.residency_budget_bytes = 4096;
  auto tight = FileArrivalSource::Open(path, tight_options);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  ASSERT_LE((*roomy)->info().file_bytes,
            StreamOpenOptions().residency_budget_bytes);
  ASSERT_GT((*tight)->info().file_bytes, tight_options.residency_budget_bytes);

  RestreamOptions ropts;
  ropts.num_passes = 3;
  PartitionerOptions popts;
  popts.num_vertices_hint = stream.NumVertices();
  popts.num_edges_hint = stream.NumEdges();
  auto a = MakePartitioner("ldg", popts);
  auto b = MakePartitioner("ldg", popts);
  ASSERT_TRUE(a.ok() && b.ok());
  const RestreamResult want = Restreamer(roomy->get(), ropts).Run(a->get());
  const RestreamResult got = Restreamer(tight->get(), ropts).Run(b->get());
  EXPECT_EQ((*roomy)->residency_drops(), 0u);
  EXPECT_GT((*tight)->residency_drops(), 0u);
  EXPECT_EQ(want.edge_cut_fraction, got.edge_cut_fraction);
  EXPECT_EQ(FirstDifference(want.assignment, got.assignment,
                            stream.NumVertices()),
            kInvalidVertex);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace loom

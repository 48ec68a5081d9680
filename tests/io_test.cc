// Round-trip and robustness tests for workload and assignment serialization,
// plus the loom-stream binary format (graph/io.h): GraphStream round-trips,
// malformed-file rejection, and endianness-pinned golden bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "partition/partition_io.h"
#include "stream/stream.h"
#include "workload/query_builders.h"
#include "workload/workload_io.h"

namespace loom {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(WorkloadIoTest, RoundTrip) {
  Workload w;
  ASSERT_TRUE(w.Add("fof", PathQuery({0, 0, 0}), 4.0).ok());
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 2.0).ok());
  ASSERT_TRUE(w.Add("star", StarQuery(1, {2, 3}), 1.0).ok());

  const std::string path = TempPath("loom_workload_test.loom");
  ASSERT_TRUE(SaveWorkload(w, path).ok());
  auto loaded = LoadWorkload(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->NumQueries(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const QuerySpec& a = w.queries()[i];
    const QuerySpec& b = loaded->queries()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.frequency, b.frequency);
    EXPECT_EQ(a.pattern.NumVertices(), b.pattern.NumVertices());
    EXPECT_EQ(a.pattern.NumEdges(), b.pattern.NumEdges());
    for (VertexId v = 0; v < a.pattern.NumVertices(); ++v) {
      EXPECT_EQ(a.pattern.LabelOf(v), b.pattern.LabelOf(v));
    }
  }
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, MissingFile) {
  EXPECT_EQ(LoadWorkload("/nonexistent/w.loom").status().code(),
            StatusCode::kIOError);
}

TEST(WorkloadIoTest, BadHeader) {
  const std::string path = TempPath("loom_workload_bad.loom");
  {
    std::ofstream out(path);
    out << "not-a-workload\n";
  }
  EXPECT_EQ(LoadWorkload(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, UnterminatedQueryBlock) {
  const std::string path = TempPath("loom_workload_trunc.loom");
  {
    std::ofstream out(path);
    out << "loom-workload 1\nquery q 1.0 2\nl 0 0\nl 1 1\ne 0 1\n";
  }
  EXPECT_FALSE(LoadWorkload(path).ok());
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, DisconnectedPatternRejectedOnLoad) {
  const std::string path = TempPath("loom_workload_disc.loom");
  {
    std::ofstream out(path);
    out << "loom-workload 1\nquery q 1.0 2\nl 0 0\nl 1 1\nend\n";
  }
  EXPECT_FALSE(LoadWorkload(path).ok());
  std::remove(path.c_str());
}

TEST(AssignmentIoTest, RoundTrip) {
  PartitionAssignment a(4, 100);
  ASSERT_TRUE(a.Assign(0, 1).ok());
  ASSERT_TRUE(a.Assign(5, 3).ok());
  ASSERT_TRUE(a.Assign(2, 0).ok());

  const std::string path = TempPath("loom_assignment_test.loom");
  ASSERT_TRUE(SaveAssignment(a, path).ok());
  auto loaded = LoadAssignment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->k(), 4u);
  EXPECT_EQ(loaded->capacity(), 100u);
  EXPECT_EQ(loaded->NumAssigned(), 3u);
  EXPECT_EQ(loaded->PartOf(0), 1);
  EXPECT_EQ(loaded->PartOf(5), 3);
  EXPECT_EQ(loaded->PartOf(2), 0);
  EXPECT_EQ(loaded->PartOf(1), -1);
  std::remove(path.c_str());
}

TEST(AssignmentIoTest, RejectsInvalidPartition) {
  const std::string path = TempPath("loom_assignment_bad.loom");
  {
    std::ofstream out(path);
    out << "loom-assignment 1\nk 2 capacity 0\n0 7\n";
  }
  EXPECT_FALSE(LoadAssignment(path).ok());
  std::remove(path.c_str());
}

TEST(AssignmentIoTest, MissingHeader) {
  const std::string path = TempPath("loom_assignment_hdr.loom");
  {
    std::ofstream out(path);
    out << "garbage\n";
  }
  EXPECT_EQ(LoadAssignment(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// loom-stream binary format
// ---------------------------------------------------------------------------

GraphStream MakeTestStream(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  LabeledGraph g = BarabasiAlbert(n, 3, LabelConfig{4, 0.3}, rng);
  return MakeStream(g, StreamOrder::kRandom, rng);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(StreamFileTest, RoundTripMatchesGraphStream) {
  const GraphStream stream = MakeTestStream(300, 11);
  const std::string path = TempPath("loom_stream_roundtrip.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());

  auto opened = FileArrivalSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FileArrivalSource& file = **opened;
  EXPECT_EQ(file.NumVertices(), stream.NumVertices());
  EXPECT_EQ(file.NumEdges(), stream.NumEdges());
  EXPECT_TRUE(file.info().has_full_neighborhoods);

  // Two full drains (Reset between) both reproduce the recorded stream
  // exactly: same arrival order, labels and back-edge order.
  for (int pass = 0; pass < 2; ++pass) {
    file.Reset();
    ArrivalView view;
    for (const VertexArrival& expected : stream.arrivals()) {
      ASSERT_TRUE(file.Next(&view));
      EXPECT_EQ(view.vertex, expected.vertex);
      EXPECT_EQ(view.label, expected.label);
      ASSERT_EQ(view.back_edges.size(), expected.back_edges.size());
      for (size_t i = 0; i < expected.back_edges.size(); ++i) {
        EXPECT_EQ(view.back_edges[i], expected.back_edges[i]);
      }
    }
    EXPECT_FALSE(file.Next(&view));
  }
  std::remove(path.c_str());
}

TEST(StreamFileTest, FullViewMatchesMaterializedAdjacency) {
  const GraphStream stream = MakeTestStream(300, 12);
  const std::string path = TempPath("loom_stream_fullview.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());

  auto opened = FileArrivalSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const FileArrivalSource& file = **opened;

  // The cornerstone of out-of-core replay: each arrival's full slice (back
  // edges, then forward neighbours in their arrival order) is exactly the
  // adjacency order GraphFromStream materialises — so replaying from the
  // file is bit-identical to replaying from the rebuilt graph.
  const LabeledGraph g = GraphFromStream(stream);
  for (uint64_t i = 0; i < file.NumVertices(); ++i) {
    const FileArrivalSource::Record record = file.At(i);
    const std::vector<VertexId>& expected = g.Neighbors(record.vertex);
    ASSERT_EQ(record.full_edges.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(record.full_edges[j], expected[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(StreamFileTest, IncrementalWriterMatchesOneShot) {
  const GraphStream stream = MakeTestStream(200, 13);
  const std::string one_shot = TempPath("loom_stream_oneshot.loomstrm");
  const std::string incremental = TempPath("loom_stream_incr.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, one_shot).ok());

  auto writer = StreamFileWriter::Create(incremental);
  ASSERT_TRUE(writer.ok());
  for (const VertexArrival& a : stream.arrivals()) {
    ASSERT_TRUE((*writer)->Append(a.vertex, a.label, a.back_edges).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  EXPECT_EQ(ReadFileBytes(one_shot), ReadFileBytes(incremental));
  std::remove(one_shot.c_str());
  std::remove(incremental.c_str());
}

// The byte-exact layout of a tiny stream, pinned against docs/FORMATS.md.
// Written on any host, the file must equal these little-endian bytes; a
// big-endian writer that forgot to swap would fail here.
TEST(StreamFileTest, GoldenBytes) {
  GraphStream stream;
  stream.Append(VertexArrival{0, 7, {}});
  stream.Append(VertexArrival{1, 3, {0}});
  stream.Append(VertexArrival{2, 0, {0, 1}});
  const std::string path = TempPath("loom_stream_golden.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());

  std::string expected;
  const auto u32 = [&](uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      expected.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  const auto u64 = [&](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      expected.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  // Header (64 bytes).
  expected += "LOOMSTRM";  // magic, reads as little-endian 0x4D5254534D4F4F4C
  u32(1);                  // version
  u32(1);                  // flags: full neighbourhoods
  u64(3);                  // num_vertices
  u64(3);                  // id_bound
  u64(3);                  // num_edges
  u64(6);                  // edge_slots (2 per edge with full neighbourhoods)
  u64(0);                  // reserved
  u64(0);
  // Directory (24 bytes per arrival: vertex, label, back, full, offset).
  u32(0); u32(7); u32(0); u32(2); u64(0);
  u32(1); u32(3); u32(1); u32(2); u64(2);
  u32(2); u32(0); u32(2); u32(2); u64(4);
  // Edge array: per arrival back edges then forward neighbours in their
  // arrival order.
  u32(1); u32(2);  // arrival 0: forward to 1 and 2
  u32(0); u32(2);  // arrival 1: back 0, forward to 2
  u32(0); u32(1);  // arrival 2: back 0, 1

  EXPECT_EQ(ReadFileBytes(path), expected);
  std::remove(path.c_str());
}

TEST(StreamFileTest, RejectsMalformedFiles) {
  const GraphStream stream = MakeTestStream(50, 14);
  const std::string path = TempPath("loom_stream_malformed.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  const std::string good = ReadFileBytes(path);

  const auto expect_rejected = [&](std::string bytes, StatusCode code,
                                   const char* what) {
    WriteFileBytes(path, bytes);
    const auto opened = FileArrivalSource::Open(path);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_EQ(opened.status().code(), code) << what;
  };

  std::string bad = good;
  bad[0] = 'X';
  expect_rejected(bad, StatusCode::kInvalidArgument, "wrong magic");

  bad = good;
  bad[8] = 99;  // version field
  expect_rejected(bad, StatusCode::kInvalidArgument, "wrong version");

  bad = good;
  bad[12] = static_cast<char>(0xfe);  // flags field: unknown bits
  expect_rejected(bad, StatusCode::kInvalidArgument, "unknown flags");

  expect_rejected(good.substr(0, good.size() - 4),
                  StatusCode::kInvalidArgument, "truncated edge array");
  expect_rejected(good.substr(0, 32), StatusCode::kInvalidArgument,
                  "truncated header");

  bad = good;
  bad[kStreamFileHeaderBytes + 8] ^= 1;  // first record's back_degree
  expect_rejected(bad, StatusCode::kInvalidArgument, "corrupt directory");

  std::remove(path.c_str());
}

// Open() validates edge *values*, not just directory geometry: a corrupt
// edge slot could otherwise make consumers size O(4G) id-indexed tables (an
// endpoint past the id bound) or silently violate the no-self-loop stream
// invariant. Mutations target the flat edge array of the GoldenBytes layout
// (3 arrivals, edge words start at byte 136), so the directory stays
// perfectly consistent and only the value sweep can catch them.
TEST(StreamFileTest, RejectsCorruptEdgeValues) {
  GraphStream stream;
  stream.Append(VertexArrival{0, 7, {}});
  stream.Append(VertexArrival{1, 3, {0}});
  stream.Append(VertexArrival{2, 0, {0, 1}});
  const std::string path = TempPath("loom_stream_badedges.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());
  const std::string good = ReadFileBytes(path);

  const size_t edge_base = kStreamFileHeaderBytes + 3 * kStreamFileRecordBytes;
  const auto poke_edge_word = [&](size_t word, uint32_t value) {
    std::string bytes = good;
    for (int b = 0; b < 4; ++b) {
      bytes[edge_base + 4 * word + b] =
          static_cast<char>((value >> (8 * b)) & 0xff);
    }
    return bytes;
  };
  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    WriteFileBytes(path, bytes);
    const auto opened = FileArrivalSource::Open(path);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument) << what;
  };

  // Edge words: [1, 2, 0, 2, 0, 1] (see GoldenBytes); id_bound is 3.
  expect_rejected(poke_edge_word(0, 3), "endpoint == id_bound");
  expect_rejected(poke_edge_word(5, 0xffffffffu), "endpoint huge");
  // Word 2 is arrival 1's (vertex 1) back edge: 0 -> 1 is a self-loop.
  expect_rejected(poke_edge_word(2, 1), "self-loop edge record");
  // Word 4 is arrival 2's (vertex 2) first back edge.
  expect_rejected(poke_edge_word(4, 2), "self-loop in back edges");

  // The unmutated file still opens (the sweep has no false positives), and
  // so does a file whose validation ran under a tiny residency budget.
  WriteFileBytes(path, good);
  EXPECT_TRUE(FileArrivalSource::Open(path).ok());
  StreamOpenOptions tiny;
  tiny.residency_budget_bytes = 4096;
  EXPECT_TRUE(FileArrivalSource::Open(path, tiny).ok());
  std::remove(path.c_str());
}

// Crafted headers and records whose edge slice ends past the mapping. Open()
// must reject them before its validation sweep reads the slice, which would
// otherwise fault on the unmapped pages behind the file.
TEST(StreamFileTest, RejectsEdgeSlicesPastTheFile) {
  const auto crafted = [](uint64_t num_edges, uint64_t edge_slots,
                          uint32_t edge_words) {
    std::string bytes;
    const auto u32 = [&](uint32_t v) {
      for (int b = 0; b < 4; ++b) {
        bytes.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
      }
    };
    const auto u64 = [&](uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
      }
    };
    bytes += "LOOMSTRM";
    u32(1);                     // version
    u32(1);                     // flags: full neighbourhoods
    u64(1);                     // num_vertices
    u64(uint64_t{1} << 32);     // id_bound
    u64(num_edges);
    u64(edge_slots);
    u64(0);                     // reserved
    u64(0);
    // One arrival whose full degree runs far past the edge array. Its id is
    // one no stray word past the file is likely to equal, so a sweep that
    // reads the slice unchecked cannot stop early on a "self-loop" and
    // reject the file by chance.
    u32(0xd15ea5e7u); u32(0); u32(0); u32(0xfffffff0u); u64(0);
    for (uint32_t w = 0; w < edge_words; ++w) u32(0);
    return bytes;
  };
  const std::string path = TempPath("loom_stream_overrun.loomstrm");
  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    WriteFileBytes(path, bytes);
    const auto opened = FileArrivalSource::Open(path);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument) << what;
  };

  const std::string slice = crafted(1, 2, 2);
  ASSERT_EQ(slice.size(), 96u);
  expect_rejected(slice, "full degree past the edge array");
  // 2^62 slots of 4 bytes wrap to 0, so a multiplied-out size check would
  // accept this 88-byte file.
  const std::string wrapped =
      crafted(uint64_t{1} << 61, uint64_t{1} << 62, 0);
  ASSERT_EQ(wrapped.size(), 88u);
  expect_rejected(wrapped, "edge-slot count wraps the size check");
  std::remove(path.c_str());
}

TEST(StreamFileTest, WriterRejectsStreamInvariantViolations) {
  const std::string path = TempPath("loom_stream_invariants.loomstrm");
  const std::vector<VertexId> none;
  const auto reject = [&](VertexId vertex, const std::vector<VertexId>& backs,
                          const char* what) {
    auto writer = StreamFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(0, 0, none).ok());
    EXPECT_EQ((*writer)->Append(vertex, 0, backs).code(),
              StatusCode::kInvalidArgument)
        << what;
  };
  reject(1, {1}, "self-loop");
  reject(0, {}, "repeat arrival");
  reject(1, {2}, "forward edge");
  reject(1, {0, 0}, "duplicate edge");
  // No finished file may be left behind by failed writers.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(StreamFileTest, BackEdgeOnlyFiles) {
  const GraphStream stream = MakeTestStream(100, 15);
  const std::string path = TempPath("loom_stream_backonly.loomstrm");
  StreamFileOptions options;
  options.full_neighborhoods = false;
  ASSERT_TRUE(WriteStreamFile(stream, path, options).ok());

  // The file opens and At() aliases both spans to the same slice.
  auto opened = FileArrivalSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE((*opened)->info().has_full_neighborhoods);
  const FileArrivalSource::Record record = (*opened)->At(50);
  EXPECT_EQ(record.full_edges.data(), record.back_edges.data());
  EXPECT_EQ(record.full_edges.size(), record.back_edges.size());
  std::remove(path.c_str());
}

TEST(StreamFileTest, TinyResidencyBudgetStaysCorrect) {
  const GraphStream stream = MakeTestStream(200, 16);
  const std::string path = TempPath("loom_stream_residency.loomstrm");
  ASSERT_TRUE(WriteStreamFile(stream, path).ok());

  StreamOpenOptions options;
  options.residency_budget_bytes = 4096;  // drop pages constantly
  auto opened = FileArrivalSource::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  uint64_t edges = 0;
  ArrivalView view;
  for (int pass = 0; pass < 2; ++pass) {
    (*opened)->Reset();
    edges = 0;
    uint64_t vertices = 0;
    while ((*opened)->Next(&view)) {
      ++vertices;
      edges += view.back_edges.size();
    }
    EXPECT_EQ(vertices, stream.NumVertices());
    EXPECT_EQ(edges, stream.NumEdges());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Edge-list ingestion (graph/edge_list.h) — the loom_convert front door.
// Fuzz-style negative tests: malformed input must reject with a line-anchored
// error or normalize with accounting, never crash or mis-parse.
// ---------------------------------------------------------------------------

std::string WriteEdgeListFile(const std::string& name,
                              const std::string& text) {
  const std::string path = TempPath(name);
  WriteFileBytes(path, text);
  return path;
}

TEST(EdgeListTest, LoadsPlainEdgesWithCommentsAndTrailingColumns) {
  const std::string path = WriteEdgeListFile("loom_el_ok.txt",
                                             "# SNAP-style comment\n"
                                             "% matrix-market comment\n"
                                             "\n"
                                             "   \t  \n"
                                             "0 1 1234567890\n"
                                             "1 2\n"
                                             "2\t0\textra\tcolumns\n");
  EdgeListStats stats;
  auto loaded = LoadEdgeListGraph(path, EdgeListOptions{}, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(stats.self_loops, 0u);
  EXPECT_EQ(stats.duplicate_edges, 0u);
  std::remove(path.c_str());
}

TEST(EdgeListTest, NormalizesSelfLoopsAndDuplicates) {
  // Duplicates in both orientations and repeated self-loops collapse to one
  // clean undirected edge, with the drops accounted — loom_convert surfaces
  // these counts so silent corpus damage is visible.
  const std::string path = WriteEdgeListFile("loom_el_norm.txt",
                                             "5 5\n"
                                             "0 1\n"
                                             "1 0\n"
                                             "0 1\n"
                                             "7 7\n");
  EdgeListStats stats;
  auto loaded = LoadEdgeListGraph(path, EdgeListOptions{}, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumEdges(), 1u);
  EXPECT_EQ(stats.self_loops, 2u);
  EXPECT_EQ(stats.duplicate_edges, 2u);
  std::remove(path.c_str());
}

TEST(EdgeListTest, RemapsSparseIdsDensely) {
  // Raw ids map to dense first-appearance order, so a 3-line file with
  // billion-scale ids builds a 4-vertex graph, not a 4G-entry table.
  const std::string path = WriteEdgeListFile("loom_el_sparse.txt",
                                             "1000000000 7\n"
                                             "7 18446744073709551615\n"
                                             "1000000000 3\n");
  auto loaded = LoadEdgeListGraph(path, EdgeListOptions{}, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumVertices(), 4u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  // First-appearance interning is deterministic: 1000000000 -> 0, 7 -> 1.
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  std::remove(path.c_str());
}

TEST(EdgeListTest, RejectsMalformedLines) {
  const auto expect_rejected = [](const std::string& text, const char* what,
                                  const char* line_tag) {
    const std::string path = WriteEdgeListFile("loom_el_bad.txt", text);
    const auto loaded = LoadEdgeListGraph(path, EdgeListOptions{}, nullptr);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
    // Errors are anchored to the offending line number for triage.
    EXPECT_NE(loaded.status().ToString().find(line_tag), std::string::npos)
        << what << ": " << loaded.status().ToString();
    std::remove(path.c_str());
  };

  expect_rejected("0 1\n42\n", "single-token line", ":2");
  expect_rejected("-1 2\n", "negative id", ":1");
  expect_rejected("0 1\n1e5 2\n", "scientific notation", ":2");
  expect_rejected("0 12abc\n", "digits then garbage", ":1");
  expect_rejected("18446744073709551616 0\n", "uint64 overflow", ":1");
  expect_rejected("0x10 1\n", "hex id", ":1");
}

TEST(EdgeListTest, MissingFileIsRejected) {
  EXPECT_EQ(LoadEdgeListGraph("/nonexistent/edges.txt", EdgeListOptions{},
                              nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace loom

#ifndef LOOM_GRAPH_IO_H_
#define LOOM_GRAPH_IO_H_

/// \file
/// Graph and stream serialization.
///
/// Two formats live here:
///
/// **loom-graph** (text, line-oriented, '#' comments allowed) — small
/// fixtures and interchange:
///
///     loom-graph 1
///     n <num_vertices>
///     l <vertex> <label>        (one per vertex; default label 0)
///     e <u> <v>                 (one per undirected edge)
///
/// **loom-stream** (binary, little-endian, mmap-able) — the out-of-core
/// arrival-stream format behind FileArrivalSource: a fixed 64-byte header, a
/// fixed-record arrival directory (one 24-byte record per arrival, in stream
/// order, carrying vertex id, label, degrees and the record's offset into
/// the edge array) and a flat `uint32` edge array. When written with
/// `full_neighborhoods` (the default) each arrival's edge slice holds its
/// back edges followed by its forward neighbours in *their* arrival order —
/// the layout restream replay needs to score any vertex without
/// materialising the graph. Byte-level layout and versioning rules are
/// specified in docs/FORMATS.md; tests/io_test.cc pins golden bytes.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "graph/graph.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"

namespace loom {

/// Writes `g` to `path` in the loom-graph format.
Status SaveGraph(const LabeledGraph& g, const std::string& path);

/// Reads a graph from `path`; fails with IOError / InvalidArgument on
/// malformed input.
Result<LabeledGraph> LoadGraph(const std::string& path);

// ---------------------------------------------------------------------------
// loom-stream: binary on-disk arrival streams
// ---------------------------------------------------------------------------

/// First 8 file bytes: "LOOMSTRM" read as a little-endian uint64.
constexpr uint64_t kStreamFileMagic = 0x4D5254534D4F4F4CULL;
/// Current (and only) format version; see docs/FORMATS.md for the rules.
constexpr uint32_t kStreamFileVersion = 1;
/// Fixed header size in bytes.
constexpr size_t kStreamFileHeaderBytes = 64;
/// Fixed per-arrival directory record size in bytes.
constexpr size_t kStreamFileRecordBytes = 24;

/// Header facts of an open or freshly written stream file.
struct StreamFileInfo {
  uint32_t version = kStreamFileVersion;
  /// True when every arrival's edge slice also carries forward neighbours.
  bool has_full_neighborhoods = false;
  /// Arrival count (each vertex arrives exactly once).
  uint64_t num_vertices = 0;
  /// Max vertex id + 1 — sizes O(V) id-indexed consumer arrays; ids may be
  /// sparse, so this can exceed num_vertices.
  uint64_t id_bound = 0;
  /// Distinct undirected edges (== total back-edge entries).
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;
};

/// Writer knobs.
struct StreamFileOptions {
  /// Store full neighbourhoods (back + forward edges) per arrival. Required
  /// for out-of-core restream replay; costs 8 bytes/edge instead of 4.
  bool full_neighborhoods = true;
  /// Working-buffer bound for the forward-edge fill in Finish(); the writer
  /// makes ceil(edge_bytes / buffer) sequential sweeps of its temp log, so
  /// this trades peak memory against convert time. Minimum one page.
  size_t fill_buffer_bytes = 64ull << 20;
};

/// Incremental loom-stream writer with O(V) memory: arrivals are appended in
/// stream order to a temp log next to `path`, and `Finish()` assembles the
/// final file in bounded-buffer sweeps (it never holds the edge array in
/// memory). Enforces the stream invariants at append time: each vertex
/// arrives once, back edges point at earlier arrivals, no self-loops or
/// duplicate edges. The output file appears atomically at `path` (written as
/// `path.tmp`, then renamed); an unfinished writer leaves no final file.
class StreamFileWriter {
 public:
  /// Creates the temp files; fails with IOError when not writable and
  /// FailedPrecondition on big-endian hosts (the format is little-endian).
  static Result<std::unique_ptr<StreamFileWriter>> Create(
      const std::string& path, const StreamFileOptions& options = {});
  ~StreamFileWriter();

  StreamFileWriter(const StreamFileWriter&) = delete;
  StreamFileWriter& operator=(const StreamFileWriter&) = delete;

  /// Appends one arrival. InvalidArgument on invariant violations (repeat
  /// arrival, forward/self/duplicate edge); the writer is unusable after
  /// any error.
  Status Append(VertexId vertex, Label label, Span<const VertexId> back_edges);

  /// Drains `source` from its current position through Append.
  Status AppendAll(ArrivalSource& source);

  /// Assembles and renames the final file; call exactly once. info() is
  /// valid afterwards.
  Status Finish();

  /// Facts about the written file; meaningful once Finish() succeeded.
  const StreamFileInfo& info() const { return info_; }

 private:
  StreamFileWriter(std::string path, const StreamFileOptions& options);

  Status WriteLog(const void* data, size_t bytes);
  Status FinishImpl();

  std::string path_;
  StreamFileOptions options_;
  StreamFileInfo info_;
  /// Temp append log: per arrival `u32 vertex, u32 label, u32 back_degree,
  /// u32[back_degree] edges` — replayed sequentially by Finish's sweeps.
  std::FILE* log_ = nullptr;
  bool failed_ = false;
  bool finished_ = false;
  /// Arrival index of each seen vertex id (UINT32_MAX = unseen); O(id_bound).
  std::vector<uint32_t> arrival_index_of_;
  /// Forward-edge count per vertex id, accumulated as later arrivals carry
  /// edges back to it; O(id_bound).
  std::vector<uint32_t> forward_degree_of_;
  /// Per arrival index: vertex id and back degree; O(V).
  std::vector<uint32_t> vertex_by_index_;
  std::vector<uint32_t> back_degree_by_index_;
  /// Scratch for the duplicate-edge check.
  std::vector<VertexId> dedup_scratch_;
};

/// One-shot convenience: writes a materialised stream to `path`.
Status WriteStreamFile(const GraphStream& stream, const std::string& path,
                       const StreamFileOptions& options = {});

/// FileArrivalSource::Open knobs.
struct StreamOpenOptions {
  /// Mapped-resident bound (see FileArrivalSource); 0 disables the drops.
  size_t residency_budget_bytes = 64ull << 20;
};

/// Zero-copy access to an mmap-ed loom-stream file, both as a cursor and as
/// a random-access ReplaySource. `Next()` yields each arrival with its back
/// edges — the §3.1 arrival model every pass-one partitioner consumes — as
/// views that point straight into the mapping (no per-arrival allocation or
/// copy), and `Reset()` rewinds. `At()` returns any arrival with both
/// neighbourhood views, independent of the cursor; restream replay reads
/// full neighbourhoods through it. Open() validates the whole file (magic,
/// version, sizes, offset/degree consistency, plus every edge slot:
/// endpoints must be inside the id bound and never self-loops) so that
/// iteration and At() can trust every offset and edge value without further
/// checks.
///
/// Residency: consuming a mapped file faults its pages in, which would make
/// peak RSS O(file) and defeat the out-of-core design. When the file is
/// larger than `residency_budget_bytes`, the source therefore drops the
/// mapping (`madvise(MADV_DONTNEED)`) once after Open's validation sweep,
/// then tracks bytes touched by At/Next since the last drop and drops it
/// again whenever that exceeds the budget, bounding the mapping's resident
/// contribution by the budget (pages re-fault on the next pass). A file no
/// larger than the budget can never hold more than the budget resident, so
/// it is never dropped.
class FileArrivalSource final : public ArrivalSource, public ReplaySource {
 public:
  using OpenOptions = StreamOpenOptions;

  /// Maps and validates `path`. InvalidArgument on malformed or truncated
  /// files, IOError on filesystem failures, FailedPrecondition on
  /// big-endian hosts.
  static Result<std::unique_ptr<FileArrivalSource>> Open(
      const std::string& path, const OpenOptions& options = OpenOptions());
  ~FileArrivalSource() override;

  FileArrivalSource(const FileArrivalSource&) = delete;
  FileArrivalSource& operator=(const FileArrivalSource&) = delete;

  bool Next(ArrivalView* out) override;
  void Reset() override { pos_ = 0; }
  uint64_t NumVertices() const override { return info_.num_vertices; }
  uint64_t NumEdges() const override { return info_.num_edges; }

  const StreamFileInfo& info() const { return info_; }
  uint64_t IdBound() const override { return info_.id_bound; }

  /// Arrival record at `index` (< NumVertices()). Spans alias the mapping;
  /// on files without full neighbourhoods, `full_edges` == `back_edges`.
  Record At(uint64_t index) const override;

  /// kRecord warms the 24-byte directory record; kEdges reads it and warms
  /// the first lines of the arrival's edge slice.
  void Prefetch(uint64_t index, Warm what) const override;

  /// Residency drops of the whole mapping so far, Open's included (see the
  /// class comment); always 0 for a file no larger than the budget.
  uint64_t residency_drops() const { return residency_drops_; }

 private:
  FileArrivalSource() = default;

  /// True when the file is larger than a non-zero residency budget, the
  /// only case in which the mapping is ever dropped.
  static bool NeedsResidencyDrops(size_t file_bytes, const OpenOptions& o) {
    return o.residency_budget_bytes != 0 &&
           file_bytes > o.residency_budget_bytes;
  }

  void NoteTouched(size_t bytes) const;

  StreamFileInfo info_;
  OpenOptions options_;
  const unsigned char* map_ = nullptr;
  size_t map_bytes_ = 0;
  /// Directory and edge-array base pointers into the mapping.
  const unsigned char* directory_ = nullptr;
  const uint32_t* edges_ = nullptr;
  uint64_t pos_ = 0;
  /// Bytes touched since the last MADV_DONTNEED drop (see class comment).
  mutable size_t touched_bytes_ = 0;
  /// Backs residency_drops().
  mutable uint64_t residency_drops_ = 0;
};

}  // namespace loom

#endif  // LOOM_GRAPH_IO_H_

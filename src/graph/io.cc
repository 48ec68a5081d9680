#include "graph/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace loom {

Status SaveGraph(const LabeledGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << "loom-graph 1\n";
  out << "n " << g.NumVertices() << "\n";
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out << "l " << v << " " << g.LabelOf(v) << "\n";
  }
  g.ForEachEdge([&](VertexId u, VertexId v) {
    out << "e " << u << " " << v << "\n";
  });
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<LabeledGraph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);

  std::string line;
  if (!std::getline(in, line) || line.rfind("loom-graph", 0) != 0) {
    return Status::InvalidArgument("missing loom-graph header: " + path);
  }

  LabeledGraph g;
  size_t declared_n = 0;
  bool vertices_made = false;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    char kind = 0;
    ss >> kind;
    auto fail = [&](const std::string& why) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + why);
    };
    if (kind == 'n') {
      if (!(ss >> declared_n)) return fail("bad vertex count");
      for (size_t i = 0; i < declared_n; ++i) g.AddVertex(0);
      vertices_made = true;
    } else if (kind == 'l') {
      VertexId v = 0;
      Label l = 0;
      if (!(ss >> v >> l)) return fail("bad label line");
      if (!vertices_made || !g.HasVertex(v)) return fail("label before n");
      g.SetLabel(v, l);
    } else if (kind == 'e') {
      VertexId u = 0;
      VertexId v = 0;
      if (!(ss >> u >> v)) return fail("bad edge line");
      const Status s = g.AddEdge(u, v);
      if (!s.ok()) return fail("edge rejected: " + s.ToString());
    } else {
      return fail("unknown record kind");
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// loom-stream: binary on-disk arrival streams
// ---------------------------------------------------------------------------

namespace {

// The format is little-endian; on an LE host in-memory structs match the
// on-disk bytes exactly and the reader is zero-copy. BE hosts are rejected
// at Open/Create (no silent byte-swapped files).
constexpr bool HostIsLittleEndian() {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
  return __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
  return false;
#endif
}

// On-disk header, 64 bytes. Field order and widths are frozen for version 1;
// see docs/FORMATS.md before changing anything.
struct StreamFileHeader {
  uint64_t magic = kStreamFileMagic;
  uint32_t version = kStreamFileVersion;
  uint32_t flags = 0;
  uint64_t num_vertices = 0;
  uint64_t id_bound = 0;
  uint64_t num_edges = 0;
  uint64_t edge_slots = 0;
  uint64_t reserved[2] = {0, 0};
};
static_assert(sizeof(StreamFileHeader) == kStreamFileHeaderBytes,
              "frozen on-disk header size");

constexpr uint32_t kFlagFullNeighborhoods = 1u << 0;
constexpr uint32_t kKnownFlags = kFlagFullNeighborhoods;

// On-disk arrival directory record, 24 bytes.
struct StreamFileRecord {
  uint32_t vertex = 0;
  uint32_t label = 0;
  uint32_t back_degree = 0;
  uint32_t full_degree = 0;
  uint64_t edge_offset = 0;
};
static_assert(sizeof(StreamFileRecord) == kStreamFileRecordBytes,
              "frozen on-disk record size");

constexpr uint32_t kUnseen = ~uint32_t{0};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + ": " + path + ": " + std::strerror(errno);
}

}  // namespace

// ----- StreamFileWriter -----

StreamFileWriter::StreamFileWriter(std::string path,
                                   const StreamFileOptions& options)
    : path_(std::move(path)), options_(options) {
  info_.has_full_neighborhoods = options_.full_neighborhoods;
}

Result<std::unique_ptr<StreamFileWriter>> StreamFileWriter::Create(
    const std::string& path, const StreamFileOptions& options) {
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "loom-stream files are little-endian; big-endian hosts unsupported");
  }
  std::unique_ptr<StreamFileWriter> w(new StreamFileWriter(path, options));
  w->log_ = std::fopen((path + ".log").c_str(), "wb");
  if (w->log_ == nullptr) {
    return Status::IOError(ErrnoMessage("cannot create temp log", path));
  }
  return w;
}

StreamFileWriter::~StreamFileWriter() {
  if (log_ != nullptr) std::fclose(log_);
  if (!finished_) {
    // Abandoned writer: leave no partial outputs behind.
    std::remove((path_ + ".log").c_str());
    std::remove((path_ + ".tmp").c_str());
  }
}

Status StreamFileWriter::WriteLog(const void* data, size_t bytes) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, log_) != bytes) {
    failed_ = true;
    return Status::IOError(ErrnoMessage("temp log write failed", path_));
  }
  return Status::OK();
}

Status StreamFileWriter::Append(VertexId vertex, Label label,
                                Span<const VertexId> back_edges) {
  if (failed_ || finished_) {
    return Status::FailedPrecondition("Append on a failed/finished writer");
  }
  if (vertex == kInvalidVertex) {
    return Status::InvalidArgument("arrival with invalid vertex id");
  }
  if (vertex >= arrival_index_of_.size()) {
    arrival_index_of_.resize(vertex + 1, kUnseen);
    forward_degree_of_.resize(vertex + 1, 0);
  }
  if (arrival_index_of_[vertex] != kUnseen) {
    failed_ = true;
    return Status::InvalidArgument("vertex arrives twice: " +
                                   std::to_string(vertex));
  }
  // Stream invariants: back edges point at distinct earlier arrivals.
  dedup_scratch_.assign(back_edges.begin(), back_edges.end());
  std::sort(dedup_scratch_.begin(), dedup_scratch_.end());
  for (size_t i = 0; i < dedup_scratch_.size(); ++i) {
    const VertexId w = dedup_scratch_[i];
    const bool seen =
        w < arrival_index_of_.size() && arrival_index_of_[w] != kUnseen;
    if (w == vertex || !seen) {
      failed_ = true;
      return Status::InvalidArgument(
          "back edge to non-earlier vertex: " + std::to_string(vertex) +
          " -> " + std::to_string(w));
    }
    if (i > 0 && dedup_scratch_[i - 1] == w) {
      failed_ = true;
      return Status::InvalidArgument("duplicate edge: " +
                                     std::to_string(vertex) + " -> " +
                                     std::to_string(w));
    }
  }
  for (const VertexId w : back_edges) ++forward_degree_of_[w];

  const uint32_t record[3] = {vertex, label,
                              static_cast<uint32_t>(back_edges.size())};
  LOOM_RETURN_IF_ERROR(WriteLog(record, sizeof(record)));
  LOOM_RETURN_IF_ERROR(
      WriteLog(back_edges.data(), back_edges.size() * sizeof(VertexId)));

  arrival_index_of_[vertex] = static_cast<uint32_t>(vertex_by_index_.size());
  vertex_by_index_.push_back(vertex);
  back_degree_by_index_.push_back(static_cast<uint32_t>(back_edges.size()));
  info_.num_edges += back_edges.size();
  return Status::OK();
}

Status StreamFileWriter::AppendAll(ArrivalSource& source) {
  ArrivalView view;
  while (source.Next(&view)) {
    LOOM_RETURN_IF_ERROR(Append(view.vertex, view.label, view.back_edges));
  }
  return Status::OK();
}

Status StreamFileWriter::Finish() {
  const Status s = FinishImpl();
  if (!s.ok()) {
    failed_ = true;
    std::remove((path_ + ".tmp").c_str());
  }
  finished_ = true;  // either way, the temp log is gone and Append is over
  return s;
}

Status StreamFileWriter::FinishImpl() {
  if (failed_ || finished_) {
    return Status::FailedPrecondition("Finish on a failed/finished writer");
  }
  if (std::fflush(log_) != 0) {
    return Status::IOError(ErrnoMessage("temp log flush failed", path_));
  }
  std::fclose(log_);
  log_ = nullptr;

  const uint64_t num_vertices = vertex_by_index_.size();
  const bool full = options_.full_neighborhoods;

  // Edge-slot offsets per arrival (prefix sums of the stored degree).
  std::vector<uint64_t> offset_by_index(num_vertices + 1, 0);
  for (uint64_t i = 0; i < num_vertices; ++i) {
    uint64_t degree = back_degree_by_index_[i];
    if (full) degree += forward_degree_of_[vertex_by_index_[i]];
    offset_by_index[i + 1] = offset_by_index[i] + degree;
  }
  const uint64_t edge_slots = offset_by_index[num_vertices];

  StreamFileHeader header;
  header.flags = full ? kFlagFullNeighborhoods : 0;
  header.num_vertices = num_vertices;
  header.id_bound = arrival_index_of_.size();
  header.num_edges = info_.num_edges;
  header.edge_slots = edge_slots;

  const std::string tmp_path = path_ + ".tmp";
  const std::string log_path = path_ + ".log";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError(ErrnoMessage("cannot create", tmp_path));
  }
  auto fail = [&](const std::string& what) {
    const Status s = Status::IOError(ErrnoMessage(what, tmp_path));
    std::fclose(out);
    return s;
  };
  if (std::fwrite(&header, 1, sizeof(header), out) != sizeof(header)) {
    return fail("header write failed");
  }

  // Directory pass: one sequential sweep of the log emits the fixed records
  // (labels live only in the log, so this is where they surface).
  std::FILE* log = std::fopen(log_path.c_str(), "rb");
  if (log == nullptr) return fail("cannot reopen temp log");
  auto read_log = [&](void* dst, size_t bytes) {
    return std::fread(dst, 1, bytes, log) == bytes;
  };
  std::vector<VertexId> edge_scratch;
  for (uint64_t i = 0; i < num_vertices; ++i) {
    uint32_t head[3];
    if (!read_log(head, sizeof(head))) {
      std::fclose(log);
      return fail("temp log truncated");
    }
    if (std::fseek(log, static_cast<long>(head[2] * sizeof(VertexId)),
                   SEEK_CUR) != 0) {
      std::fclose(log);
      return fail("temp log seek failed");
    }
    StreamFileRecord record;
    record.vertex = head[0];
    record.label = head[1];
    record.back_degree = head[2];
    record.full_degree =
        static_cast<uint32_t>(offset_by_index[i + 1] - offset_by_index[i]);
    record.edge_offset = offset_by_index[i];
    if (std::fwrite(&record, 1, sizeof(record), out) != sizeof(record)) {
      std::fclose(log);
      return fail("directory write failed");
    }
  }

  // Edge-array fill in bounded-buffer chunks: each chunk covers a contiguous
  // arrival-index range whose edge slots fit the buffer; one sequential log
  // sweep per chunk copies back edges into place and scatters this range's
  // forward neighbours. Memory stays O(V + buffer) regardless of E.
  const uint64_t buffer_slots =
      std::max<uint64_t>(1024, options_.fill_buffer_bytes / sizeof(VertexId));
  const uint64_t edge_array_base =
      kStreamFileHeaderBytes + num_vertices * kStreamFileRecordBytes;
  std::vector<VertexId> buffer;
  std::vector<uint32_t> fill_pos;
  uint64_t chunk_begin = 0;
  while (chunk_begin < num_vertices) {
    uint64_t chunk_end = chunk_begin;
    while (chunk_end < num_vertices &&
           offset_by_index[chunk_end + 1] - offset_by_index[chunk_begin] <=
               buffer_slots) {
      ++chunk_end;
    }
    if (chunk_end == chunk_begin) ++chunk_end;  // one oversized arrival
    const uint64_t base_slot = offset_by_index[chunk_begin];
    const uint64_t chunk_slots = offset_by_index[chunk_end] - base_slot;
    buffer.assign(chunk_slots, 0);
    fill_pos.assign(chunk_end - chunk_begin, 0);
    for (uint64_t i = chunk_begin; i < chunk_end; ++i) {
      fill_pos[i - chunk_begin] = back_degree_by_index_[i];
    }
    if (std::fseek(log, 0, SEEK_SET) != 0) {
      std::fclose(log);
      return fail("temp log rewind failed");
    }
    for (uint64_t i = 0; i < num_vertices; ++i) {
      uint32_t head[3];
      if (!read_log(head, sizeof(head))) {
        std::fclose(log);
        return fail("temp log truncated");
      }
      edge_scratch.resize(head[2]);
      if (!read_log(edge_scratch.data(), head[2] * sizeof(VertexId))) {
        std::fclose(log);
        return fail("temp log truncated");
      }
      if (i >= chunk_begin && i < chunk_end) {
        std::copy(edge_scratch.begin(), edge_scratch.end(),
                  buffer.begin() + (offset_by_index[i] - base_slot));
      }
      if (!full) continue;
      for (const VertexId w : edge_scratch) {
        const uint32_t j = arrival_index_of_[w];
        if (j < chunk_begin || j >= chunk_end) continue;
        const uint64_t slot =
            offset_by_index[j] - base_slot + fill_pos[j - chunk_begin]++;
        buffer[slot] = head[0];
      }
    }
    if (std::fseek(out,
                   static_cast<long>(edge_array_base +
                                     base_slot * sizeof(VertexId)),
                   SEEK_SET) != 0) {
      std::fclose(log);
      return fail("output seek failed");
    }
    if (chunk_slots != 0 &&
        std::fwrite(buffer.data(), sizeof(VertexId), chunk_slots, out) !=
            chunk_slots) {
      std::fclose(log);
      return fail("edge array write failed");
    }
    chunk_begin = chunk_end;
  }
  std::fclose(log);
  std::remove(log_path.c_str());
  if (std::fflush(out) != 0 || std::fclose(out) != 0) {
    return Status::IOError(ErrnoMessage("finalize failed", tmp_path));
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename failed", path_));
  }

  info_.version = kStreamFileVersion;
  info_.num_vertices = num_vertices;
  info_.id_bound = header.id_bound;
  info_.file_bytes = edge_array_base + edge_slots * sizeof(VertexId);
  return Status::OK();
}

Status WriteStreamFile(const GraphStream& stream, const std::string& path,
                       const StreamFileOptions& options) {
  std::unique_ptr<StreamFileWriter> writer;
  LOOM_ASSIGN_OR_RETURN(writer, StreamFileWriter::Create(path, options));
  StreamCursor cursor(stream);
  LOOM_RETURN_IF_ERROR(writer->AppendAll(cursor));
  return writer->Finish();
}

// ----- FileArrivalSource -----

Result<std::unique_ptr<FileArrivalSource>> FileArrivalSource::Open(
    const std::string& path, const OpenOptions& options) {
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "loom-stream files are little-endian; big-endian hosts unsupported");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IOError(ErrnoMessage("fstat failed", path));
    ::close(fd);
    return s;
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  auto reject = [&](const std::string& why) {
    ::close(fd);
    return Status::InvalidArgument("not a loom-stream file: " + path + ": " +
                                   why);
  };
  if (file_bytes < kStreamFileHeaderBytes) return reject("truncated header");

  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::IOError(ErrnoMessage("mmap failed", path));
  }
  const unsigned char* bytes = static_cast<const unsigned char*>(map);

  StreamFileHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  auto reject_mapped = [&](const std::string& why) {
    ::munmap(map, file_bytes);
    return reject(why);
  };
  if (header.magic != kStreamFileMagic) return reject_mapped("bad magic");
  if (header.version != kStreamFileVersion) {
    return reject_mapped("unsupported version " +
                         std::to_string(header.version));
  }
  if ((header.flags & ~kKnownFlags) != 0) return reject_mapped("unknown flags");
  const bool full = (header.flags & kFlagFullNeighborhoods) != 0;
  const uint64_t expected_slots =
      full ? 2 * header.num_edges : header.num_edges;
  if (header.edge_slots != expected_slots) {
    return reject_mapped("edge-slot count inconsistent with edge count");
  }
  if (header.id_bound > (uint64_t{1} << 32) ||
      header.num_vertices > header.id_bound) {
    return reject_mapped("implausible vertex counts");
  }
  // The edge array's size is divided, never multiplied out: a corrupt
  // edge_slots times 4 could wrap. num_vertices <= 2^32, so the directory's
  // size cannot.
  const uint64_t prefix_bytes =
      kStreamFileHeaderBytes + header.num_vertices * kStreamFileRecordBytes;
  if (file_bytes < prefix_bytes ||
      (file_bytes - prefix_bytes) % sizeof(VertexId) != 0 ||
      (file_bytes - prefix_bytes) / sizeof(VertexId) != header.edge_slots) {
    return reject_mapped("file size inconsistent with header");
  }
  // Directory validation: exact prefix-sum offsets and in-bound degrees.
  // After this sweep every At()/Next() access is provably in bounds.
  const unsigned char* directory = bytes + kStreamFileHeaderBytes;
  const uint32_t* edge_slots_base = reinterpret_cast<const uint32_t*>(
      directory + header.num_vertices * kStreamFileRecordBytes);
  uint64_t running_offset = 0;
  uint64_t back_edge_total = 0;
  for (uint64_t i = 0; i < header.num_vertices; ++i) {
    StreamFileRecord record;
    std::memcpy(&record, directory + i * kStreamFileRecordBytes,
                sizeof(record));
    if (record.vertex >= header.id_bound) {
      return reject_mapped("vertex id outside id bound");
    }
    if (record.back_degree > record.full_degree) {
      return reject_mapped("back degree exceeds full degree");
    }
    if (!full && record.back_degree != record.full_degree) {
      return reject_mapped("forward edges in a back-edge-only file");
    }
    if (record.edge_offset != running_offset) {
      return reject_mapped("edge offsets are not a prefix sum");
    }
    if (record.full_degree > header.edge_slots - running_offset) {
      return reject_mapped("edge slice runs past the edge array");
    }
    // Edge-value validation: every slot must name a real vertex (an
    // out-of-range id would make consumers size their tables off corrupt
    // data) and never the record's own vertex (self-loop).
    for (uint32_t j = 0; j < record.full_degree; ++j) {
      const uint32_t endpoint = edge_slots_base[record.edge_offset + j];
      if (endpoint >= header.id_bound) {
        return reject_mapped("edge endpoint outside id bound");
      }
      if (endpoint == record.vertex) {
        return reject_mapped("self-loop edge record");
      }
    }
    running_offset += record.full_degree;
    back_edge_total += record.back_degree;
  }
  if (running_offset != header.edge_slots) {
    return reject_mapped("degrees inconsistent with edge-slot count");
  }
  if (back_edge_total != header.num_edges) {
    return reject_mapped("back degrees inconsistent with edge count");
  }

  // The validation sweep faulted the whole file in; start cold when the
  // file is larger than the residency budget, so the sweep itself cannot
  // blow the budget's RSS contract.
  std::unique_ptr<FileArrivalSource> source(new FileArrivalSource());
  if (NeedsResidencyDrops(file_bytes, options)) {
    ::madvise(map, file_bytes, MADV_DONTNEED);
    source->residency_drops_ = 1;
  }

  source->info_.version = header.version;
  source->info_.has_full_neighborhoods = full;
  source->info_.num_vertices = header.num_vertices;
  source->info_.id_bound = header.id_bound;
  source->info_.num_edges = header.num_edges;
  source->info_.file_bytes = file_bytes;
  source->options_ = options;
  source->map_ = bytes;
  source->map_bytes_ = file_bytes;
  source->directory_ = directory;
  source->edges_ = reinterpret_cast<const uint32_t*>(
      directory + header.num_vertices * kStreamFileRecordBytes);
  return source;
}

FileArrivalSource::~FileArrivalSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
  }
}

void FileArrivalSource::NoteTouched(size_t bytes) const {
  if (!NeedsResidencyDrops(map_bytes_, options_)) return;
  touched_bytes_ += bytes;
  if (touched_bytes_ < options_.residency_budget_bytes) return;
  // Drop the whole mapping's resident pages; the clean file-backed pages
  // re-fault from the page cache (or disk) on the next touch.
  ::madvise(const_cast<unsigned char*>(map_), map_bytes_, MADV_DONTNEED);
  touched_bytes_ = 0;
  ++residency_drops_;
}

ReplaySource::Record FileArrivalSource::At(uint64_t index) const {
  StreamFileRecord record;
  std::memcpy(&record, directory_ + index * kStreamFileRecordBytes,
              sizeof(record));
  Record out;
  out.vertex = record.vertex;
  out.label = record.label;
  const uint32_t* slice = edges_ + record.edge_offset;
  out.back_edges = Span<const VertexId>(slice, record.back_degree);
  out.full_edges = Span<const VertexId>(slice, record.full_degree);
  NoteTouched(kStreamFileRecordBytes + record.full_degree * sizeof(VertexId));
  return out;
}

void FileArrivalSource::Prefetch(uint64_t index, Warm what) const {
  const unsigned char* entry = directory_ + index * kStreamFileRecordBytes;
  if (what == Warm::kRecord) {
    // A record can straddle two cache lines.
    __builtin_prefetch(entry);
    __builtin_prefetch(entry + kStreamFileRecordBytes - 1);
    return;
  }
  StreamFileRecord record;
  std::memcpy(&record, entry, sizeof(record));
  // The slice's first cache lines: all of a typical neighbourhood, and the
  // part of a hub's that is read first.
  constexpr uintptr_t kLineBytes = 64;
  constexpr uintptr_t kSliceLines = 4;
  const auto begin = reinterpret_cast<uintptr_t>(edges_ + record.edge_offset);
  const uintptr_t end = begin + record.full_degree * sizeof(VertexId);
  const uintptr_t first = begin & ~(kLineBytes - 1);
  for (uintptr_t line = first;
       line < end && line < first + kSliceLines * kLineBytes;
       line += kLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

bool FileArrivalSource::Next(ArrivalView* out) {
  if (pos_ >= info_.num_vertices) return false;
  const Record record = At(pos_++);
  out->vertex = record.vertex;
  out->label = record.label;
  out->back_edges = record.back_edges;
  return true;
}

}  // namespace loom

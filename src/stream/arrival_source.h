#ifndef LOOM_STREAM_ARRIVAL_SOURCE_H_
#define LOOM_STREAM_ARRIVAL_SOURCE_H_

/// \file
/// Pull-based arrival cursor — the out-of-core generalisation of the
/// materialised GraphStream. An ArrivalSource yields vertex arrivals one at a
/// time as borrowed views, so the same consumer code (partitioners, the
/// restreamer, the serving ingest path, the bench harness) runs over an
/// in-memory GraphStream, an mmap-backed stream file (graph/io.h) or a
/// generator that never materialises the graph at all (graph/generators.h).
/// `Reset()` rewinds for multi-pass replay; a source is required to
/// reproduce the identical arrival sequence after a rewind, which is what
/// makes restreaming and keep-best comparisons meaningful.

#include <cstdint>

#include "common/span.h"
#include "graph/graph.h"
#include "stream/stream.h"

namespace loom {

/// Forward cursor over vertex arrivals. Single-consumer; not thread-safe.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Advances to the next arrival. Returns false at end of stream, leaving
  /// `*out` untouched; `out` must be non-null. The view written to `*out`
  /// stays valid until the next Next/Reset call on this source.
  virtual bool Next(ArrivalView* out) = 0;

  /// Rewinds to the first arrival; the replayed sequence is identical to the
  /// one already consumed (deterministic sources re-derive it from the seed).
  virtual void Reset() = 0;

  /// Total arrivals this source yields between Reset and end-of-stream.
  virtual uint64_t NumVertices() const = 0;

  /// Total distinct edges carried by the stream, or an estimate for
  /// generators that only know it in expectation (see the implementation's
  /// contract). Used to size Fennel's alpha and file headers, never for
  /// iteration bounds.
  virtual uint64_t NumEdges() const = 0;
};

/// Cursor over a borrowed in-memory GraphStream (must outlive the cursor).
/// Views alias the stream's own arrays (GraphStream::At), so they are stable
/// across Next — but consumers must not rely on that: other sources
/// invalidate eagerly.
class StreamCursor : public ArrivalSource {
 public:
  explicit StreamCursor(const GraphStream& stream) : stream_(&stream) {}

  bool Next(ArrivalView* out) override;
  void Reset() override { pos_ = 0; }
  uint64_t NumVertices() const override { return stream_->NumVertices(); }
  uint64_t NumEdges() const override { return stream_->NumEdges(); }

 private:
  const GraphStream* stream_;
  size_t pos_ = 0;
};

/// Random-access view of a recorded stream: the one surface restream replay
/// reads, whether the arrivals live in memory (StreamReplay) or in an mmap-ed
/// stream file (FileArrivalSource, graph/io.h). Arrival `i` carries both
/// neighbourhood views: its back edges (the pass-one arrival, and the edges a
/// cut sweep counts exactly once) and its full neighbourhood (back edges,
/// then forward neighbours in their arrival order), which later passes
/// replay and prioritized orderings score. At() moves no cursor.
class ReplaySource {
 public:
  /// One arrival with both views. Spans alias the source's storage and stay
  /// valid while the source lives.
  struct Record {
    VertexId vertex = kInvalidVertex;
    Label label = 0;
    Span<const VertexId> back_edges;
    Span<const VertexId> full_edges;
  };

  virtual ~ReplaySource() = default;

  /// Arrival count.
  virtual uint64_t NumVertices() const = 0;
  /// Distinct undirected edges (== back-edge entries of a valid stream).
  virtual uint64_t NumEdges() const = 0;
  /// Max vertex id + 1; sizes id-indexed arrays (ids may be sparse).
  virtual uint64_t IdBound() const = 0;
  /// Arrival record at `index` (< NumVertices()).
  virtual Record At(uint64_t index) const = 0;

  /// What a Prefetch hint warms.
  enum class Warm {
    /// The arrival's record: what At reads before it can find the edges.
    kRecord,
    /// The record and the first cache lines of the full neighbourhood. Reads
    /// the record, so it should follow a kRecord hint for the same index.
    kEdges,
  };

  /// Hint that At(`index`) (< NumVertices()) comes soon, so a replay in a
  /// random order can start the loads it would otherwise stall on. Moves no
  /// cursor, reads nothing outside the source and changes no result; a
  /// hint's reads are charged to a residency budget only when At reads the
  /// arrival.
  virtual void Prefetch(uint64_t index, Warm what) const = 0;
};

/// ReplaySource over a borrowed in-memory GraphStream (must outlive it).
/// Back edges are slices of the stream's edge array; full neighbourhoods
/// come from the one O(V + E) GraphFromStream rebuild made at construction.
class StreamReplay final : public ReplaySource {
 public:
  explicit StreamReplay(const GraphStream& stream);

  uint64_t NumVertices() const override { return stream_->NumVertices(); }
  uint64_t NumEdges() const override { return graph_.NumEdges(); }
  uint64_t IdBound() const override { return graph_.NumVertices(); }
  Record At(uint64_t index) const override;
  void Prefetch(uint64_t index, Warm what) const override;

 private:
  const GraphStream* stream_;
  LabeledGraph graph_;
};

/// Drains `source` (from its current position) into an owning GraphStream —
/// the bridge back to consumers that genuinely need random access. This is
/// the O(E)-memory operation the cursor refactor exists to avoid; call sites
/// are expected to be small streams (tests).
GraphStream MaterializeStream(ArrivalSource& source);

}  // namespace loom

#endif  // LOOM_STREAM_ARRIVAL_SOURCE_H_

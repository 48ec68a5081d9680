#ifndef LOOM_STREAM_ARRIVAL_SOURCE_H_
#define LOOM_STREAM_ARRIVAL_SOURCE_H_

/// \file
/// Pull-based arrival cursor — the out-of-core generalisation of the
/// materialised GraphStream. An ArrivalSource yields vertex arrivals one at a
/// time as borrowed views, so the same consumer code (partitioners, the
/// restreamer, the serving ingest path, the bench harness) runs over an
/// in-memory vector, an mmap-backed stream file (graph/io.h) or a generator
/// that never materialises the graph at all (graph/generators.h). `Reset()`
/// rewinds for multi-pass replay; a source is required to reproduce the
/// identical arrival sequence after a rewind, which is what makes
/// restreaming and keep-best comparisons meaningful.

#include <cstdint>

#include "common/span.h"
#include "graph/graph.h"
#include "stream/stream.h"

namespace loom {

/// One arrival as a borrowed view: valid only until the producing source is
/// advanced (`Next`), rewound (`Reset`) or destroyed. Copy the data out if it
/// must outlive the cursor step (see MaterializeStream).
struct ArrivalView {
  VertexId vertex = kInvalidVertex;
  Label label = 0;
  /// Neighbours of `vertex` that arrived strictly earlier, in stream order.
  /// Replay sources (restreaming) may instead carry the *full* neighbourhood;
  /// consumers score unknown neighbours through the prior either way.
  Span<const VertexId> back_edges;
};

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
/// Views alias the stream's own vectors, so they are stable across Next —
/// but consumers must not rely on that: other sources invalidate eagerly.
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

/// Drains `source` (from its current position) into an owning GraphStream —
/// the bridge back to consumers that genuinely need random access. This is
/// the O(E)-memory operation the cursor refactor exists to avoid; call sites
/// are expected to be small streams (tests).
GraphStream MaterializeStream(ArrivalSource& source);

}  // namespace loom

#endif  // LOOM_STREAM_ARRIVAL_SOURCE_H_

#ifndef LOOM_STREAM_STREAM_H_
#define LOOM_STREAM_STREAM_H_

/// \file
/// The graph-stream model (§3.1): an ordering over the elements of a dynamic
/// graph. loom uses the standard streaming-partitioner arrival model of
/// Stanton & Kliot: each vertex arrives once, carrying the edges to its
/// already-arrived neighbours ("back edges"). Orderings determine the
/// permutation; the paper names random, adversarial and stochastic orderings,
/// and we add BFS/DFS which the streaming-partitioning literature evaluates.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/span.h"
#include "graph/graph.h"

namespace loom {

/// One vertex arrival with its edges to earlier arrivals, as an owned
/// record: what callers build and hand to GraphStream::Append and
/// Service::Ingest. A stream does not hold these; it packs them (GraphStream).
struct VertexArrival {
  VertexId vertex = kInvalidVertex;
  Label label = 0;
  /// Neighbours of `vertex` that arrived strictly earlier.
  std::vector<VertexId> back_edges;
};

/// One arrival as a borrowed view into storage owned elsewhere (a
/// GraphStream's arrays, a cursor's buffer, a mapped stream file). How long
/// it stays valid is the producer's contract (see GraphStream::At and
/// ArrivalSource::Next).
struct ArrivalView {
  VertexId vertex = kInvalidVertex;
  Label label = 0;
  /// Neighbours of `vertex` that arrived strictly earlier, in stream order.
  /// Replay sources (restreaming) may instead carry the *full* neighbourhood;
  /// consumers score unknown neighbours through the prior either way.
  Span<const VertexId> back_edges;
};

/// How the stream orders vertices (paper §3.1).
enum class StreamOrder {
  /// Uniformly random permutation.
  kRandom,
  /// Breadth-first from a random start per component.
  kBfs,
  /// Depth-first from a random start per component.
  kDfs,
  /// Adversarial: a greedy maximal independent set arrives first, so greedy
  /// partitioners see long runs of disconnected vertices (§3.1's example).
  kAdversarial,
  /// Stochastic growth process: arrival probability grows with the number of
  /// already-arrived neighbours — models users joining a social network
  /// their friends are already in (§3.1 "generated by some stochastic
  /// process, such as user input").
  kStochastic,
  /// Vertex-id order; for generative models (Barabási–Albert) this is the
  /// natural temporal order.
  kNatural,
};

/// Human-readable ordering name for tables.
std::string StreamOrderName(StreamOrder order);

/// A fully materialised graph stream: vertex arrivals in order, stored as
/// CSR. Arrival i is vertex `vertices_[i]` with label `labels_[i]`, and its
/// back edges are `edges_[offsets_[i], offsets_[i + 1])`; every arrival's
/// back edges sit in the one `edges_` array, so building, copying or
/// appending a stream allocates per array, never per arrival.
class GraphStream {
 public:
  GraphStream() = default;
  /// Packs owned arrival records (Service::Ingest, fixtures).
  explicit GraphStream(Span<const VertexArrival> arrivals);

  size_t NumVertices() const { return vertices_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Arrival `i` (< NumVertices()). The view aliases the stream's arrays:
  /// valid until the stream is next appended to, assigned or destroyed.
  ArrivalView At(size_t i) const {
    return ArrivalView{
        vertices_[i], labels_[i],
        Span<const VertexId>(edges_.data() + offsets_[i],
                             offsets_[i + 1] - offsets_[i])};
  }

  /// Starts the loads At(`i`) makes before it reaches the back edges.
  void Prefetch(size_t i) const {
    __builtin_prefetch(vertices_.data() + i);
    __builtin_prefetch(labels_.data() + i);
    __builtin_prefetch(offsets_.data() + i);
  }

  /// Every arrival as an owned record: O(V + E) time and memory, one heap
  /// vector per arrival. For fixtures and drivers that need VertexArrival
  /// records; library code reads At or a StreamCursor instead.
  std::vector<VertexArrival> arrivals() const;

  /// Appends one arrival — the online-ingest path (serving layer records
  /// the live stream as it is fed, so a later restream/repartition pass can
  /// replay it). The caller is responsible for the stream invariants: each
  /// vertex arrives once and back edges point at earlier arrivals.
  /// `back_edges` must not point into this stream.
  void Append(VertexId vertex, Label label, Span<const VertexId> back_edges);
  void Append(const VertexArrival& arrival) {
    Append(arrival.vertex, arrival.label, arrival.back_edges);
  }
  /// Appends every arrival of `tail` (not `*this`), in order.
  void Append(const GraphStream& tail);

  /// Sizes the arrays for `arrivals` arrivals carrying `edges` back edges in
  /// all (as std::vector::reserve does), so appends up to that size do not
  /// reallocate.
  void Reserve(size_t arrivals, size_t edges);

 private:
  friend Result<GraphStream> MakeStreamFromOrder(
      const LabeledGraph& g, const std::vector<VertexId>& order);

  std::vector<VertexId> vertices_;
  std::vector<Label> labels_;
  /// Arrival i's back edges start at `offsets_[i]`: NumVertices() + 1
  /// entries from 0, or none in a stream that was never appended to.
  std::vector<uint64_t> offsets_;
  std::vector<VertexId> edges_;
};

/// Materialises the stream of `g` under `order`. Every vertex appears exactly
/// once and every edge is carried by its later endpoint.
GraphStream MakeStream(const LabeledGraph& g, StreamOrder order, Rng& rng);

/// Builds a stream from an explicit vertex order (tests, figures). Fails
/// with InvalidArgument unless `order` is a permutation of
/// [0, g.NumVertices()).
Result<GraphStream> MakeStreamFromOrder(const LabeledGraph& g,
                                        const std::vector<VertexId>& order);

/// Rebuilds the labelled graph a back-edge stream was materialised from:
/// every edge is carried exactly once by its later endpoint, so the union of
/// arrivals and back edges is (V, E). Duplicate edges are tolerated (kept
/// once); vertex ids never seen as arrivals get label 0. This is what lets a
/// restreaming/repartitioning pass reconstruct full neighbourhoods from a
/// recorded pass-one stream.
LabeledGraph GraphFromStream(const GraphStream& stream);

}  // namespace loom

#endif  // LOOM_STREAM_STREAM_H_

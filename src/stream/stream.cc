#include "stream/stream.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <string>

namespace loom {
namespace {

std::vector<VertexId> RandomOrder(const LabeledGraph& g, Rng& rng) {
  std::vector<VertexId> order(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) order[v] = v;
  rng.Shuffle(&order);
  return order;
}

std::vector<VertexId> TraversalOrder(const LabeledGraph& g, Rng& rng,
                                     bool breadth_first) {
  const size_t n = g.NumVertices();
  std::vector<VertexId> starts = RandomOrder(g, rng);
  std::vector<bool> seen(n, false);
  std::vector<VertexId> order;
  order.reserve(n);
  std::deque<VertexId> frontier;
  std::vector<VertexId> nbrs;  // scratch: the shuffled copy of one row
  for (const VertexId start : starts) {
    if (seen[start]) continue;
    seen[start] = true;
    frontier.push_back(start);
    while (!frontier.empty()) {
      VertexId v;
      if (breadth_first) {
        v = frontier.front();
        frontier.pop_front();
      } else {
        v = frontier.back();
        frontier.pop_back();
      }
      order.push_back(v);
      const std::vector<VertexId>& row = g.Neighbors(v);
      nbrs.assign(row.begin(), row.end());
      rng.Shuffle(&nbrs);
      for (const VertexId w : nbrs) {
        if (!seen[w]) {
          seen[w] = true;
          frontier.push_back(w);
        }
      }
    }
  }
  return order;
}

std::vector<VertexId> AdversarialOrder(const LabeledGraph& g, Rng& rng) {
  // Greedy maximal independent set over a random vertex order; those arrive
  // first (no back edges at all), the rest afterwards.
  std::vector<VertexId> scan = RandomOrder(g, rng);
  std::vector<bool> blocked(g.NumVertices(), false);
  std::vector<bool> in_set(g.NumVertices(), false);
  std::vector<VertexId> first;
  for (const VertexId v : scan) {
    if (blocked[v]) continue;
    in_set[v] = true;
    first.push_back(v);
    for (const VertexId w : g.Neighbors(v)) blocked[w] = true;
  }
  std::vector<VertexId> rest;
  for (const VertexId v : scan) {
    if (!in_set[v]) rest.push_back(v);
  }
  first.insert(first.end(), rest.begin(), rest.end());
  return first;
}

std::vector<VertexId> StochasticOrder(const LabeledGraph& g, Rng& rng) {
  // Ticket pool: every unarrived vertex holds one base ticket plus one per
  // already-arrived neighbour, so arrival probability grows with local
  // connectivity to the arrived region. Lazy deletion keeps it O(n + m).
  const size_t n = g.NumVertices();
  std::vector<bool> arrived(n, false);
  std::vector<VertexId> pool;
  pool.reserve(n * 2);
  for (VertexId v = 0; v < n; ++v) pool.push_back(v);
  std::vector<VertexId> order;
  order.reserve(n);
  size_t remaining = n;
  while (remaining > 0) {
    VertexId v = kInvalidVertex;
    // Rejection sampling over the lazy pool; guaranteed to terminate because
    // every unarrived vertex keeps its base ticket.
    while (true) {
      const size_t i = static_cast<size_t>(rng.UniformInt(0, pool.size() - 1));
      if (!arrived[pool[i]]) {
        v = pool[i];
        break;
      }
      // Compact lazily: overwrite the dead ticket with the last one.
      pool[i] = pool.back();
      pool.pop_back();
    }
    arrived[v] = true;
    --remaining;
    order.push_back(v);
    for (const VertexId w : g.Neighbors(v)) {
      if (!arrived[w]) pool.push_back(w);
    }
  }
  return order;
}

}  // namespace

std::string StreamOrderName(StreamOrder order) {
  switch (order) {
    case StreamOrder::kRandom:
      return "random";
    case StreamOrder::kBfs:
      return "bfs";
    case StreamOrder::kDfs:
      return "dfs";
    case StreamOrder::kAdversarial:
      return "adversarial";
    case StreamOrder::kStochastic:
      return "stochastic";
    case StreamOrder::kNatural:
      return "natural";
  }
  return "unknown";
}

GraphStream::GraphStream(Span<const VertexArrival> arrivals) {
  size_t edges = 0;
  for (const VertexArrival& a : arrivals) edges += a.back_edges.size();
  Reserve(arrivals.size(), edges);
  for (const VertexArrival& a : arrivals) Append(a);
}

std::vector<VertexArrival> GraphStream::arrivals() const {
  std::vector<VertexArrival> out(NumVertices());
  for (size_t i = 0; i < out.size(); ++i) {
    const ArrivalView a = At(i);
    out[i].vertex = a.vertex;
    out[i].label = a.label;
    out[i].back_edges.assign(a.back_edges.begin(), a.back_edges.end());
  }
  return out;
}

void GraphStream::Append(VertexId vertex, Label label,
                         Span<const VertexId> back_edges) {
  if (offsets_.empty()) offsets_.push_back(0);
  vertices_.push_back(vertex);
  labels_.push_back(label);
  edges_.insert(edges_.end(), back_edges.begin(), back_edges.end());
  offsets_.push_back(edges_.size());
}

void GraphStream::Append(const GraphStream& tail) {
  assert(&tail != this && "a stream cannot append itself");
  if (tail.vertices_.empty()) return;
  if (offsets_.empty()) offsets_.push_back(0);
  const uint64_t base = edges_.size();
  vertices_.insert(vertices_.end(), tail.vertices_.begin(),
                   tail.vertices_.end());
  labels_.insert(labels_.end(), tail.labels_.begin(), tail.labels_.end());
  edges_.insert(edges_.end(), tail.edges_.begin(), tail.edges_.end());
  const size_t first = offsets_.size();
  offsets_.insert(offsets_.end(), tail.offsets_.begin() + 1,
                  tail.offsets_.end());
  for (size_t i = first; i < offsets_.size(); ++i) offsets_[i] += base;
}

void GraphStream::Reserve(size_t arrivals, size_t edges) {
  vertices_.reserve(arrivals);
  labels_.reserve(arrivals);
  offsets_.reserve(arrivals + 1);
  edges_.reserve(edges);
}

GraphStream MakeStream(const LabeledGraph& g, StreamOrder order, Rng& rng) {
  std::vector<VertexId> perm;
  switch (order) {
    case StreamOrder::kRandom:
      perm = RandomOrder(g, rng);
      break;
    case StreamOrder::kBfs:
      perm = TraversalOrder(g, rng, /*breadth_first=*/true);
      break;
    case StreamOrder::kDfs:
      perm = TraversalOrder(g, rng, /*breadth_first=*/false);
      break;
    case StreamOrder::kAdversarial:
      perm = AdversarialOrder(g, rng);
      break;
    case StreamOrder::kStochastic:
      perm = StochasticOrder(g, rng);
      break;
    case StreamOrder::kNatural: {
      perm.resize(g.NumVertices());
      for (VertexId v = 0; v < g.NumVertices(); ++v) perm[v] = v;
      break;
    }
  }
  // Every order above is a permutation of the vertices.
  return std::move(MakeStreamFromOrder(g, perm)).value();
}

Result<GraphStream> MakeStreamFromOrder(const LabeledGraph& g,
                                        const std::vector<VertexId>& order) {
  const size_t n = g.NumVertices();
  if (order.size() != n) {
    return Status::InvalidArgument(
        "MakeStreamFromOrder: order holds " + std::to_string(order.size()) +
        " ids for a graph of " + std::to_string(n) + " vertices");
  }
  // Arrival position of each vertex; kUnplaced until its id is read, which
  // is also what rejects an id that is out of range or repeated.
  constexpr uint32_t kUnplaced = ~uint32_t{0};
  std::vector<uint32_t> position(n, kUnplaced);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    if (v >= n || position[v] != kUnplaced) {
      return Status::InvalidArgument(
          "MakeStreamFromOrder: order is not a permutation (id " +
          std::to_string(v) + " at index " + std::to_string(i) + ")");
    }
    position[v] = i;
  }

  // One pass in arrival order: every edge is carried by its later endpoint,
  // so the back edges fill exactly g.NumEdges() slots. The adjacency row an
  // arrival reads is prefetched kLookAhead arrivals ahead, since an order
  // other than kNatural visits the rows at random.
  constexpr uint32_t kLookAhead = 16;
  GraphStream stream;
  stream.Reserve(n, g.NumEdges());
  stream.offsets_.push_back(0);
  for (uint32_t i = 0; i < n; ++i) {
    if (i + kLookAhead < n) {
      __builtin_prefetch(g.Neighbors(order[i + kLookAhead]).data());
    }
    const VertexId v = order[i];
    stream.vertices_.push_back(v);
    stream.labels_.push_back(g.LabelOf(v));
    for (const VertexId w : g.Neighbors(v)) {
      if (position[w] < i) stream.edges_.push_back(w);
    }
    stream.offsets_.push_back(stream.edges_.size());
  }
  return stream;
}

LabeledGraph GraphFromStream(const GraphStream& stream) {
  LabeledGraph g;
  if (stream.NumVertices() == 0) return g;
  VertexId max_id = 0;
  for (size_t i = 0; i < stream.NumVertices(); ++i) {
    const ArrivalView a = stream.At(i);
    max_id = std::max(max_id, a.vertex);
    for (const VertexId w : a.back_edges) max_id = std::max(max_id, w);
  }
  for (VertexId v = 0; v <= max_id; ++v) g.AddVertex(0);
  for (size_t i = 0; i < stream.NumVertices(); ++i) {
    const ArrivalView a = stream.At(i);
    g.SetLabel(a.vertex, a.label);
    for (const VertexId w : a.back_edges) {
      const Status s = g.AddEdge(a.vertex, w);
      // Duplicates (full-neighbourhood streams) are tolerated, kept once.
      (void)s;
    }
  }
  return g;
}

}  // namespace loom

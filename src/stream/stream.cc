#include "stream/stream.h"

#include <algorithm>
#include <cassert>
#include <deque>

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
      std::vector<VertexId> nbrs = g.Neighbors(v);
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

size_t GraphStream::NumEdges() const {
  size_t m = 0;
  for (const auto& a : arrivals_) m += a.back_edges.size();
  return m;
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
  return MakeStreamFromOrder(g, perm);
}

GraphStream MakeStreamFromOrder(const LabeledGraph& g,
                                const std::vector<VertexId>& order) {
  assert(order.size() == g.NumVertices());
  std::vector<uint32_t> position(g.NumVertices(), 0);
  for (uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;

  std::vector<VertexArrival> arrivals;
  arrivals.reserve(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    const VertexId v = order[i];
    const std::vector<VertexId>& neighbors = g.Neighbors(v);
    const auto earlier = [&position, i](VertexId w) { return position[w] < i; };
    VertexArrival a;
    a.vertex = v;
    a.label = g.LabelOf(v);
    // Sized exactly: growing by push_back reallocates about log2(d) times
    // and can leave up to d - 1 unused slots per arrival.
    a.back_edges.reserve(static_cast<size_t>(
        std::count_if(neighbors.begin(), neighbors.end(), earlier)));
    for (const VertexId w : neighbors) {
      if (earlier(w)) a.back_edges.push_back(w);
    }
    arrivals.push_back(std::move(a));
  }
  return GraphStream(std::move(arrivals));
}

LabeledGraph GraphFromStream(const GraphStream& stream) {
  VertexId max_id = 0;
  bool any = false;
  for (const VertexArrival& a : stream.arrivals()) {
    max_id = std::max(max_id, a.vertex);
    for (const VertexId w : a.back_edges) max_id = std::max(max_id, w);
    any = true;
  }
  LabeledGraph g;
  if (!any) return g;
  for (VertexId v = 0; v <= max_id; ++v) g.AddVertex(0);
  for (const VertexArrival& a : stream.arrivals()) {
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

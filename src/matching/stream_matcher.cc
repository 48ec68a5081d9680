#include "matching/stream_matcher.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/hash.h"
#include "motif/canonical.h"

namespace loom {
namespace {

uint64_t EdgeBits(const Edge& e) {
  const Edge n = e.Normalized();
  return (static_cast<uint64_t>(n.u) << 32) | n.v;
}

bool ContainsVertex(const SmallVector<VertexId, 8>& sorted, VertexId v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

bool ContainsEdge(const SmallVector<Edge, 8>& sorted_edges, const Edge& e) {
  // Edge lists are kept sorted by their 64-bit normalized encoding.
  const uint64_t bits = EdgeBits(e);
  const auto it = std::lower_bound(
      sorted_edges.begin(), sorted_edges.end(), bits,
      [](const Edge& x, uint64_t b) { return EdgeBits(x) < b; });
  return it != sorted_edges.end() && EdgeBits(*it) == bits;
}

/// Inserts a normalized edge into a list kept sorted by encoding.
void InsertEdgeSorted(SmallVector<Edge, 8>* edges, const Edge& e) {
  const uint64_t bits = EdgeBits(e);
  const Edge* pos = std::lower_bound(
      edges->begin(), edges->end(), bits,
      [](const Edge& x, uint64_t b) { return EdgeBits(x) < b; });
  edges->insert(pos, e);
}

/// Membership test + insert into a sorted key set (the re-grow "considered"
/// set); returns true when newly inserted.
bool ConsiderOnce(SmallVector<uint64_t, 64>* sorted, uint64_t key) {
  uint64_t* pos = std::lower_bound(sorted->begin(), sorted->end(), key);
  if (pos != sorted->end() && *pos == key) return false;
  sorted->insert(pos, key);
  return true;
}

}  // namespace

StreamMatcher::StreamMatcher(const TpstryPP* trie,
                             const StreamMatcherOptions& options)
    : trie_(trie), options_(options) {
  frequent_ = trie_->FrequentBitmap(options_.frequency_threshold);
  useful_ = trie_->UsefulBitmap(options_.frequency_threshold);
}

uint64_t StreamMatcher::KeyOf(const SmallVector<Edge, 8>& edges) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const Edge& e : edges) h = HashCombine(h, EdgeBits(e));
  return h;
}

Label StreamMatcher::LabelIn(VertexId v) const {
  const int32_t s = SlotOf(v);
  assert(s >= 0);
  return label_by_slot_[s];
}

bool StreamMatcher::InAlphabet(Label label) const {
  return label < trie_->scheme().num_labels();
}

uint32_t StreamMatcher::AllocSlot(VertexId v) {
  if (v >= slot_of_.size()) {
    size_t grown = slot_of_.empty() ? 1024 : slot_of_.size() * 2;
    if (grown < static_cast<size_t>(v) + 1) grown = static_cast<size_t>(v) + 1;
    slot_of_.resize(grown, -1);
  }
  if (slot_of_[v] >= 0) return static_cast<uint32_t>(slot_of_[v]);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(label_by_slot_.size());
    label_by_slot_.emplace_back();
    id_by_slot_.emplace_back();
    adj_by_slot_.emplace_back();
    keys_by_slot_.emplace_back();
    in_closure_.push_back(0);
  }
  slot_of_[v] = static_cast<int32_t>(slot);
  id_by_slot_[slot] = v;
  return slot;
}

void StreamMatcher::OnVertex(VertexId v, Label label,
                             const std::vector<VertexId>& back_edges) {
  const bool fresh = SlotOf(v) < 0;
  const uint32_t slot = AllocSlot(v);
  // A duplicate arrival keeps the original label (emplace semantics of the
  // map this replaced); its adjacency keeps accumulating.
  if (fresh) label_by_slot_[slot] = label;
  for (const VertexId w : back_edges) {
    const int32_t ws = SlotOf(w);
    assert(ws >= 0 && "back edge endpoint not in window");
    if (ws < 0) continue;
    adj_by_slot_[slot].push_back(static_cast<uint32_t>(ws));
    adj_by_slot_[ws].push_back(slot);
  }
  // Edges with an out-of-alphabet endpoint can never start or extend a
  // motif; skipping them here keeps every signature update inside the
  // scheme (the stream's label universe may exceed the workload's).
  if (!InAlphabet(label_by_slot_[slot])) return;
  for (const VertexId w : back_edges) {
    const int32_t ws = SlotOf(w);
    if (ws >= 0 && InAlphabet(label_by_slot_[ws])) {
      ProcessEdge(static_cast<uint32_t>(ws), slot);
    }
  }
}

bool StreamMatcher::ResolveNode(Tracked* t) const {
  if (options_.verify_exact) {
    const std::string canon = CanonicalOf(*t);
    const auto node = trie_->FindBySignature(t->signature, &canon);
    if (!node.has_value()) return false;
    t->node = *node;
  } else {
    const auto node = trie_->FindBySignature(t->signature);
    if (!node.has_value()) return false;
    t->node = *node;
  }
  // A node from which no frequent node is reachable can neither be a motif
  // match nor grow into one — refuse to track it.
  if (!useful_[t->node]) return false;
  t->frequent = frequent_[t->node];
  return true;
}

std::string StreamMatcher::CanonicalOf(const Tracked& t) const {
  LabeledGraph g;
  std::unordered_map<VertexId, VertexId> local;
  for (size_t i = 0; i < t.vertices.size(); ++i) {
    local.emplace(t.vertices[i],
                  g.AddVertex(label_by_slot_[t.slots[i]]));
  }
  for (const Edge& e : t.edges) {
    g.AddEdgeUnchecked(local.at(e.u), local.at(e.v));
  }
  auto canon = CanonicalForm(g);
  return canon.ok() ? std::move(canon).value() : std::string();
}

bool StreamMatcher::Insert(Tracked t) {
  if (tracked_.size() >= options_.max_tracked) {
    ++stats_.tracked_dropped;
    return false;
  }
  const uint64_t key = KeyOf(t.edges);
  if (tracked_.count(key) > 0) return false;
  // Per-vertex saturation valve: bounds growth work in motif-dense windows.
  // The index uses lazy deletion, so compact each list before judging it.
  for (const uint32_t s : t.slots) {
    auto& keys = keys_by_slot_[s];
    if (keys.size() >= options_.max_tracked_per_vertex) {
      keys.erase(std::remove_if(keys.begin(), keys.end(),
                                [this](uint64_t k) {
                                  return tracked_.count(k) == 0;
                                }),
                 keys.end());
      if (keys.size() >= options_.max_tracked_per_vertex) {
        ++stats_.tracked_dropped;
        return false;
      }
    }
  }
  for (const uint32_t s : t.slots) keys_by_slot_[s].push_back(key);
  tracked_.emplace(key, std::move(t));
  stats_.max_tracked_live =
      std::max(stats_.max_tracked_live, static_cast<uint64_t>(tracked_.size()));
  return true;
}

StreamMatcher::SlotEdge StreamMatcher::EdgeBetween(uint32_t a_slot,
                                                   uint32_t b_slot) const {
  const VertexId a = id_by_slot_[a_slot];
  const VertexId b = id_by_slot_[b_slot];
  const Edge e = Edge{a, b}.Normalized();
  return e.u == a ? SlotEdge{e, a_slot, b_slot} : SlotEdge{e, b_slot, a_slot};
}

void StreamMatcher::Extend(Tracked* t, const SlotEdge& se, bool has_u,
                           bool has_v) const {
  const SignatureScheme& scheme = trie_->scheme();
  const Label lu = label_by_slot_[se.us];
  const Label lv = label_by_slot_[se.vs];
  InsertEdgeSorted(&t->edges, se.e);
  const auto add_vertex = [t](VertexId x, uint32_t xs) {
    const VertexId* pos =
        std::lower_bound(t->vertices.begin(), t->vertices.end(), x);
    const size_t i = static_cast<size_t>(pos - t->vertices.begin());
    t->vertices.insert(pos, x);
    t->slots.insert(t->slots.begin() + i, xs);
  };
  if (!has_u) {
    add_vertex(se.e.u, se.us);
    scheme.MultiplyVertex(&t->signature, lu);
  }
  if (!has_v) {
    add_vertex(se.e.v, se.vs);
    scheme.MultiplyVertex(&t->signature, lv);
  }
  scheme.MultiplyEdge(&t->signature, lu, lv);
}

bool StreamMatcher::TryGrow(const Tracked& base, uint32_t u_slot,
                            uint32_t v_slot) {
  const SlotEdge se = EdgeBetween(u_slot, v_slot);
  if (ContainsEdge(base.edges, se.e)) return false;
  const bool has_u = ContainsVertex(base.vertices, se.e.u);
  const bool has_v = ContainsVertex(base.vertices, se.e.v);
  if (!has_u && !has_v) return false;  // edge not incident to the sub-graph

  Tracked grown = base;
  Extend(&grown, se, has_u, has_v);
  if (!ResolveNode(&grown)) {
    ++stats_.growths_rejected;
    return false;
  }
  ++stats_.growths_accepted;
  // `base` may live in tracked_, which Insert can rehash: it is not read
  // from here on.
  Insert(std::move(grown));
  return true;
}

void StreamMatcher::ProcessEdge(uint32_t u_slot, uint32_t v_slot) {
  ++stats_.edges_processed;

  // Candidate bases: every tracked sub-graph touching either endpoint.
  SmallVector<uint64_t, 16> candidate_keys;
  for (const uint32_t s : {u_slot, v_slot}) {
    for (const uint64_t key : keys_by_slot_[s]) {
      candidate_keys.push_back(key);
    }
  }
  std::sort(candidate_keys.begin(), candidate_keys.end());
  candidate_keys.erase(
      std::unique(candidate_keys.begin(), candidate_keys.end()),
      candidate_keys.end());

  // §4.3: each tracked sub-graph's signature is "iteratively recomputed with
  // each update, and previous signatures discarded" — a successful growth
  // REPLACES the base sub-graph with the grown one.
  bool any_growth = false;
  const size_t max_edges = trie_->MaxMotifEdges();
  for (const uint64_t key : candidate_keys) {
    const auto it = tracked_.find(key);
    if (it == tracked_.end()) continue;
    if (it->second.edges.size() >= max_edges) continue;
    if (TryGrow(it->second, u_slot, v_slot)) {
      tracked_.erase(key);  // previous signature discarded (paper semantics)
      any_growth = true;
    }
  }
  if (any_growth) return;

  // The edge extended nothing. It may still begin a new motif instance:
  // with re-grow (Fig. 3) search the window for the largest motif match
  // containing it; otherwise just track the fresh edge sub-graph.
  if (options_.use_regrow) {
    ReGrow(u_slot, v_slot);
    return;
  }
  Tracked fresh;
  Extend(&fresh, EdgeBetween(u_slot, v_slot), false, false);
  if (ResolveNode(&fresh)) Insert(std::move(fresh));
}

void StreamMatcher::ReGrow(uint32_t u_slot, uint32_t v_slot) {
  ++stats_.regrow_invocations;
  const SlotEdge seed = EdgeBetween(u_slot, v_slot);
  Tracked current;
  Extend(&current, seed, false, false);
  if (!ResolveNode(&current)) return;  // the edge itself is not a motif

  // Frontier: window edges incident to the current sub-graph, explored FIFO
  // starting from the seed edge's endpoints; an edge rejected once is
  // discarded for good ("do not traverse to its neighbours"). Both the
  // frontier and the considered set are flat scratch (no node allocations).
  const size_t max_edges = trie_->MaxMotifEdges();
  SmallVector<SlotEdge, 32> frontier;
  size_t frontier_head = 0;
  SmallVector<uint64_t, 64> considered;
  ConsiderOnce(&considered, EdgeBits(seed.e));
  auto push_incident = [&](uint32_t x_slot) {
    for (const uint32_t ws : adj_by_slot_[x_slot]) {
      const SlotEdge se = EdgeBetween(x_slot, ws);
      if (ConsiderOnce(&considered, EdgeBits(se.e))) frontier.push_back(se);
    }
  };
  push_incident(u_slot);
  push_incident(v_slot);

  while (frontier_head < frontier.size() &&
         current.edges.size() < max_edges) {
    const SlotEdge se = frontier[frontier_head++];
    const bool has_u = ContainsVertex(current.vertices, se.e.u);
    const bool has_v = ContainsVertex(current.vertices, se.e.v);
    if (!has_u && !has_v) continue;  // became stale; skip
    // A new endpoint outside the alphabet cannot be part of any motif:
    // discard the edge (permanently, like any rejected growth).
    if ((!has_u && !InAlphabet(label_by_slot_[se.us])) ||
        (!has_v && !InAlphabet(label_by_slot_[se.vs]))) {
      continue;
    }

    Tracked candidate = current;
    Extend(&candidate, se, has_u, has_v);
    if (!ResolveNode(&candidate)) continue;  // discard this edge permanently
    current = std::move(candidate);
    if (!has_u) push_incident(se.us);
    if (!has_v) push_incident(se.vs);
  }

  ++stats_.regrow_matches;
  Insert(std::move(current));
}

void StreamMatcher::RemoveVertex(VertexId v) {
  const int32_t s = SlotOf(v);
  if (s < 0) return;
  const uint32_t slot = static_cast<uint32_t>(s);
  for (const uint64_t key : keys_by_slot_[slot]) {
    // Unlink from the other member vertices' indices lazily: just erase the
    // tracked entry; stale keys are skipped on lookup.
    tracked_.erase(key);
  }
  keys_by_slot_[slot].clear();
  // Remove the slot from its neighbours' adjacency. Slot-keyed arrays are
  // stable, so no copies are needed across the updates.
  for (const uint32_t ws : adj_by_slot_[slot]) {
    auto& back = adj_by_slot_[ws];
    back.erase(std::remove(back.begin(), back.end(), slot), back.end());
  }
  adj_by_slot_[slot].clear();
  slot_of_[v] = -1;
  free_slots_.push_back(slot);
}

bool StreamMatcher::HasFrequentMatch(VertexId v) const {
  const int32_t s = SlotOf(v);
  if (s < 0) return false;
  for (const uint64_t key : keys_by_slot_[s]) {
    const auto t = tracked_.find(key);
    if (t != tracked_.end() && t->second.frequent) return true;
  }
  return false;
}

std::vector<VertexId> StreamMatcher::MatchClosureFor(VertexId v,
                                                     bool transitive) const {
  const int32_t s = SlotOf(v);
  if (s < 0 || keys_by_slot_[s].empty()) return {};

  // Reset scratch from the previous walk (bounded by its closure size).
  for (const uint32_t cs : closure_slots_) in_closure_[cs] = 0;
  closure_slots_.clear();
  seen_keys_.clear();

  // `closure_slots_` doubles as the BFS queue: every absorbed slot is
  // visited exactly once, in absorption order.
  auto absorb_matches_of = [&](uint32_t x_slot) {
    for (const uint64_t key : keys_by_slot_[x_slot]) {
      if (!ConsiderOnce(&seen_keys_, key)) continue;
      const auto t = tracked_.find(key);
      if (t == tracked_.end() || !t->second.frequent) continue;
      for (const uint32_t member : t->second.slots) {
        if (!in_closure_[member]) {
          in_closure_[member] = 1;
          closure_slots_.push_back(member);
        }
      }
    }
  };

  absorb_matches_of(static_cast<uint32_t>(s));
  size_t head = 0;
  while (transitive && head < closure_slots_.size()) {
    absorb_matches_of(closure_slots_[head++]);
  }

  std::vector<VertexId> out;
  out.reserve(closure_slots_.size());
  for (const uint32_t cs : closure_slots_) {
    if (cs != static_cast<uint32_t>(s)) out.push_back(id_by_slot_[cs]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t StreamMatcher::NumFrequentMatches() const {
  size_t count = 0;
  for (const auto& [key, t] : tracked_) {
    (void)key;
    if (t.frequent) ++count;
  }
  return count;
}

std::vector<std::vector<VertexId>> StreamMatcher::FrequentMatchVertexSets()
    const {
  std::vector<std::vector<VertexId>> out;
  for (const auto& [key, t] : tracked_) {
    (void)key;
    if (t.frequent) out.emplace_back(t.vertices.begin(), t.vertices.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace loom

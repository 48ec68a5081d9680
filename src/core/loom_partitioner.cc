#include "core/loom_partitioner.h"

#include <algorithm>
#include <cassert>

namespace loom {

LoomPartitioner::LoomPartitioner(const LoomOptions& options,
                                 const TpstryPP* trie)
    : StreamingPartitioner(options.partitioner),
      loom_options_(options),
      window_(options.partitioner.window_size),
      matcher_(trie, options.matcher),
      scores_(options.partitioner.k, 0.0),
      trie_(trie) {
  RebuildEdgeWeights();
}

void LoomPartitioner::RebuildEdgeWeights() {
  scorer_.Configure(loom_options_.partitioner.k, trie_->scheme().num_labels(),
                    loom_options_.use_traversal_weights,
                    loom_options_.untraversed_edge_weight);
  // Configure dropped the scorer's touched list, so the sparse
  // reset-then-accumulate cycle restarts from an all-zero score vector.
  std::fill(scores_.begin(), scores_.end(), 0.0);
  if (!loom_options_.use_traversal_weights) return;
  // The traversal probability of an edge with labels (a, b) is the
  // p-value of the corresponding one-edge motif (§5 future work).
  for (TpstryNodeId id = 0; id < trie_->NumNodes(); ++id) {
    const TpstryNode& node = trie_->node(id);
    if (node.num_edges != 1) continue;
    scorer_.SetEdgeWeight(node.motif.LabelOf(0), node.motif.LabelOf(1),
                          node.support);
  }
}

void LoomPartitioner::SetTrie(const TpstryPP* trie) {
  assert(window_.Empty() && "SetTrie must be called between passes");
  trie_ = trie;
  // The matcher holds a pointer to the trie: rebuild it now so nothing
  // references the old summary after this call returns.
  matcher_ = StreamMatcher(trie_, loom_options_.matcher);
  RebuildEdgeWeights();
  // A memo recorded under the old summary describes clusters the new trie
  // may no longer match; drop it (the driver installs a fresh one per pass).
  memo_ = nullptr;
  ClearPending();
}

void LoomPartitioner::OnVertex(VertexId v, Label label,
                               Span<const VertexId> back_edges) {
  if (v >= label_of_.size()) {
    size_t grown = label_of_.empty() ? 1024 : label_of_.size() * 2;
    if (grown < static_cast<size_t>(v) + 1) grown = static_cast<size_t>(v) + 1;
    label_of_.resize(grown, 0);
  }
  label_of_[v] = label;

  if (memo_ != nullptr && HandleMemoArrival(v, label, back_edges)) return;
  if (window_.Full()) EvictOldest();

  // Restream arrivals already carry the full neighbourhood; reverse
  // recording would double every window-internal edge.
  window_.Push(v, label, back_edges, /*record_reverse=*/!HasPrior());
  // The matcher only sees the in-window part of the neighbourhood; edges to
  // already-assigned vertices cannot belong to a window motif match.
  in_window_scratch_.clear();
  for (const VertexId w : back_edges) {
    if (w != v && window_.Contains(w)) in_window_scratch_.push_back(w);
  }
  matcher_.OnVertex(v, label, in_window_scratch_);
}

void LoomPartitioner::Finish() {
  // A partial recalled unit can be stranded here — a migration-budget
  // early-stop bypasses OnVertex for the stream tail, or an interleaved
  // order resumed a cut-short unit that never completes. Place what was
  // buffered.
  if (pending_unit_ >= 0) AssignPendingUnit();
  while (!window_.Empty()) EvictOldest();
}

void LoomPartitioner::BeginPass(const PartitionAssignment* prior) {
  StreamingPartitioner::BeginPass(prior);
  window_ = StreamWindow(loom_options_.partitioner.window_size);
  matcher_ = StreamMatcher(trie_, loom_options_.matcher);
  loom_stats_ = LoomStats();
  // The memo describes the pass that just ended; drivers re-install one per
  // pass (after this call) when they want memoized replay.
  memo_ = nullptr;
  ClearPending();
  if (log_enabled_) cluster_log_.Reset();
}

void LoomPartitioner::SetClusterLogging(bool enabled) {
  log_enabled_ = enabled;
  cluster_log_.Reset();
}

void LoomPartitioner::SetClusterMemo(const ClusterMemo* memo) {
  memo_ = memo;
  ClearPending();
}

void LoomPartitioner::ClearPending() {
  pending_unit_ = -1;
  pending_ids_.clear();
  pending_neighbors_.clear();
  pending_offsets_.clear();
  pending_offsets_.push_back(0);
}

bool LoomPartitioner::HandleMemoArrival(VertexId v, Label label,
                                        Span<const VertexId> back_edges) {
  const int32_t unit = memo_->UnitOf(v);
  if (pending_unit_ >= 0 && unit != pending_unit_) {
    // Another arrival cut the buffered unit short, an order GroupPermByUnits
    // never produces: place what was buffered, as Finish places a stranded
    // unit.
    ++loom_stats_.memo_invalidated;
    AssignPendingUnit();
  }
  if (unit < 0) return false;
  const uint32_t u = static_cast<uint32_t>(unit);

  if (memo_->log().MembersOf(u).size() == 1) {
    // Singleton fast path (the common case on low-motif streams): score and
    // place straight off the borrowed arrival — no pending-buffer copy. The
    // scoring input is identical to AssignPendingSingle's, so the placement
    // is bit-identical to the buffered path.
    if (log_enabled_) {
      cluster_log_.AddMember(v);
      cluster_log_.CommitUnit();
    }
    ++loom_stats_.memo_units;
    ++loom_stats_.memo_vertices;
    scorer_.BeginUnit();
    scorer_.AddMember(label, back_edges, label_of_,
                      [this](VertexId w) { return ScorePartOf(w); });
    scorer_.Commit(&scores_);
    AssignOrFallback(v, PickLdgPartitionWeightedSparse(assignment_, scores_,
                                                       scorer_.touched()));
    ++loom_stats_.single_vertices;
    return true;
  }

  if (pending_unit_ < 0) pending_unit_ = unit;
  pending_ids_.push_back(v);
  pending_neighbors_.insert(pending_neighbors_.end(), back_edges.begin(),
                            back_edges.end());
  pending_offsets_.push_back(static_cast<uint32_t>(pending_neighbors_.size()));
  if (pending_ids_.size() == memo_->log().MembersOf(u).size()) {
    AssignPendingUnit();
  }
  return true;
}

void LoomPartitioner::ScoreVertices(const std::vector<VertexId>& vertices,
                                    std::vector<double>* scores) {
  scorer_.BeginUnit();
  for (const VertexId member : vertices) {
    const WindowMember& m = window_.Get(member);
    scorer_.AddMember(m.label, m.neighbors, label_of_,
                      [this](VertexId w) { return ScorePartOf(w); });
  }
  scorer_.Commit(scores);
}

void LoomPartitioner::EvictOldest() {
  const VertexId oldest = window_.Oldest();
  // Cheap gate first: most evictions have no frequent match, and the gate
  // answers that from the per-slot key list without building a closure.
  const std::vector<VertexId> closure =
      matcher_.HasFrequentMatch(oldest)
          ? matcher_.MatchClosureFor(oldest,
                                     loom_options_.group_overlapping_matches)
          : std::vector<VertexId>();

  if (closure.empty()) {
    const WindowMember member = window_.Remove(oldest);
    matcher_.RemoveVertex(oldest);
    if (log_enabled_) {
      cluster_log_.AddMember(member.id);
      cluster_log_.CommitUnit();
    }
    AssignSingle(member);
    ++loom_stats_.single_vertices;
    return;
  }

  // Cluster = evicted vertex plus its motif closure (all window members).
  std::vector<VertexId> cluster = {oldest};
  cluster.insert(cluster.end(), closure.begin(), closure.end());

  // Log the unit *pre-split*, in scoring order: the capacity-driven split
  // below is a placement decision of this pass, not part of the
  // decomposition a later pass should recall.
  if (log_enabled_) {
    for (const VertexId m : cluster) cluster_log_.AddMember(m);
    cluster_log_.CommitUnit();
  }

  // Cluster-LDG (§4.1 footnote: "LDG considers the total edges from all
  // vertices, to each partition").
  ScoreVertices(cluster, &scores_);
  const uint32_t part = PickLdgPartitionWeightedSparse(
      assignment_, scores_, scorer_.touched(), cluster.size());
  if (part < assignment_.k()) {
    AssignCluster(cluster, part);
    ++loom_stats_.clusters_assigned;
    loom_stats_.cluster_vertices += cluster.size();
    return;
  }

  // No partition can hold the whole cluster (§4.4's balance risk).
  ++loom_stats_.clusters_split;
  if (loom_options_.local_cluster_split) {
    SplitAndAssignCluster(cluster);
    return;
  }
  // Fallback: oldest-first, one vertex at a time by plain LDG.
  std::sort(cluster.begin(), cluster.end(), [this](VertexId a, VertexId b) {
    return window_.Get(a).arrival_seq < window_.Get(b).arrival_seq;
  });
  for (const VertexId member : cluster) {
    const WindowMember m = window_.Remove(member);
    matcher_.RemoveVertex(member);
    AssignSingle(m);
    ++loom_stats_.single_vertices;
  }
}

template <typename SlotFn, typename NeighborsFn, typename PlaceChunkFn,
          typename PlaceSinglesFn>
void LoomPartitioner::SplitClusterCore(Span<const VertexId> seeds,
                                       size_t state_size, SlotFn&& slot_of,
                                       NeighborsFn&& neighbors_of,
                                       PlaceChunkFn&& place_chunk,
                                       PlaceSinglesFn&& place_singles) {
  // Connectivity-aware chunking (§5 "local partitioning procedure for large
  // matched sub-graphs"): BFS over the cluster's internal adjacency grows
  // connected chunks no larger than the largest free capacity, so each
  // chunk is assigned as a unit and whole sub-structures stay together.
  size_t max_free = 0;
  for (uint32_t p = 0; p < assignment_.k(); ++p) {
    max_free = std::max(max_free, assignment_.FreeCapacity(p));
  }
  // max_free == 0 (every partition at C) degrades to single-vertex chunks,
  // whose per-member overflow fallback places everything without drops.
  const size_t chunk_cap = std::max<size_t>(1, max_free);

  // Cluster membership lives in one byte per dense member index — no
  // hash-set probes anywhere in the BFS.
  split_state_.assign(state_size, 0);
  for (const VertexId v : seeds) {
    const int32_t s = slot_of(v);
    if (s >= 0) split_state_[s] = 1;
  }

  for (const VertexId seed : seeds) {
    // A placed member has already left the index domain (slot -1) or
    // carries state 2; either way it cannot seed another chunk.
    const int32_t seed_slot = slot_of(seed);
    if (seed_slot < 0 || split_state_[seed_slot] != 1) continue;
    std::vector<VertexId> chunk;
    SmallVector<uint32_t, 32> chunk_slots;
    SmallVector<VertexId, 32> frontier;
    frontier.push_back(seed);
    // FIFO via a head cursor keeps the historical BFS visit order.
    for (size_t head = 0; head < frontier.size() && chunk.size() < chunk_cap;
         ++head) {
      const VertexId v = frontier[head];
      const int32_t vs = slot_of(v);
      if (vs < 0 || split_state_[vs] != 1) continue;
      split_state_[vs] = 2;
      chunk.push_back(v);
      chunk_slots.push_back(static_cast<uint32_t>(vs));
      for (const VertexId w : neighbors_of(static_cast<uint32_t>(vs))) {
        const int32_t ws = slot_of(w);
        if (ws >= 0 && static_cast<size_t>(ws) < state_size &&
            split_state_[ws] == 1) {
          frontier.push_back(w);
        }
      }
    }
    if (chunk.empty()) continue;
    scorer_.BeginUnit();
    for (size_t i = 0; i < chunk.size(); ++i) {
      scorer_.AddMember(label_of_[chunk[i]], neighbors_of(chunk_slots[i]),
                        label_of_,
                        [this](VertexId w) { return ScorePartOf(w); });
    }
    scorer_.Commit(&scores_);
    const uint32_t part = PickLdgPartitionWeightedSparse(
        assignment_, scores_, scorer_.touched(), chunk.size());
    ++loom_stats_.split_chunks;
    if (part < assignment_.k()) {
      place_chunk(chunk, part);
      loom_stats_.cluster_vertices += chunk.size();
    } else {
      // Even the chunk does not fit anywhere as a unit: place its members
      // individually (capacity-total guarantees a slot per vertex).
      place_singles(chunk);
    }
  }
}

void LoomPartitioner::SplitAndAssignCluster(
    const std::vector<VertexId>& cluster) {
  // Deterministic seeding: oldest member first.
  SmallVector<VertexId, 32> seeds;
  seeds.assign(cluster.begin(), cluster.end());
  std::sort(seeds.begin(), seeds.end(), [this](VertexId a, VertexId b) {
    return window_.Get(a).arrival_seq < window_.Get(b).arrival_seq;
  });
  uint32_t slot_bound = 0;
  for (const VertexId v : cluster) {
    slot_bound =
        std::max(slot_bound, static_cast<uint32_t>(window_.SlotOf(v)) + 1);
  }
  SplitClusterCore(
      Span<const VertexId>(seeds.data(), seeds.size()), slot_bound,
      [this](VertexId v) { return window_.SlotOf(v); },
      [this](uint32_t slot) -> Span<const VertexId> {
        const SmallVector<VertexId, 8>& nb =
            window_.MemberAtSlot(slot).neighbors;
        return Span<const VertexId>(nb.data(), nb.size());
      },
      [this](const std::vector<VertexId>& chunk, uint32_t part) {
        AssignCluster(chunk, part);
      },
      [this](const std::vector<VertexId>& chunk) {
        for (const VertexId member : chunk) {
          const WindowMember m = window_.Remove(member);
          matcher_.RemoveVertex(member);
          AssignSingle(m);
          ++loom_stats_.single_vertices;
        }
      });
}

void LoomPartitioner::AssignSingle(const WindowMember& member) {
  scorer_.BeginUnit();
  scorer_.AddMember(member.label, member.neighbors, label_of_,
                    [this](VertexId w) { return ScorePartOf(w); });
  scorer_.Commit(&scores_);
  AssignOrFallback(member.id, PickLdgPartitionWeightedSparse(
                                  assignment_, scores_, scorer_.touched()));
}

void LoomPartitioner::AssignCluster(const std::vector<VertexId>& cluster,
                                    uint32_t part) {
  for (const VertexId member : cluster) {
    window_.Remove(member);
    matcher_.RemoveVertex(member);
    // The cluster path only picks partitions with room for the whole
    // cluster, but AssignOrFallback still guards the invariant: no vertex
    // is ever dropped and no Assign error is discarded.
    AssignOrFallback(member, part);
  }
}

void LoomPartitioner::AssignPendingUnit() {
  const size_t n = pending_ids_.size();
  // Re-log the unit (pre-split, in recorded scoring order) so the *next*
  // pass can recall it too.
  if (log_enabled_) {
    for (const VertexId id : pending_ids_) cluster_log_.AddMember(id);
    cluster_log_.CommitUnit();
  }
  ++loom_stats_.memo_units;
  loom_stats_.memo_vertices += n;

  if (n == 1) {
    AssignPendingSingle(0);
    ClearPending();
    return;
  }

  // Whole-unit cluster-LDG, exactly as EvictOldest scores a fresh closure —
  // buffered arrival adjacency equals what the window would have held.
  scorer_.BeginUnit();
  for (size_t i = 0; i < n; ++i) {
    scorer_.AddMember(label_of_[pending_ids_[i]],
                      PendingNeighbors(static_cast<uint32_t>(i)), label_of_,
                      [this](VertexId w) { return ScorePartOf(w); });
  }
  scorer_.Commit(&scores_);
  const uint32_t part = PickLdgPartitionWeightedSparse(
      assignment_, scores_, scorer_.touched(), n);
  if (part < assignment_.k()) {
    for (const VertexId id : pending_ids_) AssignOrFallback(id, part);
    ++loom_stats_.clusters_assigned;
    loom_stats_.cluster_vertices += n;
    ClearPending();
    return;
  }

  ++loom_stats_.clusters_split;
  if (loom_options_.local_cluster_split) {
    SplitPendingUnit();
  } else {
    // Oldest-first individual placement; buffered order is arrival order.
    for (size_t i = 0; i < n; ++i) {
      AssignPendingSingle(static_cast<uint32_t>(i));
    }
  }
  ClearPending();
}

void LoomPartitioner::AssignPendingSingle(uint32_t index) {
  scorer_.BeginUnit();
  scorer_.AddMember(label_of_[pending_ids_[index]], PendingNeighbors(index),
                    label_of_, [this](VertexId w) { return ScorePartOf(w); });
  scorer_.Commit(&scores_);
  AssignOrFallback(pending_ids_[index],
                   PickLdgPartitionWeightedSparse(assignment_, scores_,
                                                  scorer_.touched()));
  ++loom_stats_.single_vertices;
}

void LoomPartitioner::SplitPendingUnit() {
  const size_t n = pending_ids_.size();
  // Dense member index for the split core: buffered position, looked up by
  // binary search over the id-sorted members.
  SmallVector<uint32_t, 32> order;
  for (uint32_t i = 0; i < n; ++i) order.push_back(i);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return pending_ids_[a] < pending_ids_[b];
  });
  SmallVector<VertexId, 32> sorted_ids;
  for (const uint32_t i : order) sorted_ids.push_back(pending_ids_[i]);

  const auto slot_of = [this, &sorted_ids, &order](VertexId v) -> int32_t {
    const VertexId* it =
        std::lower_bound(sorted_ids.begin(), sorted_ids.end(), v);
    if (it == sorted_ids.end() || *it != v) return -1;
    return static_cast<int32_t>(order[it - sorted_ids.begin()]);
  };
  SplitClusterCore(
      Span<const VertexId>(pending_ids_.data(), n), n, slot_of,
      [this](uint32_t slot) { return PendingNeighbors(slot); },
      [this](const std::vector<VertexId>& chunk, uint32_t part) {
        for (const VertexId id : chunk) AssignOrFallback(id, part);
      },
      [this, &slot_of](const std::vector<VertexId>& chunk) {
        for (const VertexId id : chunk) {
          AssignPendingSingle(static_cast<uint32_t>(slot_of(id)));
        }
      });
}

}  // namespace loom

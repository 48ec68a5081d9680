#include "core/loom_partitioner.h"

#include <algorithm>
#include <cassert>

namespace loom {

Status ValidateLoomOptions(const LoomOptions& options) {
  LOOM_RETURN_IF_ERROR(ValidatePartitionerOptions(options.partitioner));
  if (options.partitioner.window_size == 0) {
    return Status::InvalidArgument("window size must be >= 1");
  }
  if (!(options.matcher.frequency_threshold >= 0.0)) {
    return Status::InvalidArgument(
        "frequency threshold must be >= 0 and not NaN");
  }
  return Status::OK();
}

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
                    loom_options_.use_traversal_weights);
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
    // Singleton fast path (the common case on low-motif streams): placed
    // straight off the borrowed arrival, with no pending-buffer copy.
    if (log_enabled_) {
      cluster_log_.AddMember(v);
      cluster_log_.CommitUnit();
    }
    ++loom_stats_.memo_units;
    ++loom_stats_.memo_vertices;
    PlaceSingle(v, label, back_edges);
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
    PlaceSingle(member.id, member.label, member.neighbors);
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
  SplitAndAssignCluster(cluster);
}

void LoomPartitioner::SplitAndAssignCluster(
    const std::vector<VertexId>& cluster) {
  // Connectivity-aware chunking (§5 "local partitioning procedure for large
  // matched sub-graphs"): BFS over the cluster's internal window adjacency
  // grows connected chunks no larger than the largest free capacity, so each
  // chunk is assigned as a unit and whole sub-structures stay together.
  size_t max_free = 0;
  for (uint32_t p = 0; p < assignment_.k(); ++p) {
    max_free = std::max(max_free, assignment_.FreeCapacity(p));
  }
  // max_free == 0 (every partition at C) degrades to single-vertex chunks,
  // whose per-member overflow fallback places everything without drops.
  const size_t chunk_cap = std::max<size_t>(1, max_free);

  // Deterministic seeding: oldest member first.
  SmallVector<VertexId, 32> seeds;
  seeds.assign(cluster.begin(), cluster.end());
  std::sort(seeds.begin(), seeds.end(), [this](VertexId a, VertexId b) {
    return window_.Get(a).arrival_seq < window_.Get(b).arrival_seq;
  });
  // Cluster membership lives in one byte per window slot, so the BFS never
  // probes a hash set.
  uint32_t slot_bound = 0;
  for (const VertexId v : cluster) {
    slot_bound =
        std::max(slot_bound, static_cast<uint32_t>(window_.SlotOf(v)) + 1);
  }
  split_state_.assign(slot_bound, 0);
  for (const VertexId v : cluster) split_state_[window_.SlotOf(v)] = 1;

  std::vector<VertexId> chunk;
  SmallVector<VertexId, 32> frontier;
  for (const VertexId seed : seeds) {
    // A placed member has left the window (slot -1) or carries state 2;
    // either way it cannot seed another chunk.
    const int32_t seed_slot = window_.SlotOf(seed);
    if (seed_slot < 0 || split_state_[seed_slot] != 1) continue;
    chunk.clear();
    frontier.clear();
    frontier.push_back(seed);
    // FIFO via a head cursor keeps the historical BFS visit order.
    for (size_t head = 0; head < frontier.size() && chunk.size() < chunk_cap;
         ++head) {
      const VertexId v = frontier[head];
      const int32_t vs = window_.SlotOf(v);
      if (vs < 0 || split_state_[vs] != 1) continue;
      split_state_[vs] = 2;
      chunk.push_back(v);
      for (const VertexId w : window_.MemberAtSlot(vs).neighbors) {
        const int32_t ws = window_.SlotOf(w);
        if (ws >= 0 && static_cast<size_t>(ws) < split_state_.size() &&
            split_state_[ws] == 1) {
          frontier.push_back(w);
        }
      }
    }
    ScoreVertices(chunk, &scores_);
    const uint32_t part = PickLdgPartitionWeightedSparse(
        assignment_, scores_, scorer_.touched(), chunk.size());
    ++loom_stats_.split_chunks;
    if (part < assignment_.k()) {
      AssignCluster(chunk, part);
      loom_stats_.cluster_vertices += chunk.size();
      continue;
    }
    // Even the chunk does not fit anywhere as a unit: place its members
    // individually (capacity-total guarantees a slot per vertex).
    for (const VertexId member : chunk) {
      const WindowMember m = window_.Remove(member);
      matcher_.RemoveVertex(member);
      PlaceSingle(m.id, m.label, m.neighbors);
    }
  }
}

void LoomPartitioner::PlaceSingle(VertexId v, Label label,
                                  Span<const VertexId> neighbors) {
  scorer_.BeginUnit();
  scorer_.AddMember(label, neighbors, label_of_,
                    [this](VertexId w) { return ScorePartOf(w); });
  scorer_.Commit(&scores_);
  AssignOrFallback(v, PickLdgPartitionWeightedSparse(assignment_, scores_,
                                                     scorer_.touched()));
  ++loom_stats_.single_vertices;
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

  if (n > 1) {
    // Whole-unit cluster-LDG, exactly as EvictOldest scores a fresh closure
    // — buffered arrival adjacency equals what the window would have held.
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
  }
  // A unit of one, or one that fits no partition: member by member, in
  // buffered (arrival) order.
  for (size_t i = 0; i < n; ++i) {
    PlaceSingle(pending_ids_[i], label_of_[pending_ids_[i]],
                PendingNeighbors(static_cast<uint32_t>(i)));
  }
  ClearPending();
}

}  // namespace loom

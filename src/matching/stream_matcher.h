#ifndef LOOM_MATCHING_STREAM_MATCHER_H_
#define LOOM_MATCHING_STREAM_MATCHER_H_

/// \file
/// Graph-stream pattern matching against a TPSTry++ (paper §4.3).
///
/// The matcher maintains, for the vertices currently buffered in the stream
/// window, the set of sub-graphs that match TPSTry++ motifs:
///
///  * when an edge arrives it tries to *grow* every tracked sub-graph the
///    edge touches by exactly that edge, accepting the growth iff the new
///    signature is a TPSTry++ node (the paper's incremental
///    multiply-and-look-up);
///  * when a grown signature is unknown, the *re-grow* procedure starts a
///    fresh sub-graph from the new edge and expands it greedily through the
///    window, discarding any edge whose addition leaves the TPSTry++ — this
///    recovers the overlapping-motif case of Fig. 3;
///  * matches whose node is *frequent* (support >= threshold) are motif
///    matches, the unit LOOM assigns to partitions (§4.4).
///
/// Signature matching is non-authoritative (collisions possible); the
/// `verify_exact` option additionally checks the exact canonical form, which
/// is what tests use as ground truth.
///
/// Buffered vertices occupy matcher-internal *slots* (a free-list arena, at
/// most one per window member), and every per-vertex table — label,
/// adjacency, tracked-sub-graph index — is a flat array keyed by slot. The
/// only id-keyed structure is the direct-mapped id→slot index, so the
/// per-arrival bookkeeping does no hashing at all; hash lookups remain only
/// for the tracked-sub-graph key table.

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/span.h"
#include "graph/graph.h"
#include "tpstry/tpstry_pp.h"

namespace loom {

/// Tuning knobs for the stream matcher.
struct StreamMatcherOptions {
  /// Support threshold T: nodes at or above are frequent motifs (§4.2).
  double frequency_threshold = 0.4;
  /// Enables the §4.3 re-grow procedure (ablation E8b turns it off).
  bool use_regrow = true;
  /// Verify signature hits with exact canonical forms (slower, exact).
  bool verify_exact = false;
  /// Hard cap on concurrently tracked sub-graphs (robustness valve).
  size_t max_tracked = 1u << 20;
  /// Per-vertex cap on tracked sub-graphs; bounds the per-edge growth work
  /// in dense, motif-saturated windows.
  size_t max_tracked_per_vertex = 48;
};

/// Counters exposed for experiments and tests.
struct StreamMatcherStats {
  uint64_t edges_processed = 0;
  uint64_t growths_accepted = 0;
  uint64_t growths_rejected = 0;
  uint64_t regrow_invocations = 0;
  uint64_t regrow_matches = 0;
  uint64_t tracked_dropped = 0;
  uint64_t max_tracked_live = 0;
};

/// Windowed motif-match tracker over a graph stream.
class StreamMatcher {
 public:
  /// \param trie workload summary; must outlive the matcher.
  StreamMatcher(const TpstryPP* trie, const StreamMatcherOptions& options);

  /// Buffers an arriving vertex. `window_back_edges` must contain only
  /// endpoints currently inside the window (the caller — LOOM — filters).
  void OnVertex(VertexId v, Label label,
                const std::vector<VertexId>& window_back_edges);

  /// Removes `v` (evicted or assigned) and every tracked sub-graph touching
  /// it.
  void RemoveVertex(VertexId v);

  /// The motif-match closure of `v` (§4.4): the union of the vertices of
  /// every *frequent* match containing `v`; when `transitive` (the paper's
  /// semantics) the union is expanded through matches that share vertices
  /// ("sub-graphs which share common sub-structure... will also be assigned
  /// to the same partition"). Empty when `v` belongs to no frequent match.
  /// Always excludes `v` itself.
  std::vector<VertexId> MatchClosureFor(VertexId v,
                                        bool transitive = true) const;

  /// True iff some live *frequent* match contains `v` — the cheap gate the
  /// eviction path checks before materializing a closure.
  bool HasFrequentMatch(VertexId v) const;

  /// Number of live tracked sub-graphs (any node, frequent or not).
  size_t NumTracked() const { return tracked_.size(); }

  /// Number of live tracked sub-graphs whose node is frequent.
  size_t NumFrequentMatches() const;

  const StreamMatcherStats& stats() const { return stats_; }

  /// Vertices of every live frequent match (for tests/diagnostics).
  std::vector<std::vector<VertexId>> FrequentMatchVertexSets() const;

 private:
  struct Tracked {
    SmallVector<Edge, 8> edges;         // normalized, sorted by encoding
    SmallVector<VertexId, 8> vertices;  // sorted
    SmallVector<uint32_t, 8> slots;     // parallel to `vertices`
    GraphSignature signature;
    TpstryNodeId node = kInvalidTpstryNode;
    bool frequent = false;
  };

  /// A window edge with both endpoint slots, so label lookups stay O(1)
  /// array reads.
  struct SlotEdge {
    Edge e;       // normalized
    uint32_t us;  // slot of e.u
    uint32_t vs;  // slot of e.v
  };

  /// Stable key of an edge set (normalized + sorted edges hashed).
  static uint64_t KeyOf(const SmallVector<Edge, 8>& edges);

  Label LabelIn(VertexId v) const;

  /// True iff `label` is inside the trie's signature alphabet. A vertex with
  /// an out-of-alphabet label occurs in no motif, so the matcher never grows
  /// a sub-graph through it — multiplying its factor would be outside the
  /// scheme (an assert in Debug, an edge-factor collision under NDEBUG).
  bool InAlphabet(Label label) const;

  /// Slot of a buffered vertex, or -1.
  int32_t SlotOf(VertexId v) const {
    return v < slot_of_.size() ? slot_of_[v] : -1;
  }

  /// Allocates (or reuses) the slot for an arriving vertex.
  uint32_t AllocSlot(VertexId v);

  /// The normalized edge between two buffered vertices, with their slots.
  SlotEdge EdgeBetween(uint32_t a_slot, uint32_t b_slot) const;

  /// Extends `t` by `se`: inserts the edge, inserts each endpoint `t` lacks
  /// (`has_u` / `has_v` false) with its slot in sorted position, and
  /// multiplies the signature by the new vertex and edge factors.
  void Extend(Tracked* t, const SlotEdge& se, bool has_u, bool has_v) const;

  /// Processes one in-window edge arrival (endpoints given by slot).
  void ProcessEdge(uint32_t u_slot, uint32_t v_slot);

  /// Attempts S' = S + {u,v}; returns true if the growth was accepted.
  /// `base` may be an entry of tracked_, read in place: it is copied only
  /// once the edge is known to extend it.
  bool TryGrow(const Tracked& base, uint32_t u_slot, uint32_t v_slot);

  /// Builds a Tracked for the given edge set; returns false when its
  /// signature is not a TPSTry++ node (or verification fails).
  bool ResolveNode(Tracked* t) const;

  /// Inserts a tracked sub-graph (deduplicated); returns true if inserted.
  bool Insert(Tracked t);

  /// The §4.3 re-grow procedure from edge {u, v} (endpoints given by slot).
  void ReGrow(uint32_t u_slot, uint32_t v_slot);

  /// Exact canonical form of the tracked sub-graph (verify_exact mode).
  std::string CanonicalOf(const Tracked& t) const;

  const TpstryPP* trie_;
  StreamMatcherOptions options_;
  std::vector<bool> frequent_;  // by node id
  std::vector<bool> useful_;    // by node id: frequent node reachable
  StreamMatcherStats stats_;

  /// Direct-mapped id→slot index (-1 = not buffered); ids are dense, the
  /// same contract the window and PartitionAssignment rely on.
  std::vector<int32_t> slot_of_;
  std::vector<uint32_t> free_slots_;

  /// In-window view by slot: labels, ids and adjacency (as neighbour slots)
  /// restricted to buffered vertices.
  std::vector<Label> label_by_slot_;
  std::vector<VertexId> id_by_slot_;
  std::vector<SmallVector<uint32_t, 8>> adj_by_slot_;
  /// slot -> keys of tracked sub-graphs containing it (lazy deletion).
  std::vector<SmallVector<uint64_t, 4>> keys_by_slot_;

  FlatMap<uint64_t, Tracked> tracked_;

  /// Closure-walk scratch, reused across calls so the eviction path never
  /// allocates: slots absorbed so far (doubling as the BFS queue), a
  /// membership byte per slot, and the match keys already expanded.
  mutable SmallVector<uint32_t, 64> closure_slots_;
  mutable std::vector<uint8_t> in_closure_;
  mutable SmallVector<uint64_t, 64> seen_keys_;
};

}  // namespace loom

#endif  // LOOM_MATCHING_STREAM_MATCHER_H_

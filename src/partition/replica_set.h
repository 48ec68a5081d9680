#ifndef LOOM_PARTITION_REPLICA_SET_H_
#define LOOM_PARTITION_REPLICA_SET_H_

/// \file
/// Secondary vertex replicas (paper §3.2, after Yang et al. [21]): a vertex
/// may be *replicated* into partitions other than its primary one, making
/// traversals into it from those partitions local. The paper positions LOOM
/// as complementary to such replication schemes; the `replication` module
/// computes hotspot replicas, the query engine accounts for them, and the
/// edge partitioners (src/edge_partition/) use it as their vertex→
/// partition-set state — the membership-heavy role that motivates the
/// dense, hash-free layout below.

#include <cstdint>
#include <vector>

#include "common/small_vector.h"
#include "graph/graph.h"

namespace loom {

/// `PrimaryOf` result for a vertex with no replicas.
inline constexpr uint32_t kNoReplica = ~uint32_t{0};

/// A set of (vertex, partition) replica placements.
///
/// ## Primary-vs-secondary invariants
///
/// A vertex's replica list is kept in insertion order, and its *primary*
/// replica is the list head — the partition the vertex was first placed
/// into (a vertex partitioner's home partition; an edge partitioner's
/// first-edge partition). The audited invariants, checked by
/// `CheckInvariants` and exercised by tests/replication_test.cc:
///
///  * a vertex has exactly one primary, and it is `PartitionsOf(v)[0]`;
///  * erasing a secondary never changes the primary; erasing the primary
///    promotes the *oldest surviving secondary* (insertion order is
///    preserved, never re-sorted);
///  * erasing the last replica forgets the vertex (`PartitionsOf` is null
///    again), so `NumReplicatedVertices` never counts empty lists;
///  * `NumReplicas` equals the sum of list lengths under any interleaving
///    of Add / Remove / re-Add (re-adding an erased partition appends it
///    as a secondary — the erase forgot its seniority).
///
/// ## Dense layout
///
/// Every per-vertex table is a flat array indexed by vertex id, so no
/// operation hashes and a new replica allocates nothing until its vertex
/// holds more than `kInlineReplicas` of them:
///
///  * *lists*: one `PartitionList` per id, the insertion-ordered partitions
///    stored inline (a `SmallVector<uint32_t, 8>`, 56 B); a vertex's list
///    moves to the heap on its ninth replica;
///  * *masks*: `words_per_vertex()` `uint64_t` words per id, bit p of word
///    w set iff the vertex has a replica in partition 64w + p. Partitions
///    below 64 live in word 0 — the one-load fast path HDRF's scoring
///    kernel iterates — and the stride grows automatically (restriding the
///    table) the first time a partition >= 64 appears, so k > 64 degrades
///    to a word-vector walk rather than breaking.
///
/// The mask is *authoritative for membership*: `Has` is a mask probe and
/// `Add` consults it before touching the list, so the edge-partition hot
/// path (two idempotent Adds per edge, almost always already present)
/// reads one word. Lists and masks always agree (`CheckInvariants` audits
/// the correspondence); only ordering (primary seniority) lives
/// exclusively in the lists.
///
/// Cost: both tables hold a row for every id up to the largest one added,
/// replicated or not — 56 B plus 8 B per mask word per id. A streaming
/// partitioner's ids are dense, so that is the whole cost there; a sparse
/// user (say, `ComputeHotspotReplicas` replicating a few hot vertices of a
/// large graph) pays it for every id below its largest vertex.
class ReplicaSet {
 public:
  /// Partitions stored inline per vertex before its list spills.
  static constexpr size_t kInlineReplicas = 8;

  /// One vertex's replica partitions, oldest (primary) first.
  using PartitionList = SmallVector<uint32_t, kInlineReplicas>;

  ReplicaSet() = default;

  /// Replicates `v` into `partition` (idempotent). The first Add for `v`
  /// makes `partition` its primary.
  void Add(VertexId v, uint32_t partition);

  /// Erases the replica of `v` in `partition`. Returns false (changing
  /// nothing) when it does not exist. Removing the primary promotes the
  /// oldest surviving secondary; removing the last replica forgets the
  /// vertex.
  bool Remove(VertexId v, uint32_t partition);

  /// Forgets every replica in place: rows, mask stride and spilled list
  /// buffers are kept, so refilling the same ids (a restream pass)
  /// allocates nothing.
  void Clear();

  /// True iff `v` has a replica in `partition`. A mask probe.
  bool Has(VertexId v, uint32_t partition) const {
    const uint32_t word = partition >> 6;
    if (word >= words_per_vertex_) return false;
    const size_t base = static_cast<size_t>(v) * words_per_vertex_;
    if (base + word >= masks_.size()) return false;
    return (masks_[base + word] >> (partition & 63)) & 1u;
  }

  /// Word `w` of `v`'s partition bitmask: bit p set iff `v` has a replica
  /// in partition 64w + p. Out-of-range vertices and words read 0. Word 0
  /// is the whole set whenever every partition index is below 64.
  uint64_t MaskWordOf(VertexId v, uint32_t word) const {
    if (word >= words_per_vertex_) return 0;
    const size_t base = static_cast<size_t>(v) * words_per_vertex_;
    return base + word < masks_.size() ? masks_[base + word] : 0;
  }

  /// Number of replicas of `v`, counted from the mask (popcount over the
  /// stride words; equals `NumReplicasOf`).
  uint32_t MaskCountOf(VertexId v) const;

  /// Mask words per vertex: 1 until a partition index >= 64 appears.
  uint32_t words_per_vertex() const { return words_per_vertex_; }

  /// Partitions holding a replica of `v`, oldest (primary) first; null when
  /// `v` has none. Valid until the set is next modified.
  const PartitionList* PartitionsOf(VertexId v) const {
    return v < lists_.size() && !lists_[v].empty() ? &lists_[v] : nullptr;
  }

  /// Primary partition of `v`, or kNoReplica when unreplicated.
  uint32_t PrimaryOf(VertexId v) const {
    const PartitionList* parts = PartitionsOf(v);
    return parts == nullptr ? kNoReplica : parts->front();
  }

  /// Number of partitions holding a replica of `v`.
  size_t NumReplicasOf(VertexId v) const {
    return v < lists_.size() ? lists_[v].size() : 0;
  }

  /// Total number of (vertex, partition) replica pairs.
  size_t NumReplicas() const { return num_replicas_; }

  /// Number of distinct vertices with at least one replica.
  size_t NumReplicatedVertices() const { return num_vertices_; }

  /// Accounting audit: true iff `NumReplicas` and `NumReplicatedVertices`
  /// match the lists, no list holds a duplicate partition, and the bitmask
  /// index agrees with the lists bit-for-bit (set exactly where a list
  /// holds the partition). O(rows + replicas + mask words); meant for tests
  /// and debug assertions, not hot paths.
  bool CheckInvariants() const;

 private:
  /// Widens every row's mask to `words` words (old word w of vertex v
  /// moves to the same word of the wider row).
  void Restride(uint32_t words);

  /// Per-id partition lists; `lists_.size()` is the row count of both
  /// tables.
  std::vector<PartitionList> lists_;
  /// Dense mask table: vertex v's words at [v * stride, (v + 1) * stride).
  std::vector<uint64_t> masks_;
  uint32_t words_per_vertex_ = 1;
  size_t num_replicas_ = 0;
  /// Rows with a non-empty list.
  size_t num_vertices_ = 0;
};

}  // namespace loom

#endif  // LOOM_PARTITION_REPLICA_SET_H_

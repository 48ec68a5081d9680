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

#include "graph/graph.h"

namespace loom {

/// `PrimaryOf` result for a vertex with no replicas.
inline constexpr uint32_t kNoReplica = ~uint32_t{0};

/// A grow-only set of (vertex, partition) replica placements.
///
/// ## Primary and secondaries
///
/// A vertex's *primary* replica is the partition its first `Add` named —
/// a vertex partitioner's home partition, an edge partitioner's first-edge
/// partition. Every later partition is a secondary. Replicas are only
/// added (`Clear` forgets them all at once), so the primary never changes
/// while its vertex is replicated.
///
/// ## Dense layout
///
/// Both per-vertex tables are flat arrays indexed by vertex id, so no
/// operation hashes and a new replica allocates nothing once its row
/// exists:
///
///  * *masks*: `words_per_vertex()` `uint64_t` words per id, bit p of word
///    w set iff the vertex has a replica in partition 64w + p. Partitions
///    below 64 live in word 0 — the one-load fast path HDRF's scoring
///    kernel iterates — and the stride grows automatically (restriding the
///    table) the first time a partition >= 64 appears, so k > 64 degrades
///    to a word-vector walk rather than breaking;
///  * *primaries*: one `uint32_t` per id, `kNoReplica` until the vertex's
///    first `Add`.
///
/// The mask is the whole membership state: `Has` is a bit probe,
/// `NumReplicasOf` a popcount, and a caller that needs a vertex's
/// partitions walks its mask words (ascending partition index). The
/// edge-partition hot path (two idempotent Adds per edge, almost always
/// already present) reads one word. `CheckInvariants` audits that a row
/// has a primary exactly when its mask is non-zero, that the primary's bit
/// is set, and that both counters equal the mask sums.
///
/// Cost: both tables hold a row for every id up to the largest one added,
/// replicated or not — 4 B plus 8 B per mask word per id (12 B at
/// k <= 64). A streaming partitioner's ids are dense, so that is the
/// whole cost there; a sparse user (say, `ComputeHotspotReplicas`
/// replicating a few hot vertices of a large graph) pays it for every id
/// below its largest vertex.
class ReplicaSet {
 public:
  ReplicaSet() = default;

  /// Replicates `v` into `partition` (idempotent). The first Add for `v`
  /// makes `partition` its primary.
  void Add(VertexId v, uint32_t partition);

  /// Forgets every replica in place: rows and mask stride are kept, so
  /// refilling the same ids (a restream pass) allocates nothing.
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

  /// Mask words per vertex: 1 until a partition index >= 64 appears.
  uint32_t words_per_vertex() const { return words_per_vertex_; }

  /// Hint that `v`'s mask row is read soon: starts the load of its first
  /// word, so a caller can overlap the misses of several rows. No effect on
  /// the set; an id without a row is ignored.
  void PrefetchMask(VertexId v) const {
    const size_t base = static_cast<size_t>(v) * words_per_vertex_;
    if (base < masks_.size()) __builtin_prefetch(masks_.data() + base);
  }

  /// Primary partition of `v`, or kNoReplica when unreplicated.
  uint32_t PrimaryOf(VertexId v) const {
    return v < primaries_.size() ? primaries_[v] : kNoReplica;
  }

  /// Number of partitions holding a replica of `v`: the popcount of its
  /// mask words.
  size_t NumReplicasOf(VertexId v) const {
    const size_t base = static_cast<size_t>(v) * words_per_vertex_;
    if (base >= masks_.size()) return 0;
    size_t count = 0;
    for (uint32_t w = 0; w < words_per_vertex_; ++w) {
      count += static_cast<size_t>(__builtin_popcountll(masks_[base + w]));
    }
    return count;
  }

  /// Total number of (vertex, partition) replica pairs.
  size_t NumReplicas() const { return num_replicas_; }

  /// Number of distinct vertices with at least one replica.
  size_t NumReplicatedVertices() const { return num_vertices_; }

  /// Layout audit: true iff both tables have the same row count, every
  /// row holds a primary exactly when its mask is non-zero, the primary's
  /// bit is set in its row, and `NumReplicas` / `NumReplicatedVertices`
  /// equal the mask popcount sum / the non-zero row count. O(rows × mask
  /// words); meant for tests and debug assertions, not hot paths.
  bool CheckInvariants() const;

 private:
  /// Widens every row's mask to `words` words (old word w of vertex v
  /// moves to the same word of the wider row).
  void Restride(uint32_t words);

  /// Per-id primary partition (kNoReplica when unreplicated);
  /// `primaries_.size()` is the row count of both tables.
  std::vector<uint32_t> primaries_;
  /// Dense mask table: vertex v's words at [v * stride, (v + 1) * stride).
  std::vector<uint64_t> masks_;
  uint32_t words_per_vertex_ = 1;
  size_t num_replicas_ = 0;
  /// Rows with a primary (equivalently, a non-zero mask).
  size_t num_vertices_ = 0;
};

}  // namespace loom

#endif  // LOOM_PARTITION_REPLICA_SET_H_

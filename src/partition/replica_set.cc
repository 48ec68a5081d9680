#include "partition/replica_set.h"

#include <algorithm>

namespace loom {

void ReplicaSet::Restride(uint32_t words) {
  // Happens at most ceil(k / 64) - 1 times per set: only a partition index
  // >= 64 * stride widens the rows.
  std::vector<uint64_t> wide(primaries_.size() * words, 0);
  for (size_t i = 0; i < primaries_.size(); ++i) {
    for (uint32_t w = 0; w < words_per_vertex_; ++w) {
      wide[i * words + w] = masks_[i * words_per_vertex_ + w];
    }
  }
  masks_ = std::move(wide);
  words_per_vertex_ = words;
}

void ReplicaSet::Add(VertexId v, uint32_t partition) {
  // Mask-first: the hot edge-partition path calls Add twice per edge and
  // the replica almost always exists already — answer that case from the
  // mask word alone.
  if (Has(v, partition)) return;
  const uint32_t word = partition >> 6;
  if (word >= words_per_vertex_) Restride(word + 1);
  if (v >= primaries_.size()) {
    primaries_.resize(static_cast<size_t>(v) + 1, kNoReplica);
    masks_.resize(primaries_.size() * words_per_vertex_, 0);
  }
  masks_[static_cast<size_t>(v) * words_per_vertex_ + word] |=
      uint64_t{1} << (partition & 63);
  if (primaries_[v] == kNoReplica) {
    primaries_[v] = partition;
    ++num_vertices_;
  }
  ++num_replicas_;
}

void ReplicaSet::Clear() {
  std::fill(primaries_.begin(), primaries_.end(), kNoReplica);
  std::fill(masks_.begin(), masks_.end(), 0);
  num_replicas_ = 0;
  num_vertices_ = 0;
}

bool ReplicaSet::CheckInvariants() const {
  if (masks_.size() != primaries_.size() * words_per_vertex_) return false;
  size_t total = 0;
  size_t vertices = 0;
  for (size_t i = 0; i < primaries_.size(); ++i) {
    const VertexId v = static_cast<VertexId>(i);
    const size_t count = NumReplicasOf(v);
    const uint32_t primary = primaries_[i];
    // A primary is set exactly when the row holds a replica, and it names
    // one of the row's partitions.
    if ((count == 0) != (primary == kNoReplica)) return false;
    if (primary != kNoReplica && !Has(v, primary)) return false;
    total += count;
    if (count != 0) ++vertices;
  }
  return total == num_replicas_ && vertices == num_vertices_;
}

}  // namespace loom

#include "partition/replica_set.h"

#include <algorithm>

namespace loom {

void ReplicaSet::Restride(uint32_t words) {
  // Happens at most ceil(k / 64) - 1 times per set: only a partition index
  // >= 64 * stride widens the rows.
  std::vector<uint64_t> wide(lists_.size() * words, 0);
  for (size_t i = 0; i < lists_.size(); ++i) {
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
  if (v >= lists_.size()) {
    lists_.resize(static_cast<size_t>(v) + 1);
    masks_.resize(lists_.size() * words_per_vertex_, 0);
  }
  masks_[static_cast<size_t>(v) * words_per_vertex_ + word] |=
      uint64_t{1} << (partition & 63);
  PartitionList& parts = lists_[v];
  if (parts.empty()) ++num_vertices_;
  parts.push_back(partition);
  ++num_replicas_;
}

bool ReplicaSet::Remove(VertexId v, uint32_t partition) {
  if (!Has(v, partition)) return false;
  PartitionList& parts = lists_[v];
  // erase (not swap-and-pop) keeps insertion order, so removing the
  // primary promotes the oldest surviving secondary.
  parts.erase(std::find(parts.begin(), parts.end(), partition));
  masks_[static_cast<size_t>(v) * words_per_vertex_ + (partition >> 6)] &=
      ~(uint64_t{1} << (partition & 63));
  --num_replicas_;
  if (parts.empty()) --num_vertices_;
  return true;
}

void ReplicaSet::Clear() {
  for (PartitionList& parts : lists_) parts.clear();
  std::fill(masks_.begin(), masks_.end(), 0);
  num_replicas_ = 0;
  num_vertices_ = 0;
}

uint32_t ReplicaSet::MaskCountOf(VertexId v) const {
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  uint32_t count = 0;
  for (uint32_t w = 0; w < words_per_vertex_; ++w) {
    if (base + w >= masks_.size()) break;
    count += static_cast<uint32_t>(__builtin_popcountll(masks_[base + w]));
  }
  return count;
}

bool ReplicaSet::CheckInvariants() const {
  if (masks_.size() != lists_.size() * words_per_vertex_) return false;
  size_t total = 0;
  size_t vertices = 0;
  for (size_t i = 0; i < lists_.size(); ++i) {
    const VertexId v = static_cast<VertexId>(i);
    const PartitionList& parts = lists_[i];
    for (size_t a = 0; a < parts.size(); ++a) {
      for (size_t b = a + 1; b < parts.size(); ++b) {
        if (parts[a] == parts[b]) return false;
      }
      // Every listed partition must be set in the mask.
      if (!Has(v, parts[a])) return false;
    }
    // The list is duplicate-free and fully set, so the row holds no stale
    // bit iff its popcount equals the list length.
    if (MaskCountOf(v) != parts.size()) return false;
    total += parts.size();
    if (!parts.empty()) ++vertices;
  }
  return total == num_replicas_ && vertices == num_vertices_;
}

}  // namespace loom

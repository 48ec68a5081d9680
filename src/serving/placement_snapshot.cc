#include "serving/placement_snapshot.h"

#include <algorithm>

namespace loom {
namespace {

// Fewest slots a table starts with, whatever the size hint.
constexpr size_t kMinSlots = 1024;

// Partitions p < k whose count `count_at(p * num_labels + l)` is non-zero
// for some label l of `query` inside the alphabet, ascending.
template <typename CountAt>
std::vector<uint32_t> TouchedBy(uint32_t k, uint32_t num_labels,
                                const LabeledGraph& query, CountAt count_at) {
  // The query's label set (small patterns: linear dedup is fine).
  std::vector<Label> labels;
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    const Label l = query.LabelOf(v);
    if (l < num_labels &&
        std::find(labels.begin(), labels.end(), l) == labels.end()) {
      labels.push_back(l);
    }
  }

  std::vector<uint32_t> touched;
  for (uint32_t p = 0; p < k; ++p) {
    const size_t base = static_cast<size_t>(p) * num_labels;
    for (const Label l : labels) {
      if (count_at(base + l) > 0) {
        touched.push_back(p);
        break;
      }
    }
  }
  return touched;
}

}  // namespace

PlacementSnapshot MakePlacementSnapshot(const PartitionAssignment& assignment,
                                        const std::vector<Label>& label_of,
                                        uint32_t num_labels, uint64_t epoch) {
  PlacementSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.k = assignment.k();
  snapshot.num_labels = num_labels;
  snapshot.num_assigned = assignment.NumAssigned();
  snapshot.sizes = assignment.Sizes();
  snapshot.label_counts.assign(
      static_cast<size_t>(assignment.k()) * num_labels, 0);

  const size_t bound = assignment.IdBound();
  snapshot.part_of.resize(bound);
  for (VertexId v = 0; v < bound; ++v) {
    const int32_t p = assignment.PartOf(v);
    snapshot.part_of[v] = p;
    if (p < 0) continue;
    const Label label = v < label_of.size() ? label_of[v] : 0;
    if (label < num_labels) {
      ++snapshot.label_counts[static_cast<size_t>(p) * num_labels + label];
    }
  }
  return snapshot;
}

std::vector<uint32_t> TouchedPartitions(const PlacementSnapshot& snapshot,
                                        const LabeledGraph& query) {
  return TouchedBy(snapshot.k, snapshot.num_labels, query,
                   [&](size_t i) { return snapshot.label_counts[i]; });
}

PlacementTable::PlacementTable(uint32_t k, uint32_t num_labels,
                               size_t num_vertices_hint)
    : k_(k),
      num_labels_(num_labels),
      label_counts_(std::make_unique<std::atomic<uint32_t>[]>(
          static_cast<size_t>(k) * num_labels)) {
  auto slots = std::make_unique<Slots>();
  slots->size = std::max(num_vertices_hint, kMinSlots);
  slots->part = std::make_unique<std::atomic<int32_t>[]>(slots->size);
  for (size_t v = 0; v < slots->size; ++v) {
    slots->part[v].store(-1, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < static_cast<size_t>(k) * num_labels; ++i) {
    label_counts_[i].store(0, std::memory_order_relaxed);
  }
  slots_.store(slots.get(), std::memory_order_release);
  arrays_.push_back(std::move(slots));
}

std::vector<uint32_t> PlacementTable::Touches(
    const LabeledGraph& query) const {
  return TouchedBy(k_, num_labels_, query, [this](size_t i) {
    return label_counts_[i].load(std::memory_order_relaxed);
  });
}

void PlacementTable::GrowFor(VertexId v) {
  const Slots& old = *arrays_.back();
  auto grown = std::make_unique<Slots>();
  grown->size = old.size * 2;
  while (grown->size <= v) grown->size *= 2;
  grown->part = std::make_unique<std::atomic<int32_t>[]>(grown->size);
  for (size_t i = 0; i < grown->size; ++i) {
    grown->part[i].store(
        i < old.size ? old.part[i].load(std::memory_order_relaxed) : -1,
        std::memory_order_relaxed);
  }
  // Release: a reader that acquires the new array sees every copied slot.
  slots_.store(grown.get(), std::memory_order_release);
  arrays_.push_back(std::move(grown));
}

void PlacementTable::Set(VertexId v, int32_t part, Label label) {
  if (v >= arrays_.back()->size) {
    if (part < 0) return;
    GrowFor(v);
  }
  std::atomic<int32_t>& slot = arrays_.back()->part[v];
  const int32_t old = slot.load(std::memory_order_relaxed);
  if (old == part) return;
  const bool counted = label < num_labels_;
  if (part >= 0) {
    id_bound_ = std::max<size_t>(id_bound_, size_t{v} + 1);
    if (counted) {
      label_counts_[static_cast<size_t>(part) * num_labels_ + label]
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  slot.store(part, std::memory_order_relaxed);
  if (old >= 0 && counted) {
    released_.push_back(static_cast<size_t>(old) * num_labels_ + label);
  }
}

void PlacementTable::Commit() {
  for (const size_t i : released_) {
    label_counts_[i].fetch_sub(1, std::memory_order_relaxed);
  }
  released_.clear();
}

PlacementSnapshot PlacementTable::Freeze(uint64_t epoch) const {
  PlacementSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.k = k_;
  snapshot.num_labels = num_labels_;
  snapshot.label_counts.resize(static_cast<size_t>(k_) * num_labels_);
  for (size_t i = 0; i < snapshot.label_counts.size(); ++i) {
    snapshot.label_counts[i] = label_counts_[i].load(std::memory_order_relaxed);
  }
  const Slots& slots = *arrays_.back();
  snapshot.sizes.assign(k_, 0);
  snapshot.part_of.resize(id_bound_);
  for (size_t v = 0; v < id_bound_; ++v) {
    const int32_t part = slots.part[v].load(std::memory_order_relaxed);
    snapshot.part_of[v] = part;
    if (part < 0) continue;
    ++snapshot.sizes[part];
    ++snapshot.num_assigned;
  }
  return snapshot;
}

}  // namespace loom

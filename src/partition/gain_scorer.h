#ifndef LOOM_PARTITION_GAIN_SCORER_H_
#define LOOM_PARTITION_GAIN_SCORER_H_

/// \file
/// Blocked LDG gain scoring: the one reset-then-accumulate kernel behind
/// every cluster/vertex placement score in LOOM.
///
/// The kernel runs in three phases per scored unit (a motif cluster, a split
/// chunk, or a single vertex):
///
///   1. *Gather* — walk the unit's members and collect, per neighbour with a
///      scoreable partition, the partition id and (when traversal weighting
///      is on) the edge weight into two flat, contiguous buffers. All
///      branching lives here.
///   2. *Accumulate* — sparse-reset the partitions dirtied by the previous
///      unit, then sweep the flat buffers once: `scores[part[i]] += w[i]`.
///      No hash lookups, no per-element branches — the loop the compiler can
///      keep in registers/vector units.
///   3. *Compact* — derive the `touched()` partition list from the gathered
///      buffer with a byte-per-partition seen mask, in a separate pass, so
///      the accumulate loop stays branch-free.
///
/// Gather order equals the naive per-neighbour accumulation order, so
/// floating-point sums are bit-identical to the historical implementation —
/// the property the golden-hash equivalence tests pin down.
///
/// Edge weights come from a dense `(L+1) x (L+1)` label-pair table (L =
/// alphabet size; row/column L holds the untraversed-edge weight for
/// out-of-alphabet labels), replacing the per-neighbour hash-map probe of
/// the old `EdgeWeightTo`.

#include <cstdint>
#include <vector>

#include "common/small_vector.h"
#include "common/span.h"
#include "graph/graph.h"

namespace loom {

/// Reusable blocked scoring kernel. Owns the gather buffers, the dense
/// weight table and the touched-partition bookkeeping for one score vector.
class BlockedGainScorer {
 public:
  /// Weight of an edge whose label pair occurs in no query, when traversal
  /// weighting is on. Non-zero keeps pure-structure cohesion as a
  /// tie-breaker.
  static constexpr double kUntraversedEdgeWeight = 0.05;

  /// (Re)configures the kernel. `num_labels` is the signature alphabet size
  /// L; the table gains one extra row/column for out-of-alphabet labels.
  /// When `use_weights` is false every edge weighs 1.0 and the gather phase
  /// skips label lookups entirely.
  void Configure(uint32_t k, uint32_t num_labels, bool use_weights) {
    k_ = k;
    num_labels_ = num_labels;
    use_weights_ = use_weights;
    const size_t side = static_cast<size_t>(num_labels_) + 1;
    weight_table_.assign(side * side,
                         use_weights_ ? kUntraversedEdgeWeight : 1.0);
    seen_.assign(k_, 0);
    touched_.clear();
    parts_.clear();
    weights_.clear();
  }

  /// Installs the traversal weight of label pair (a, b), clamped from below
  /// by the untraversed-edge weight (the floor the old map lookup applied).
  /// Overwrites any previous value for the pair; symmetric.
  void SetEdgeWeight(Label a, Label b, double weight) {
    if (a >= num_labels_ || b >= num_labels_) return;
    const double w =
        weight > kUntraversedEdgeWeight ? weight : kUntraversedEdgeWeight;
    const size_t side = static_cast<size_t>(num_labels_) + 1;
    weight_table_[static_cast<size_t>(a) * side + b] = w;
    weight_table_[static_cast<size_t>(b) * side + a] = w;
  }

  /// Starts gathering a new unit (drops any previous gather state; the
  /// previous unit's touched list stays valid until the next Commit).
  void BeginUnit() {
    parts_.clear();
    weights_.clear();
  }

  /// Gathers one member: every neighbour whose `part_of` is >= 0
  /// contributes its partition (and, when weighting, the label-pair edge
  /// weight towards `label_of[w]`).
  ///
  /// \param part_of callable VertexId -> int32_t (partition or -1).
  template <typename PartOfFn>
  void AddMember(Label member_label, Span<const VertexId> neighbors,
                 const std::vector<Label>& label_of, PartOfFn&& part_of) {
    if (!use_weights_) {
      for (const VertexId w : neighbors) {
        const int32_t p = part_of(w);
        if (p >= 0) parts_.push_back(static_cast<uint32_t>(p));
      }
      return;
    }
    const size_t side = static_cast<size_t>(num_labels_) + 1;
    const size_t row =
        (member_label < num_labels_ ? member_label : num_labels_) * side;
    for (const VertexId w : neighbors) {
      const int32_t p = part_of(w);
      if (p < 0) continue;
      // An endpoint the stream never labelled scores as label 0 (the
      // historical EdgeWeightTo contract).
      const Label wl = w < label_of.size() ? label_of[w] : 0;
      const size_t col = wl < num_labels_ ? wl : num_labels_;
      parts_.push_back(static_cast<uint32_t>(p));
      weights_.push_back(weight_table_[row + col]);
    }
  }

  /// Accumulates the gathered unit into `scores`: sparse-resets the
  /// previously touched partitions, sweeps the flat buffers, then compacts
  /// the new touched list. Returns the touched partitions (deduplicated,
  /// in first-touch order).
  const SmallVector<uint32_t, 16>& Commit(std::vector<double>* scores) {
    for (const uint32_t p : touched_) (*scores)[p] = 0.0;
    touched_.clear();
    double* s = scores->data();
    const uint32_t* parts = parts_.begin();
    const size_t n = parts_.size();
    if (use_weights_) {
      const double* w = weights_.begin();
      for (size_t i = 0; i < n; ++i) s[parts[i]] += w[i];
    } else {
      for (size_t i = 0; i < n; ++i) s[parts[i]] += 1.0;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = parts[i];
      if (!seen_[p]) {
        seen_[p] = 1;
        touched_.push_back(p);
      }
    }
    for (const uint32_t p : touched_) seen_[p] = 0;
    return touched_;
  }

  /// Partitions dirtied by the last Commit (empty before any Commit).
  const SmallVector<uint32_t, 16>& touched() const { return touched_; }

 private:
  uint32_t k_ = 0;
  uint32_t num_labels_ = 0;
  bool use_weights_ = false;
  /// Dense (L+1) x (L+1) label-pair weights; row/col L = out-of-alphabet.
  std::vector<double> weight_table_;
  /// Gather buffers: partition per scoreable neighbour edge (+ weight).
  SmallVector<uint32_t, 64> parts_;
  SmallVector<double, 64> weights_;
  /// Compaction scratch: byte per partition, cleared after every Commit.
  std::vector<uint8_t> seen_;
  SmallVector<uint32_t, 16> touched_;
};

}  // namespace loom

#endif  // LOOM_PARTITION_GAIN_SCORER_H_

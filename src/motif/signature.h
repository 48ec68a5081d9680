#ifndef LOOM_MOTIF_SIGNATURE_H_
#define LOOM_MOTIF_SIGNATURE_H_

/// \file
/// Number-theoretic graph signatures in the style of Song et al. (paper
/// §4.3): a signature is conceptually a large integer capturing a graph's
/// vertices, labels and edges as distinct prime factors; it is maintained
/// *incrementally* (multiply per added element) and supports a fast,
/// non-authoritative containment test by divisibility.
///
/// loom's realisation:
///   factor of vertex v            = prime(vertex label)
///   factor of edge {u, v}         = prime(unordered label pair)
///   signature(G)                  = Π vertex factors · Π edge factors
/// Real products overflow machine words almost immediately, so a
/// `GraphSignature` holds the product exactly as the *multiset of prime
/// indices*: multiplication is multiset insertion and divisibility is
/// multiset inclusion, at any size and without computing a single prime.
/// The scheme guarantees the property the paper relies on: if a motif M
/// embeds in S then sig(M) divides sig(S) (no false negatives); false
/// positives — distinct topologies with equal factor multisets — are
/// possible and rare, exactly the "non-authoritative" behaviour §4.3
/// describes (pinned by the `NoFalseNegatives` and
/// `EqualSignatureDistinctTopologyExample` tests).

#include <cstdint>

#include "common/small_vector.h"
#include "graph/graph.h"

namespace loom {

/// A graph signature: the multiset of its prime factor indices.
///
/// Stored run-length encoded — sorted (index, count) runs in a
/// `SmallVector` — because real signatures repeat a handful of distinct
/// factors many times (one per vertex/edge of the same label): a multiply is
/// then usually a count increment instead of a memmove, and divisibility
/// walks runs instead of individual factors. A commutative hash is kept
/// alongside, so `Hash()` is O(1) and equality rejects in one compare.
class GraphSignature {
 public:
  /// Multiplies by `prime(idx)`: inserts one occurrence of `idx`.
  void MultiplyFactor(uint32_t idx);

  /// True iff `this` divides `other`, i.e. every factor of `this` occurs in
  /// `other` with at least the same multiplicity.
  bool Divides(const GraphSignature& other) const;

  bool operator==(const GraphSignature& other) const {
    // The hash rejects nearly every unequal pair in one compare.
    return hash_sum_ == other.hash_sum_ && runs_ == other.runs_;
  }

  /// Stable 64-bit hash of the multiset (equal multisets hash equal).
  /// Maintained incrementally as a commutative sum of per-factor mixes, so
  /// this is O(1) — the trie's per-lookup hash is free.
  uint64_t Hash() const { return 0xcbf29ce484222325ull + hash_sum_; }

 private:
  /// `count` occurrences of prime index `idx`.
  struct Run {
    uint32_t idx = 0;
    uint32_t count = 0;

    bool operator==(const Run& other) const {
      return idx == other.idx && count == other.count;
    }
  };

  SmallVector<Run, 8> runs_;  // sorted by idx
  size_t num_factors_ = 0;    // with multiplicity
  /// Commutative hash state: Σ MixBits(idx) over factors with multiplicity,
  /// so the multiplication order never changes it.
  uint64_t hash_sum_ = 0;
};

/// Assigns prime indices to vertex labels and unordered label pairs for a
/// fixed label alphabet. All signatures that will ever be compared must come
/// from the same scheme.
class SignatureScheme {
 public:
  /// \param num_labels size of the label alphabet (labels are 0..num_labels-1).
  explicit SignatureScheme(uint32_t num_labels);

  uint32_t num_labels() const { return num_labels_; }

  /// Prime index of a vertex carrying `label`.
  uint32_t VertexFactor(Label label) const;

  /// Prime index of an edge whose endpoints carry `a` and `b` (order-free).
  uint32_t EdgeFactor(Label a, Label b) const;

  /// Full signature of a graph (all vertex and edge factors).
  GraphSignature SignatureOf(const LabeledGraph& g) const;

  /// Incremental update: multiplies `sig` by the factors a new vertex brings.
  void MultiplyVertex(GraphSignature* sig, Label label) const;

  /// Incremental update: multiplies `sig` by a new edge's factor.
  void MultiplyEdge(GraphSignature* sig, Label a, Label b) const;

 private:
  uint32_t num_labels_;
};

}  // namespace loom

#endif  // LOOM_MOTIF_SIGNATURE_H_

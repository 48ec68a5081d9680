#ifndef LOOM_MOTIF_SIGNATURE_H_
#define LOOM_MOTIF_SIGNATURE_H_

/// \file
/// Number-theoretic graph signatures in the style of Song et al. (paper
/// §4.3): a signature is conceptually a large integer capturing a graph's
/// vertices, labels and edges as distinct prime factors; it is maintained
/// *incrementally* (multiply per added element) and supports a fast,
/// non-authoritative containment test by divisibility.
///
/// loom's realisation (see DESIGN.md "Substitutions"):
///   factor of vertex v            = prime(vertex label)
///   factor of edge {u, v}         = prime(unordered label pair)
///   signature(G)                  = Π vertex factors · Π edge factors
/// represented exactly as a `FactorMultiset`. The scheme guarantees the
/// property the paper relies on: if a motif M embeds in S then sig(M)
/// divides sig(S) (no false negatives); false positives — distinct
/// topologies with equal factor multisets — are possible and rare, exactly
/// the "non-authoritative" behaviour §4.3 describes (pinned by the
/// `NoFalseNegatives` and `EqualSignatureDistinctTopologyExample` tests).

#include <cstdint>

#include "common/primes.h"
#include "graph/graph.h"

namespace loom {

/// A graph signature: an exact factor multiset plus convenience accessors.
using GraphSignature = FactorMultiset;

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

#include "motif/signature.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace loom {

void GraphSignature::MultiplyFactor(uint32_t idx) {
  const auto by_idx = [](const Run& r, uint32_t i) { return r.idx < i; };
  const auto pos = std::lower_bound(runs_.begin(), runs_.end(), idx, by_idx);
  if (pos != runs_.end() && pos->idx == idx) {
    ++pos->count;
  } else {
    runs_.insert(pos, Run{idx, 1});
  }
  ++num_factors_;
  hash_sum_ += MixBits(idx);
}

bool GraphSignature::Divides(const GraphSignature& other) const {
  if (num_factors_ > other.num_factors_) return false;
  // Equal sizes: divides iff equal.
  if (num_factors_ == other.num_factors_) return *this == other;
  // Proper sub-multiset: every run must be covered with at least the same
  // multiplicity. Both run lists sorted: single merge walk.
  const Run* b = other.runs_.begin();
  for (const Run& a : runs_) {
    while (b != other.runs_.end() && b->idx < a.idx) ++b;
    if (b == other.runs_.end() || b->idx != a.idx || b->count < a.count) {
      return false;
    }
    ++b;
  }
  return true;
}

SignatureScheme::SignatureScheme(uint32_t num_labels)
    : num_labels_(num_labels == 0 ? 1 : num_labels) {}

uint32_t SignatureScheme::VertexFactor(Label label) const {
  assert(label < num_labels_);
  return label;
}

uint32_t SignatureScheme::EdgeFactor(Label a, Label b) const {
  assert(a < num_labels_ && b < num_labels_);
  if (a > b) std::swap(a, b);
  // Edge factors occupy the index range [L, L + L(L+1)/2): row-major over
  // the upper triangle (a <= b).
  const uint32_t row_offset = a * num_labels_ - a * (a - 1) / 2;
  return num_labels_ + row_offset + (b - a);
}

GraphSignature SignatureScheme::SignatureOf(const LabeledGraph& g) const {
  GraphSignature sig;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    MultiplyVertex(&sig, g.LabelOf(v));
  }
  g.ForEachEdge([&](VertexId u, VertexId v) {
    MultiplyEdge(&sig, g.LabelOf(u), g.LabelOf(v));
  });
  return sig;
}

void SignatureScheme::MultiplyVertex(GraphSignature* sig, Label label) const {
  sig->MultiplyFactor(VertexFactor(label));
}

void SignatureScheme::MultiplyEdge(GraphSignature* sig, Label a,
                                   Label b) const {
  sig->MultiplyFactor(EdgeFactor(a, b));
}

}  // namespace loom

#include "edge_partition/hdrf_partitioner.h"

#include <algorithm>

namespace loom {

namespace {

/// Index of the lowest set bit; `bits` must be nonzero.
inline uint32_t LowestBit(uint64_t bits) {
  return static_cast<uint32_t>(__builtin_ctzll(bits));
}

}  // namespace

uint32_t HdrfPartitioner::PickPartition(VertexId u, VertexId v) {
  if (force_scalar_kernel_) return PickPartitionScalar(u, v);

  const double du = EffectiveDegree(u);
  const double dv = EffectiveDegree(v);
  const double total = du + dv;
  const double theta_u = total > 0.0 ? du / total : 0.5;
  const double theta_v = 1.0 - theta_u;
  // g(x, p) for a partition holding x; the same expression (and rounding)
  // the scalar loop evaluates per candidate.
  const double g_u = 1.0 + (1.0 - theta_u);
  const double g_v = 1.0 + (1.0 - theta_v);

  const uint64_t max_size = max_load_;
  const double spread =
      1.0 + static_cast<double>(max_load_ - min_load_);
  const double lambda = options_.lambda;

  const uint32_t k = options_.k;
  const uint32_t num_words = (k + 63) / 64;
  // A capped endpoint (replica budget spent) only allows partitions that
  // already hold it — exactly its bitmask; a free endpoint allows all. At
  // the default cap of k no popcount is needed: only a vertex in all k
  // partitions is capped, and its mask admits the same partitions.
  const bool uncapped = replica_cap_ == k;
  const bool u_free = uncapped || replicas_.NumReplicasOf(u) < replica_cap_;
  const bool v_free = uncapped || replicas_.NumReplicasOf(v) < replica_cap_;

  uint32_t best_rep = k;
  double best_rep_score = 0.0;
  uint32_t best_bal = k;
  uint64_t best_bal_count = 0;

  for (uint32_t w = 0; w < num_words; ++w) {
    const uint32_t low = w << 6;
    const uint32_t bits_in_word = std::min(64u, k - low);
    const uint64_t kmask = bits_in_word == 64
                               ? ~uint64_t{0}
                               : (uint64_t{1} << bits_in_word) - 1;
    const uint64_t mu = replicas_.MaskWordOf(u, w);
    const uint64_t mv = replicas_.MaskWordOf(v, w);
    const uint64_t allowed_u = u_free ? ~uint64_t{0} : mu;
    const uint64_t allowed_v = v_free ? ~uint64_t{0} : mv;
    // Eligible(u, v, p) for 64 partitions at once: in range, below the
    // edge budget, within both replica budgets.
    const uint64_t eligible =
        kmask & ~full_words_[w] & allowed_u & allowed_v;
    if (eligible == 0) continue;

    // Replica-affinity candidates — the only partitions with C_REP > 0.
    // Scored with the scalar loop's exact FP op order, strict-> argmax
    // (ascending bit order keeps the lowest index on ties).
    uint64_t rep = (mu | mv) & eligible;
    while (rep != 0) {
      const uint32_t bit = LowestBit(rep);
      rep &= rep - 1;
      const uint32_t p = low + bit;
      double score = 0.0;
      if ((mu >> bit) & 1) score += g_u;
      if ((mv >> bit) & 1) score += g_v;
      score += lambda *
               (static_cast<double>(max_size - edge_counts_[p]) / spread);
      if (best_rep == k || score > best_rep_score) {
        best_rep = p;
        best_rep_score = score;
      }
    }

    // Balance-only candidates all score λ · (maxsize − size(p)) / spread.
    uint64_t bal = eligible & ~(mu | mv);
    if (lambda == 0.0) {
      // Every balance-only score is exactly 0.0; the scalar strict-> scan
      // keeps the first, i.e. the lowest index.
      if (bal != 0 && best_bal == k) {
        best_bal = low + LowestBit(bal);
        best_bal_count = edge_counts_[best_bal];
      }
    } else {
      // λ > 0: the FP argmax over λ · (maxsize − size(p)) / spread is the
      // integer argmin over size(p) (ties to the lowest index). Exact,
      // not approximate: distinct counts differ by ≥ 1, so the scores'
      // relative gap is ≥ 1 / (maxsize − minsize) ≥ 1/m — far above the
      // 2⁻⁵² ulp where correctly-rounded division or the λ multiply
      // could collapse them, for any m below ~4 · 10¹⁵ edges.
      while (bal != 0) {
        const uint32_t p = low + LowestBit(bal);
        bal &= bal - 1;
        const uint64_t count = edge_counts_[p];
        if (best_bal == k || count < best_bal_count) {
          best_bal = p;
          best_bal_count = count;
        }
      }
    }
  }

  if (best_rep == k && best_bal == k) return FallbackPartition(u, v);
  if (best_rep == k) return best_bal;
  if (best_bal == k) return best_rep;
  // Cross-group decision replays the scalar comparison on the two group
  // winners: strictly larger score wins, an exact tie keeps the lower
  // index (the scalar scan's first-max rule).
  const double best_bal_score =
      lambda * (static_cast<double>(max_size - best_bal_count) / spread);
  if (best_rep_score > best_bal_score) return best_rep;
  if (best_bal_score > best_rep_score) return best_bal;
  return std::min(best_rep, best_bal);
}

uint32_t HdrfPartitioner::PickPartitionScalar(VertexId u, VertexId v) {
  // θ and the effective degrees are per-edge constants, hoisted out of the
  // candidate loop (EffectiveDegree itself serves the heat hook from a
  // per-vertex cache, so the fallback path below reuses it too).
  const double du = EffectiveDegree(u);
  const double dv = EffectiveDegree(v);
  const double total = du + dv;
  const double theta_u = total > 0.0 ? du / total : 0.5;
  const double theta_v = 1.0 - theta_u;

  const uint64_t max_size =
      *std::max_element(edge_counts_.begin(), edge_counts_.end());
  const uint64_t min_size =
      *std::min_element(edge_counts_.begin(), edge_counts_.end());
  const double spread = 1.0 + static_cast<double>(max_size - min_size);

  uint32_t best = options_.k;
  double best_score = 0.0;
  for (uint32_t p = 0; p < options_.k; ++p) {
    if (!Eligible(u, v, p)) {
      // Skipped: past the edge budget or an endpoint's replica budget.
      // When every partition is skipped the fallback's strict cap-regime
      // argument (FallbackPartition preference 2: the cap only binds with
      // 2 · cap <= k) guarantees the edge still finds a home.
      continue;
    }
    double score = 0.0;
    if (replicas_.Has(u, p)) score += 1.0 + (1.0 - theta_u);
    if (replicas_.Has(v, p)) score += 1.0 + (1.0 - theta_v);
    score += options_.lambda *
             (static_cast<double>(max_size - edge_counts_[p]) / spread);
    if (best == options_.k || score > best_score) {
      best = p;
      best_score = score;
    }
  }
  if (best == options_.k) return FallbackPartition(u, v);
  return best;
}

}  // namespace loom

#include "tpstry/workload_tracker.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace loom {

MotifDistribution MotifDistributionOf(const TpstryPP& trie) {
  MotifDistribution dist;
  dist.reserve(trie.NumNodes());
  double total = 0.0;
  for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) {
    const TpstryNode& node = trie.node(id);
    if (node.support <= 0.0) continue;
    dist.push_back({Fnv1a64(node.canonical), node.support});
    total += node.support;
  }
  if (total <= 0.0) return {};
  for (MotifSupport& m : dist) m.probability /= total;
  std::sort(dist.begin(), dist.end(),
            [](const MotifSupport& a, const MotifSupport& b) {
              return a.canonical_hash < b.canonical_hash;
            });
  return dist;
}

WorkloadTracker::WorkloadTracker(uint32_t num_labels,
                                 const WorkloadTrackerOptions& options,
                                 bool paths_only)
    : options_(options), paths_only_(paths_only), trie_(num_labels) {
  if (options_.window_queries == 0) options_.window_queries = 1;
}

Status WorkloadTracker::Observe(const LabeledGraph& query) {
  std::vector<TpstryNodeId> touched;
  LOOM_RETURN_IF_ERROR(trie_.AddQuery(query, 1.0, paths_only_, &touched));
  window_.push_back(std::move(touched));
  ++num_observed_;
  while (window_.size() > options_.window_queries) {
    trie_.ApplySupportDelta(window_.front(), -1.0);
    window_.pop_front();
  }
  return Status::OK();
}

TpstryPP WorkloadTracker::Snapshot() const {
  TpstryPP copy = trie_;
  copy.Normalize();
  return copy;
}

MotifDistribution WorkloadTracker::SupportDistribution() const {
  return MotifDistributionOf(trie_);
}

}  // namespace loom

#include "core/loom.h"

namespace loom {

Loom::Loom(LoomOptions options, std::unique_ptr<TpstryPP> trie)
    : options_(options), trie_(std::move(trie)) {
  partitioner_ = std::make_unique<LoomPartitioner>(options_, trie_.get());
}

Result<std::unique_ptr<TpstryPP>> BuildTrie(const Workload& workload,
                                            bool paths_only) {
  if (workload.NumQueries() == 0) {
    return Status::InvalidArgument("workload has no queries");
  }
  auto trie = std::make_unique<TpstryPP>(workload.NumLabels());
  for (const QuerySpec& q : workload.queries()) {
    LOOM_RETURN_IF_ERROR(trie->AddQuery(q.pattern, q.frequency, paths_only));
  }
  trie->Normalize();
  return trie;
}

Result<std::unique_ptr<Loom>> Loom::Create(const Workload& workload,
                                           const LoomOptions& options) {
  LOOM_RETURN_IF_ERROR(ValidateLoomOptions(options));
  LOOM_ASSIGN_OR_RETURN(std::unique_ptr<TpstryPP> trie,
                        BuildTrie(workload, options.paths_only));
  return std::unique_ptr<Loom>(new Loom(options, std::move(trie)));
}

}  // namespace loom

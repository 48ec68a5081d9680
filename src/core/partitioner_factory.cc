#include "core/partitioner_factory.h"

#include <algorithm>

#include "core/loom_partitioner.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"

namespace loom {

const std::vector<std::string>& KnownPartitioners() {
  static const std::vector<std::string> kNames = {
      "hash", "ldg", "fennel", "loom"};
  return kNames;
}

bool IsKnownPartitioner(const std::string& name) {
  const std::vector<std::string>& names = KnownPartitioners();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Result<std::unique_ptr<StreamingPartitioner>> MakePartitioner(
    const std::string& name, const PartitionerOptions& options) {
  LOOM_RETURN_IF_ERROR(ValidatePartitionerOptions(options));
  if (name == "hash") {
    return std::unique_ptr<StreamingPartitioner>(
        std::make_unique<HashPartitioner>(options));
  }
  if (name == "ldg") {
    return std::unique_ptr<StreamingPartitioner>(
        std::make_unique<LdgPartitioner>(options));
  }
  if (name == "fennel") {
    return std::unique_ptr<StreamingPartitioner>(
        std::make_unique<FennelPartitioner>(options));
  }
  if (name == "loom") {
    return Status::InvalidArgument(
        "partitioner 'loom' needs a workload trie; use the LoomOptions "
        "overload of MakePartitioner");
  }
  return Status::InvalidArgument("unknown partitioner '" + name + "'");
}

Result<std::unique_ptr<StreamingPartitioner>> MakePartitioner(
    const std::string& name, const LoomOptions& options,
    const TpstryPP* trie) {
  if (name != "loom") return MakePartitioner(name, options.partitioner);
  LOOM_RETURN_IF_ERROR(ValidateLoomOptions(options));
  if (trie == nullptr) {
    return Status::InvalidArgument(
        "partitioner 'loom' needs a non-null workload trie");
  }
  return std::unique_ptr<StreamingPartitioner>(
      std::make_unique<LoomPartitioner>(options, trie));
}

}  // namespace loom

#ifndef LOOM_CORE_PARTITIONER_FACTORY_H_
#define LOOM_CORE_PARTITIONER_FACTORY_H_

/// \file
/// The partitioner factory: one supported way to construct any streaming
/// partitioner by name, replacing the per-binary `else if` construction
/// chains (benches, tools and tests all routed through here). Names are the
/// partitioners' own `Name()` strings: "hash", "ldg", "fennel" and "loom".
/// LOOM needs a workload trie, so it is only constructible through the
/// `LoomOptions` overload; asking the plain overload for it is an
/// InvalidArgument, not a crash.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/loom_options.h"
#include "partition/partitioner.h"
#include "tpstry/tpstry_pp.h"

namespace loom {

/// Every name `MakePartitioner` accepts, in the canonical comparison order
/// used by the bench tables (hash, ldg, fennel, loom).
const std::vector<std::string>& KnownPartitioners();

/// True iff `name` is one of `KnownPartitioners()`.
bool IsKnownPartitioner(const std::string& name);

/// Constructs the named workload-oblivious partitioner. Errors with
/// InvalidArgument on options that fail ValidatePartitionerOptions, on an
/// unknown name and on "loom" (which needs a trie — use the LoomOptions
/// overload).
Result<std::unique_ptr<StreamingPartitioner>> MakePartitioner(
    const std::string& name, const PartitionerOptions& options);

/// Constructs any known partitioner. Workload-oblivious names use
/// `options.partitioner` only; "loom" uses the full options plus `trie`
/// (which must be non-null and outlive the partitioner). Errors with
/// InvalidArgument on `options.partitioner` that fails
/// ValidatePartitionerOptions (for "loom", `options` that fail
/// ValidateLoomOptions), an unknown name or a missing trie.
Result<std::unique_ptr<StreamingPartitioner>> MakePartitioner(
    const std::string& name, const LoomOptions& options, const TpstryPP* trie);

}  // namespace loom

#endif  // LOOM_CORE_PARTITIONER_FACTORY_H_

#ifndef LOOM_CORE_LOOM_H_
#define LOOM_CORE_LOOM_H_

/// \file
/// The LOOM façade — the library's top-level entry point.
///
/// Typical use:
///
///   loom::Workload workload = ...;                 // queries + frequencies
///   loom::LoomOptions options;
///   options.partitioner.k = 8;
///   options.partitioner.num_vertices_hint = graph.NumVertices();
///   LOOM_ASSIGN_OR_RETURN(auto loom, loom::Loom::Create(workload, options));
///   loom->Partitioner().Run(stream);               // one pass
///   const auto& assignment = loom->Partitioner().assignment();

#include <memory>

#include "common/result.h"
#include "core/loom_options.h"
#include "core/loom_partitioner.h"
#include "tpstry/tpstry_pp.h"
#include "workload/workload.h"

namespace loom {

/// Owns the workload summary (TPSTry++) and the LOOM streaming partitioner
/// built over it.
class Loom {
 public:
  /// Builds the TPSTry++ from `workload` (Algorithm 1 per query) and wires
  /// up the partitioner. Fails if a query exceeds the small-pattern budgets
  /// or `ValidateLoomOptions` rejects the options.
  static Result<std::unique_ptr<Loom>> Create(const Workload& workload,
                                              const LoomOptions& options);

  /// The streaming partitioner; feed it a stream via `Run` or `OnVertex`.
  LoomPartitioner& Partitioner() { return *partitioner_; }
  const LoomPartitioner& Partitioner() const { return *partitioner_; }

  /// The workload summary.
  const TpstryPP& Trie() const { return *trie_; }

  const LoomOptions& options() const { return options_; }

 private:
  Loom(LoomOptions options, std::unique_ptr<TpstryPP> trie);

  LoomOptions options_;
  std::unique_ptr<TpstryPP> trie_;
  std::unique_ptr<LoomPartitioner> partitioner_;
};

/// Convenience: builds the TPSTry++ for `workload` alone (shared by tests,
/// benches and ablations). Honours `paths_only` by weaving only the path
/// motifs of each query.
Result<std::unique_ptr<TpstryPP>> BuildTrie(const Workload& workload,
                                            bool paths_only = false);

}  // namespace loom

#endif  // LOOM_CORE_LOOM_H_

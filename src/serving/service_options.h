#ifndef LOOM_SERVING_SERVICE_OPTIONS_H_
#define LOOM_SERVING_SERVICE_OPTIONS_H_

/// \file
/// Configuration of `loom::Service` — the facade's one options struct,
/// following the uniform Validate/Sanitize contract shared with
/// `RestreamOptions` and `DriftControllerOptions` (see
/// `ValidateRestreamOptions`): `ValidateServiceOptions` rejects with an
/// InvalidArgument naming the first bad field; `SanitizeServiceOptions`
/// clamps every bad field to the conservative end. `Service::Create`
/// validates first (callers hear about mistakes), then sanitizes (nested
/// defaults stay safe even as structs grow fields).

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/loom_options.h"
#include "drift/drift_controller.h"
#include "tpstry/workload_tracker.h"

namespace loom {

/// All serving knobs in one place.
struct ServiceOptions {
  /// Partitioner configuration. `loom.partitioner` carries the generic
  /// streaming settings (k, capacity, window size) used by every
  /// partitioner; the rest applies to the "loom" partitioner only.
  LoomOptions loom;

  /// Which partitioner the service drives — any `KnownPartitioners()` name.
  std::string partitioner = "loom";

  /// Drift policy: detector thresholds plus the bounded-migration reaction.
  DriftControllerOptions drift;

  /// Workload summarisation window over the observed query stream. The
  /// tracker weaves queries in `loom.paths_only`'s mode, the mode of the
  /// trie the drift reference is built from.
  WorkloadTrackerOptions tracker;

  /// Label alphabet size of the data graph. 0 = derive from the workload
  /// (its max label + 1); set explicitly when arrivals carry labels the
  /// workload's queries never mention. The service's alphabet is the larger
  /// of the two, and `Ingest` rejects a batch holding an arrival labelled
  /// outside it — whole, counted in `rejected_batches`, like a self-loop —
  /// because `Touches` could not route to such a vertex.
  uint32_t num_labels = 0;

  /// False disables the drift loop entirely: `ObserveQuery` still feeds the
  /// tracker but never checks the detector or enqueues reactions. Needed
  /// for bit-exact batched-vs-serial comparisons.
  bool enable_drift_reactions = true;

  /// Detector cadence: one drift check per this many observed queries.
  uint64_t drift_check_every_queries = 64;

  /// Publish cadence: write the placements made since the last publish
  /// into the live placement table every N processed ingest batches. A
  /// publish scans the ids not yet published as placed — about N batches
  /// plus the window — so larger values trade freshness for fewer, longer
  /// scans; memory does not depend on it. Reactions and `Seal` always
  /// publish.
  uint32_t publish_every_batches = 1;

  /// Test/bench hook, called on the pipeline thread after each ingest batch
  /// finishes processing (argument: the batch's 0-based sequence number).
  /// Keep it cheap — it runs inside the ingest pipeline.
  std::function<void(uint64_t)> on_batch_processed;
};

/// Rejects the first invalid field: `loom.partitioner` options that fail
/// `ValidatePartitionerOptions` (k == 0, a capacity slack that is not
/// finite or is below 1.0), an unknown `partitioner` name,
/// `drift_check_every_queries == 0`, `publish_every_batches == 0`, a zero
/// tracker window, or anything `ValidateDriftControllerOptions` rejects.
Status ValidateServiceOptions(const ServiceOptions& options);

/// Clamps every field `ValidateServiceOptions` rejects: zero counts become
/// 1 (k, cadences, tracker window), a bad capacity slack becomes 1.0, an
/// unknown partitioner name falls back to "loom", and the drift options
/// are routed through `SanitizeDriftControllerOptions`.
ServiceOptions SanitizeServiceOptions(ServiceOptions options);

}  // namespace loom

#endif  // LOOM_SERVING_SERVICE_OPTIONS_H_

// Contract tests of the loom::Service serving facade: options validation,
// snapshot publication under concurrent readers, batched-vs-serial ingest
// equivalence, Locate/Touches correctness against the query engine's ground
// truth, and the drift loop reacting while clients keep reading. Suite
// names contain "Serving" so CI's TSan job picks every test up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "restream/restreamer.h"
#include "serving/service.h"
#include "serving_scenario.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace loom {
namespace {

using bench::GraphKind;
using bench::MakeGraph;
using bench::PlantWorkloadMotifs;
using bench::RunServingScenario;
using bench::ServingScenarioConfig;
using bench::ServingScenarioResult;

Workload SmallWorkload() {
  Workload w;
  (void)w.Add("path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

/// Graph + stream fixture shared by the equivalence and query tests.
struct Scenario {
  LabeledGraph g;
  GraphStream stream;
};

Scenario MakeScenario(uint32_t n, uint64_t seed) {
  Scenario s;
  Rng rng(seed);
  s.g = MakeGraph(GraphKind::kBarabasiAlbert, n, 6, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&s.g, SmallWorkload(), n / 24, rng,
                      /*locality_span=*/48);
  s.stream = MakeStream(s.g, StreamOrder::kDfs, rng);
  return s;
}

ServiceOptions BaseOptions(const Scenario& s, uint32_t k) {
  ServiceOptions opts;
  opts.loom.partitioner.k = k;
  opts.loom.partitioner.num_vertices_hint = s.g.NumVertices();
  opts.loom.partitioner.num_edges_hint = s.g.NumEdges();
  opts.loom.partitioner.window_size = 64;
  opts.loom.matcher.frequency_threshold = 0.2;
  opts.num_labels = 4;
  return opts;
}

// ------------------------------------------------------ options validation

TEST(ServingOptionsTest, DefaultsValidateAndSanitizeIsIdentityOnThem) {
  const ServiceOptions defaults;
  EXPECT_TRUE(ValidateServiceOptions(defaults).ok());
  const ServiceOptions sanitized = SanitizeServiceOptions(defaults);
  EXPECT_TRUE(ValidateServiceOptions(sanitized).ok());
  EXPECT_EQ(sanitized.partitioner, defaults.partitioner);
}

TEST(ServingOptionsTest, ValidateRejectsTheFirstBadFieldWithoutMutating) {
  ServiceOptions opts;
  opts.loom.partitioner.k = 0;
  Status status = ValidateServiceOptions(opts);
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument);
  EXPECT_EQ(opts.loom.partitioner.k, 0u);  // untouched

  opts = ServiceOptions();
  opts.partitioner = "metis";
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.drift_check_every_queries = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.publish_every_batches = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.tracker.window_queries = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  // Nested drift options are validated through the same contract.
  opts = ServiceOptions();
  opts.drift.reaction_passes = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.drift.detector.fire_threshold = 2.0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingOptionsTest, SanitizeClampsEveryFieldValidateRejects) {
  ServiceOptions opts;
  opts.loom.partitioner.k = 0;
  opts.partitioner = "no-such-partitioner";
  opts.drift_check_every_queries = 0;
  opts.publish_every_batches = 0;
  opts.tracker.window_queries = 0;
  opts.drift.reaction_passes = 0;
  opts.drift.max_migration_fraction = std::nan("");
  const ServiceOptions sane = SanitizeServiceOptions(opts);
  EXPECT_TRUE(ValidateServiceOptions(sane).ok());
  EXPECT_EQ(sane.loom.partitioner.k, 1u);
  EXPECT_EQ(sane.partitioner, "loom");
  EXPECT_EQ(sane.drift_check_every_queries, 1u);
  EXPECT_EQ(sane.publish_every_batches, 1u);
  EXPECT_EQ(sane.tracker.window_queries, 1u);
  EXPECT_EQ(sane.drift.reaction_passes, 1u);
  EXPECT_EQ(sane.drift.max_migration_fraction, 0.0);  // migration frozen
}

TEST(ServingOptionsTest, UniformContractAcrossTheOptionsFamily) {
  // The same Validate/Sanitize pairing holds for the restream and drift
  // structs the service composes.
  RestreamOptions ropts;
  ropts.num_passes = 0;
  EXPECT_EQ(ValidateRestreamOptions(ropts).code(),
            StatusCode::kInvalidArgument);
  EXPECT_GE(SanitizeRestreamOptions(ropts).num_passes, 1u);

  DriftControllerOptions dopts;
  dopts.detector.clear_threshold = 0.9;  // above fire_threshold: inverted
  EXPECT_EQ(ValidateDriftControllerOptions(dopts).code(),
            StatusCode::kInvalidArgument);
  const DriftControllerOptions sane = SanitizeDriftControllerOptions(dopts);
  EXPECT_TRUE(ValidateDriftControllerOptions(sane).ok());
  EXPECT_LE(sane.detector.clear_threshold, sane.detector.fire_threshold);
}

TEST(ServingOptionsTest, CreateRejectsInvalidOptions) {
  ServiceOptions opts;
  opts.publish_every_batches = 0;
  auto created = Service::Create(SmallWorkload(), opts);
  EXPECT_FALSE(created.ok());
  EXPECT_TRUE(created.status().code() == StatusCode::kInvalidArgument);
}

// ------------------------------------------------- ingest + rejection path

TEST(ServingIngestTest, InvalidBatchesAreRejectedWholeAndCounted) {
  const Scenario s = MakeScenario(400, 7);
  auto created = Service::Create(SmallWorkload(), BaseOptions(s, 4));
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  // Self-loop back edge: reject, apply nothing.
  std::vector<VertexArrival> bad(2);
  bad[0].vertex = 0;
  bad[1].vertex = 1;
  bad[1].back_edges = {1};
  EXPECT_TRUE(service.Ingest(bad).code() == StatusCode::kInvalidArgument);

  // Invalid vertex id: same.
  bad[1].vertex = kInvalidVertex;
  bad[1].back_edges = {0};
  EXPECT_TRUE(service.Ingest(bad).code() == StatusCode::kInvalidArgument);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_EQ(stats.ingested_vertices, 0u);
  EXPECT_EQ(stats.ingested_batches, 0u);

  // Empty batches are a no-op, not an error.
  EXPECT_TRUE(service.Ingest(nullptr, 0).ok());
  EXPECT_TRUE((*created)->Seal().ok());
}

TEST(ServingIngestTest, SealStopsIngestAndIsNotRepeatable) {
  const Scenario s = MakeScenario(300, 11);
  auto created = Service::Create(SmallWorkload(), BaseOptions(s, 4));
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE(service.Seal().ok());
  EXPECT_TRUE(service.Stats().sealed);
  EXPECT_EQ(service.Stats().ingested_vertices, s.g.NumVertices());

  EXPECT_EQ(service.Ingest(s.stream.arrivals()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Seal().code(), StatusCode::kFailedPrecondition);
  // Reads stay valid after sealing.
  EXPECT_GE(service.Locate(0), 0);
}

// The tentpole equivalence: batched ingest through the single pipeline
// worker must be result-identical to the serial pipeline on the same
// stream, for every batch size.
TEST(ServingIngestTest, BatchedIngestMatchesSerialPipelineBitForBit) {
  const Scenario s = MakeScenario(800, 13);
  const Workload workload = SmallWorkload();

  for (const char* name : {"ldg", "loom"}) {
    // Serial reference: the same partitioner fed by Run(stream).
    ServiceOptions ref_opts = BaseOptions(s, 6);
    ref_opts.partitioner = name;
    auto trie = BuildTrie(workload, ref_opts.loom.paths_only);
    ASSERT_TRUE(trie.ok());
    auto serial = MakePartitioner(name, ref_opts.loom, trie->get());
    ASSERT_TRUE(serial.ok());
    (*serial)->Run(s.stream);
    const PartitionAssignment& want = (*serial)->assignment();

    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
      ServiceOptions opts = BaseOptions(s, 6);
      opts.partitioner = name;
      opts.enable_drift_reactions = false;
      opts.publish_every_batches = 3;
      auto created = Service::Create(workload, opts);
      ASSERT_TRUE(created.ok());
      Service& service = **created;

      const std::vector<VertexArrival>& arrivals = s.stream.arrivals();
      for (size_t off = 0; off < arrivals.size(); off += batch_size) {
        const size_t count = std::min(batch_size, arrivals.size() - off);
        ASSERT_TRUE(service.Ingest(arrivals.data() + off, count).ok());
      }
      ASSERT_TRUE(service.Seal().ok());

      const PlacementSnapshot* snapshot = service.Snapshot();
      ASSERT_NE(snapshot, nullptr);
      ASSERT_EQ(snapshot->num_assigned, want.NumAssigned())
          << name << " batch=" << batch_size;
      for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
        ASSERT_EQ(snapshot->Locate(v), want.PartOf(v))
            << name << " batch=" << batch_size << " vertex=" << v;
      }
      EXPECT_EQ(service.Stats().assign_errors, 0u);
    }
  }
}

TEST(ServingIngestTest, IngestSourceMatchesBatchedIngest) {
  // The ArrivalSource bridge: draining a cursor (here a StreamCursor, in
  // production an mmap-ed stream file or a generator) must place every
  // vertex exactly where the equivalent hand-batched Ingest calls would.
  const Scenario s = MakeScenario(600, 17);
  const Workload workload = SmallWorkload();

  ServiceOptions opts = BaseOptions(s, 6);
  opts.enable_drift_reactions = false;
  auto reference = Service::Create(workload, opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE((*reference)->Seal().ok());
  const PlacementSnapshot* want = (*reference)->Snapshot();
  ASSERT_NE(want, nullptr);

  for (const size_t batch_size : {size_t{1}, size_t{50}, size_t{100000}}) {
    auto created = Service::Create(workload, opts);
    ASSERT_TRUE(created.ok());
    Service& service = **created;
    StreamCursor cursor(s.stream);
    ASSERT_TRUE(service.IngestSource(cursor, batch_size).ok());
    ASSERT_TRUE(service.Seal().ok());

    const PlacementSnapshot* got = service.Snapshot();
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->num_assigned, want->num_assigned);
    for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
      ASSERT_EQ(got->Locate(v), want->Locate(v))
          << "batch=" << batch_size << " vertex=" << v;
    }
    EXPECT_EQ(service.Stats().ingested_vertices, s.g.NumVertices());
  }
}

// --------------------------------------------------- reads vs. ground truth

TEST(ServingQueryTest, LocateAndTouchesMatchTheQueryEngineGroundTruth) {
  const Scenario s = MakeScenario(900, 17);
  const Workload workload = SmallWorkload();
  ServiceOptions opts = BaseOptions(s, 6);
  opts.enable_drift_reactions = false;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE(service.Seal().ok());

  // Rebuild the assignment from the published snapshot; Locate must agree.
  const PlacementSnapshot* snapshot = service.Snapshot();
  ASSERT_NE(snapshot, nullptr);
  PartitionAssignment assignment(snapshot->k, /*capacity=*/0);
  for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
    const int32_t part = service.Locate(v);
    ASSERT_GE(part, 0);
    ASSERT_TRUE(assignment.Assign(v, static_cast<uint32_t>(part)).ok());
  }

  // Touches must be a superset of every partition the matcher actually
  // visits executing the query (soundness of the broadcast set).
  for (const QuerySpec& q : workload.queries()) {
    const std::vector<uint32_t> touches = service.Touches(q.pattern);
    EXPECT_TRUE(std::is_sorted(touches.begin(), touches.end()));
    std::set<uint32_t> visited;
    const TraversalObserver observer = [&](VertexId from, VertexId to,
                                           bool /*cross*/) {
      visited.insert(static_cast<uint32_t>(assignment.PartOf(from)));
      visited.insert(static_cast<uint32_t>(assignment.PartOf(to)));
    };
    const QueryExecutionStats stats = ExecuteQuery(
        s.g, assignment, q.pattern, /*max_embeddings=*/5000,
        /*replicas=*/nullptr, observer);
    EXPECT_GT(stats.total_traversals, 0u) << q.name;
    for (const uint32_t part : visited) {
      EXPECT_TRUE(
          std::binary_search(touches.begin(), touches.end(), part))
          << q.name << " visited partition " << part
          << " missing from Touches";
    }
  }

  // Unknown vertices are -1, not garbage.
  EXPECT_EQ(service.Locate(static_cast<VertexId>(s.g.NumVertices() + 1000)),
            -1);
}

// ----------------------------------------------- snapshots under concurrency

TEST(ServingSnapshotTest, EpochsAreMonotoneAndSizesStayConsistent) {
  const Scenario s = MakeScenario(600, 19);
  ServiceOptions opts = BaseOptions(s, 4);
  opts.enable_drift_reactions = false;
  opts.publish_every_batches = 1;
  auto created = Service::Create(SmallWorkload(), opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const PlacementSnapshot* snap = service.Snapshot();
        if (snap == nullptr) continue;
        // Epochs only move forward, and every snapshot is internally
        // consistent: the per-partition sizes sum to the assigned count.
        if (snap->epoch < last_epoch) torn.store(true);
        last_epoch = snap->epoch;
        size_t total = 0;
        for (const uint32_t size : snap->sizes) total += size;
        if (total != snap->num_assigned) torn.store(true);
      }
    });
  }

  const std::vector<VertexArrival>& arrivals = s.stream.arrivals();
  for (size_t off = 0; off < arrivals.size(); off += 32) {
    ASSERT_TRUE(service
                    .Ingest(arrivals.data() + off,
                            std::min<size_t>(32, arrivals.size() - off))
                    .ok());
  }
  ASSERT_TRUE(service.Seal().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.snapshots_published,
            arrivals.size() / 32 / opts.publish_every_batches);
  EXPECT_EQ(stats.snapshot_epoch + 1, stats.snapshots_published);
}

// --------------------------------------------------------- drift reactions

TEST(ServingDriftTest, ScenarioServesQueriesWhileTheReactionRuns) {
  ServingScenarioConfig config;
  // Large enough that the serial reaction runs for several milliseconds.
  config.n = 10000;
  config.num_clients = 4;
  config.arrivals_per_second = 200000.0;
  const ServingScenarioResult r = RunServingScenario(config);

  ASSERT_TRUE(r.ok) << "reactions=" << r.drift_reactions
                    << " assign_errors=" << r.assign_errors
                    << " ingested=" << r.ingested_vertices;
  EXPECT_GE(r.drift_fires, 1u);
  EXPECT_GE(r.drift_reactions, 1u);
  EXPECT_GT(r.queries_during_reaction, 0u)
      << "reads must proceed while the pipeline worker repartitions";
  EXPECT_EQ(r.assign_errors, 0u);
  EXPECT_GT(r.locate_queries, 0u);
  EXPECT_GT(r.touches_queries, 0u);
  // The reaction improved (or at worst kept) the cut: keep-best adoption.
  EXPECT_LE(r.reaction_cut_after, r.reaction_cut_before + 1e-12);
}

TEST(ServingDriftTest, StableWorkloadNeverTriggersAReaction) {
  const Scenario s = MakeScenario(500, 23);
  const Workload workload = SmallWorkload();
  ServiceOptions opts = BaseOptions(s, 4);
  opts.drift_check_every_queries = 8;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  service.Flush();

  // Traffic matching the reference distribution: checks run, nothing fires.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const QuerySpec& q = workload.queries()[workload.SampleIndex(rng)];
    ASSERT_TRUE(service.ObserveQuery(q.pattern).ok());
  }
  ASSERT_TRUE(service.Seal().ok());

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.drift_checks, 0u);
  EXPECT_EQ(stats.drift_fires, 0u);
  EXPECT_EQ(stats.drift_reactions, 0u);
  EXPECT_EQ(stats.observed_queries, 200u);
}

}  // namespace
}  // namespace loom

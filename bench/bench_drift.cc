// Drift-triggered incremental re-partitioning (closes the §4.2/§5 loop):
// live traffic is partitioned by LOOM built for workload A; the query mix
// then switches to workload B (piecewise-stationary drift). The
// WorkloadTracker's sliding summary feeds the DriftDetector each tick; on a
// confirmed switch the DriftController re-points LOOM at the drifted
// snapshot and runs a bounded-migration restream pass with the live
// assignment as prior — gain-ordered so the migration budget buys the most
// valuable moves first.
//
// The table brackets that reaction between doing nothing (stale assignment)
// and a cold multi-pass restream with unlimited migration.

#include <cstring>
#include <iostream>
#include <string>

#include "common/table.h"
#include "drift_scenario.h"

int main(int argc, char** argv) {
  using namespace loom;
  using namespace loom::bench;

  DriftScenarioConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      config.n = 20000;
    } else if (std::strcmp(argv[i], "--fast") == 0) {
      // defaults
    } else {
      std::cerr << "usage: bench_drift [--fast|--full]\n";
      return 2;
    }
  }

  const DriftScenarioResult r = RunDriftScenario(config);

  std::cout << "Detection: stationary fires=" << r.stationary_fires
            << " (want 0), fired=" << (r.fired ? "yes" : "no")
            << " at drift tick " << r.fire_tick
            << " (JS=" << FormatDouble(r.fire_signal.js, 3)
            << ", L1=" << FormatDouble(r.fire_signal.l1, 3)
            << "), post-reaction fires=" << r.post_reaction_fires
            << " (want 0)\n\n";

  TablePrinter table(
      "Drift reaction vs the brackets (piecewise-stationary workload, "
      "n=" + std::to_string(config.n) + ", k=" + std::to_string(config.k) +
          ", budget=" + FormatPercent(r.max_migration_fraction) + ")",
      {"strategy", "edge-cut", "migration", "wall s"});
  table.AddRow({"no reaction (stale)", FormatPercent(r.cut_no_reaction),
                FormatPercent(0.0), "-"});
  table.AddRow({"drift reaction", FormatPercent(r.cut_reaction),
                FormatPercent(r.migration_reaction),
                FormatDouble(r.seconds_reaction, 3)});
  table.AddRow({"cold restream (" + std::to_string(config.cold_passes) +
                    " passes)",
                FormatPercent(r.cut_cold), FormatPercent(r.migration_cold),
                FormatDouble(r.seconds_cold, 3)});
  table.Print(std::cout);

  std::cout << "\nReaction capacity pressure: overflow="
            << r.reaction_overflow_fallbacks
            << " forced=" << r.reaction_forced_placements
            << " assign-errors=" << r.reaction_assign_errors
            << " budget-denied=" << r.reaction_budget_denied_moves << "\n";
  std::cout << "\nExpected shape: the reaction within ~2 cut points of "
               "cold at <= the migration budget; cold moves most of the "
               "graph.\n";
  return 0;
}

// The partitioner factory is the one supported construction path for every
// streaming partitioner; these tests pin its registry, its error contract,
// and the name round-trip that keeps bench tables and CLI flags honest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

Workload TinyWorkload() {
  Workload w;
  (void)w.Add("path", PathQuery({0, 1}), 1.0);
  w.Normalize();
  return w;
}

TEST(PartitionerFactoryTest, RegistryListsTheCanonicalNames) {
  const std::vector<std::string>& names = KnownPartitioners();
  const std::vector<std::string> want = {"hash", "ldg", "fennel", "loom"};
  EXPECT_EQ(names, want);
  for (const std::string& name : names) {
    EXPECT_TRUE(IsKnownPartitioner(name)) << name;
  }
  EXPECT_FALSE(IsKnownPartitioner("metis"));
  EXPECT_FALSE(IsKnownPartitioner(""));
  EXPECT_FALSE(IsKnownPartitioner("LDG"));  // names are case-sensitive
}

TEST(PartitionerFactoryTest, NamesRoundTripThroughConstruction) {
  PartitionerOptions popts;
  popts.k = 4;
  popts.num_vertices_hint = 100;
  LoomOptions lopts;
  lopts.partitioner = popts;
  const Workload workload = TinyWorkload();
  auto trie = BuildTrie(workload, lopts.paths_only);
  ASSERT_TRUE(trie.ok());

  for (const std::string& name : KnownPartitioners()) {
    auto made = MakePartitioner(name, lopts, trie->get());
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ((*made)->Name(), name);
  }
}

TEST(PartitionerFactoryTest, UnknownNameIsInvalidArgument) {
  PartitionerOptions popts;
  auto plain = MakePartitioner("metis", popts);
  EXPECT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);

  LoomOptions lopts;
  auto full = MakePartitioner("metis", lopts, nullptr);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionerFactoryTest, LoomRequiresTheTrieOverload) {
  // The plain overload cannot build LOOM (no trie to give it).
  PartitionerOptions popts;
  auto plain = MakePartitioner("loom", popts);
  EXPECT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);

  // And the full overload still demands a non-null trie.
  LoomOptions lopts;
  auto no_trie = MakePartitioner("loom", lopts, nullptr);
  EXPECT_FALSE(no_trie.ok());
  EXPECT_EQ(no_trie.status().code(), StatusCode::kInvalidArgument);
}

// The partitioners divide by k and size capacity from the slack, so the
// factory refuses k = 0 and a slack below 1 or NaN, whichever name is
// asked for, through both overloads.
class InvalidPartitionerOptions
    : public ::testing::TestWithParam<std::string> {};

TEST_P(InvalidPartitionerOptions, AreInvalidArgument) {
  const std::string& name = GetParam();
  const Workload workload = TinyWorkload();
  auto trie = BuildTrie(workload);
  ASSERT_TRUE(trie.ok());
  LoomOptions zero_k;
  zero_k.partitioner.k = 0;
  LoomOptions low_slack;
  low_slack.partitioner.capacity_slack = 0.5;
  LoomOptions nan_slack;
  nan_slack.partitioner.capacity_slack = std::nan("");
  for (const LoomOptions& bad : {zero_k, low_slack, nan_slack}) {
    EXPECT_EQ(ValidatePartitionerOptions(bad.partitioner).code(),
              StatusCode::kInvalidArgument);
    auto full = MakePartitioner(name, bad, trie->get());
    EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
    if (name == "loom") continue;
    auto plain = MakePartitioner(name, bad.partitioner);
    EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryName, InvalidPartitionerOptions,
                         ::testing::ValuesIn(KnownPartitioners()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// LOOM's own options are checked the same way by both of its builders: the
// factory, which Service::Create goes through, and Loom::Create. A zero
// window and a negative or NaN frequency threshold are refused; the
// workload-oblivious names never read them.
TEST(PartitionerFactoryTest, LoomOptionsAreCheckedByEveryBuilder) {
  const Workload workload = TinyWorkload();
  auto trie = BuildTrie(workload);
  ASSERT_TRUE(trie.ok());
  LoomOptions zero_window;
  zero_window.partitioner.window_size = 0;
  LoomOptions negative_threshold;
  negative_threshold.matcher.frequency_threshold = -1.0;
  LoomOptions nan_threshold;
  nan_threshold.matcher.frequency_threshold = std::nan("");
  for (const LoomOptions& bad :
       {zero_window, negative_threshold, nan_threshold}) {
    EXPECT_EQ(ValidateLoomOptions(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(MakePartitioner("loom", bad, trie->get()).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(Loom::Create(workload, bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(MakePartitioner("ldg", bad, trie->get()).ok());
  }
  // A threshold above 1 is valid: no motif is frequent (the E8a ablation).
  LoomOptions over_one;
  over_one.matcher.frequency_threshold = 1.5;
  EXPECT_TRUE(ValidateLoomOptions(over_one).ok());
  EXPECT_TRUE(MakePartitioner("loom", over_one, trie->get()).ok());
}

TEST(PartitionerFactoryTest, ObliviousNamesIgnoreTheTrie) {
  // Workload-oblivious partitioners construct fine with or without a trie.
  LoomOptions lopts;
  lopts.partitioner.k = 3;
  for (const std::string& name : KnownPartitioners()) {
    if (name == "loom") continue;
    auto made = MakePartitioner(name, lopts, nullptr);
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ((*made)->Name(), name);
  }
}

}  // namespace
}  // namespace loom

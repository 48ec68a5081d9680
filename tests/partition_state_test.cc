// Tests for the k-way assignment state and capacity accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "partition/partition_state.h"
#include "partition/partitioner.h"

namespace loom {
namespace {

TEST(PartitionStateTest, AssignAndLookup) {
  PartitionAssignment a(4, 10);
  EXPECT_EQ(a.PartOf(3), -1);
  ASSERT_TRUE(a.Assign(3, 2).ok());
  EXPECT_EQ(a.PartOf(3), 2);
  EXPECT_TRUE(a.IsAssigned(3));
  EXPECT_EQ(a.NumAssigned(), 1u);
  EXPECT_EQ(a.Sizes()[2], 1u);
}

TEST(PartitionStateTest, RejectsDoubleAssignment) {
  PartitionAssignment a(2, 10);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  EXPECT_EQ(a.Assign(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(a.PartOf(0), 0);
}

TEST(PartitionStateTest, RejectsBadPartition) {
  PartitionAssignment a(2, 10);
  EXPECT_EQ(a.Assign(0, 2).code(), StatusCode::kInvalidArgument);
}

TEST(PartitionStateTest, EnforcesCapacity) {
  PartitionAssignment a(2, 2);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 0).ok());
  EXPECT_EQ(a.Assign(2, 0).code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(a.FreeCapacity(0), 0u);
  EXPECT_EQ(a.FreeCapacity(1), 2u);
}

TEST(PartitionStateTest, ZeroCapacityMeansUnconstrained) {
  PartitionAssignment a(2, 0);
  for (VertexId v = 0; v < 100; ++v) {
    ASSERT_TRUE(a.Assign(v, 0).ok());
  }
  EXPECT_GT(a.FreeCapacity(0), 1u << 20);
}

TEST(PartitionStateTest, SmallestPartition) {
  PartitionAssignment a(3, 10);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 0).ok());
  ASSERT_TRUE(a.Assign(2, 2).ok());
  EXPECT_EQ(a.SmallestPartition(), 1u);
}

TEST(PartitionStateTest, UnknownVertexUnassigned) {
  PartitionAssignment a(2, 10);
  EXPECT_EQ(a.PartOf(12345), -1);
}

TEST(ComputeCapacityTest, Formula) {
  // C = ceil(slack * n / k).
  EXPECT_EQ(ComputeCapacity(4, 100, 1.0), 25u);
  EXPECT_EQ(ComputeCapacity(4, 100, 1.1), 28u);
  EXPECT_EQ(ComputeCapacity(3, 10, 1.0), 4u);
  EXPECT_EQ(ComputeCapacity(8, 0, 1.0), 0u);  // unknown n -> unconstrained
  EXPECT_GE(ComputeCapacity(1000, 10, 1.0), 1u);
}

TEST(ComputeCapacityTest, ClampsOnlyProductsTheCastCannotHold) {
  // NaN and products below 1 give the minimum capacity 1; products at or
  // past 2^64 give the largest one. In-range products keep the formula.
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  EXPECT_EQ(ComputeCapacity(4, 100, std::nan("")), 1u);
  EXPECT_EQ(ComputeCapacity(4, 100, -1.0), 1u);
  EXPECT_EQ(ComputeCapacity(4, 100, -1e300), 1u);
  EXPECT_EQ(ComputeCapacity(4, 100, 0.0), 1u);
  EXPECT_EQ(ComputeCapacity(4, 100, 0.5), 13u);
  EXPECT_EQ(ComputeCapacity(4, 100, 1e300), kMax);
  EXPECT_EQ(ComputeCapacity(4, 100, HUGE_VAL), kMax);
  EXPECT_EQ(ComputeCapacity(1, 1, 1e19), 10000000000000000000u);
}

TEST(ComputeCapacityTest, ValidSlackIsFiniteAndAtLeastOne) {
  EXPECT_TRUE(IsValidSlack(1.0));
  EXPECT_TRUE(IsValidSlack(1.1));
  EXPECT_TRUE(IsValidSlack(1e300));
  EXPECT_FALSE(IsValidSlack(std::nan("")));
  EXPECT_FALSE(IsValidSlack(-1.0));
  EXPECT_FALSE(IsValidSlack(0.5));
  EXPECT_FALSE(IsValidSlack(HUGE_VAL));
}

TEST(PickLdgPartitionTest, PrefersMostEdges) {
  PartitionAssignment a(3, 100);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 1).ok());
  // 2 edges to partition 1, 1 edge to partition 0.
  EXPECT_EQ(PickLdgPartition(a, {1, 2, 0}), 1u);
}

TEST(PickLdgPartitionTest, CapacityPenaltyFlipsChoice) {
  // Partition 0 has 9 of 10 slots used; partition 1 empty. 3 edges to p0 vs
  // 2 to p1: scores 3 * (1 - 0.9) = 0.3 vs 2 * 1.0 = 2.0 -> p1.
  PartitionAssignment a(2, 10);
  for (VertexId v = 0; v < 9; ++v) ASSERT_TRUE(a.Assign(v, 0).ok());
  EXPECT_EQ(PickLdgPartition(a, {3, 2}), 1u);
}

TEST(PickLdgPartitionTest, AllZeroFallsBackToLeastLoaded) {
  PartitionAssignment a(3, 100);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 0).ok());
  ASSERT_TRUE(a.Assign(2, 1).ok());
  EXPECT_EQ(PickLdgPartition(a, {0, 0, 0}), 2u);
}

TEST(PickLdgPartitionTest, SkipsFullPartitions) {
  PartitionAssignment a(2, 2);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 0).ok());  // p0 full
  EXPECT_EQ(PickLdgPartition(a, {5, 0}), 1u);
}

TEST(PickLdgPartitionTest, RespectsClusterNeed) {
  PartitionAssignment a(2, 4);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 0).ok());
  ASSERT_TRUE(a.Assign(2, 0).ok());  // p0 has 1 free slot
  // Cluster of 3 only fits p1 even though p0 has more edges.
  EXPECT_EQ(PickLdgPartition(a, {9, 1}, 3), 1u);
}

TEST(PickLdgPartitionTest, ReturnsKWhenNothingFits) {
  PartitionAssignment a(2, 1);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  ASSERT_TRUE(a.Assign(1, 1).ok());
  EXPECT_EQ(PickLdgPartition(a, {1, 1}), 2u);
}

}  // namespace
}  // namespace loom

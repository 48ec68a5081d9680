// Unit tests for the common substrate: Status/Result, RNG, hashing and table
// rendering.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

namespace loom {
namespace {

// --------------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::AlreadyExists("x").code(),   Status::OutOfRange("x").code(),
      Status::CapacityExceeded("x").code(), Status::FailedPrecondition("x").code(),
      Status::IOError("x").code(),         Status::Internal("x").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::NotFound("gone"); };
  auto wrapper = [&]() -> Status {
    LOOM_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto produce = []() -> Result<int> { return 7; };
  auto consume = [&]() -> Result<int> {
    LOOM_ASSIGN_OR_RETURN(const int x, produce());
    return x * 2;
  };
  ASSERT_TRUE(consume().ok());
  EXPECT_EQ(consume().value(), 14);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto produce = []() -> Result<int> { return Status::NotFound("nope"); };
  auto consume = [&]() -> Result<int> {
    LOOM_ASSIGN_OR_RETURN(const int x, produce());
    return x;
  };
  EXPECT_EQ(consume().status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.UniformInt(5, 10);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 10u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfSamplerTest, Skew0IsUniform) {
  const ZipfSampler z(4, 0.0);
  for (size_t r = 0; r < 4; ++r) EXPECT_NEAR(z.Probability(r), 0.25, 1e-12);
}

TEST(ZipfSamplerTest, PositiveSkewFavorsLowRanks) {
  const ZipfSampler z(10, 1.5);
  EXPECT_GT(z.Probability(0), z.Probability(1));
  EXPECT_GT(z.Probability(1), z.Probability(5));
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  const ZipfSampler z(17, 0.8);
  double total = 0.0;
  for (size_t r = 0; r < 17; ++r) total += z.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, EmpiricalMatchesTheoretical) {
  const ZipfSampler z(5, 1.0);
  Rng rng(3);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ++counts[z.Sample(rng)];
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / trials, z.Probability(r),
                0.015);
  }
}

// ----------------------------------------------------------------------- Hash

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(HashTest, MixBitsChangesValue) {
  EXPECT_NE(MixBits(1), 1u);
  EXPECT_NE(MixBits(1), MixBits(2));
}

// ---------------------------------------------------------------------- Table

TEST(TableTest, PrintsAlignedColumns) {
  TablePrinter t("demo", {"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatPercent(0.128, 1), "12.8%");
}

}  // namespace
}  // namespace loom

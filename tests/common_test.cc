// Unit tests for the common substrate: Status/Result, RNG, primes, factor
// multisets, hashing and table rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/primes.h"
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

// --------------------------------------------------------------------- Primes

TEST(PrimeTableTest, FirstPrimes) {
  EXPECT_EQ(PrimeTable::Get(0), 2u);
  EXPECT_EQ(PrimeTable::Get(1), 3u);
  EXPECT_EQ(PrimeTable::Get(4), 11u);
  EXPECT_EQ(PrimeTable::Get(9), 29u);
  EXPECT_EQ(PrimeTable::Get(24), 97u);   // 25th prime
  EXPECT_EQ(PrimeTable::Get(99), 541u);  // 100th prime
}

TEST(PrimeTableTest, GrowsOnDemand) {
  const uint64_t p = PrimeTable::Get(999);
  EXPECT_EQ(p, 7919u);  // 1000th prime
  EXPECT_GE(PrimeTable::CachedCount(), 1000u);
}

// The first `count` primes by a sieve of Eratosthenes, independent of
// PrimeTable.
std::vector<uint64_t> SievedPrimes(size_t count) {
  for (size_t limit = 1 << 12;; limit *= 2) {
    std::vector<bool> composite(limit, false);
    std::vector<uint64_t> primes;
    for (size_t i = 2; i < limit && primes.size() < count; ++i) {
      if (composite[i]) continue;
      primes.push_back(i);
      for (size_t j = i * i; j < limit; j += i) composite[j] = true;
    }
    if (primes.size() == count) return primes;
  }
}

// Readers race the table's growth: every index past the cached count makes
// some thread grow and republish it while the others read the published
// prefix lock-free. Under TSan this checks the publication order too.
TEST(PrimeTableTest, ConcurrentGrowthKeepsEveryReadValid) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kSteps = 48;
  constexpr uint32_t kStride = 37;
  const uint32_t base = static_cast<uint32_t>(PrimeTable::CachedCount());
  const std::vector<uint64_t> want =
      SievedPrimes(base + kThreads * kSteps * kStride + 1);

  std::atomic<uint32_t> wrong{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t step = 0; step < kSteps; ++step) {
        // Interleaved targets, so the threads take turns growing the table.
        const uint32_t i = base + (step * kThreads + t) * kStride;
        if (PrimeTable::Get(i) != want[i]) wrong.fetch_add(1);
        // And a read of the prefix some other thread may be republishing.
        const uint32_t j = i / (t + 2);
        if (PrimeTable::Get(j) != want[j]) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(PrimeTable::CachedCount(),
            base + (kSteps - 1) * kThreads * kStride);
}

TEST(FactorMultisetTest, EmptyDividesEverything) {
  FactorMultiset empty;
  FactorMultiset other({1, 2, 3});
  EXPECT_TRUE(empty.Divides(other));
  EXPECT_TRUE(empty.Divides(empty));
  EXPECT_FALSE(other.Divides(empty));
}

TEST(FactorMultisetTest, MultiplyKeepsSorted) {
  FactorMultiset m;
  m.MultiplyFactor(5);
  m.MultiplyFactor(1);
  m.MultiplyFactor(3);
  m.MultiplyFactor(1);
  EXPECT_EQ(m.factors(), (std::vector<uint32_t>{1, 1, 3, 5}));
}

TEST(FactorMultisetTest, DividesRespectsMultiplicity) {
  FactorMultiset twice({2, 2});
  FactorMultiset once({2});
  FactorMultiset thrice({2, 2, 2});
  EXPECT_TRUE(once.Divides(twice));
  EXPECT_TRUE(twice.Divides(thrice));
  EXPECT_FALSE(twice.Divides(once));
  EXPECT_FALSE(thrice.Divides(twice));
}

TEST(FactorMultisetTest, DividesMirrorsIntegerDivisibility) {
  // 12 = 2^2 * 3 -> indices {0,0,1}; 60 = 2^2*3*5 -> {0,0,1,2}.
  FactorMultiset twelve({0, 0, 1});
  FactorMultiset sixty({0, 0, 1, 2});
  EXPECT_TRUE(twelve.Divides(sixty));
  EXPECT_FALSE(sixty.Divides(twelve));
  EXPECT_EQ(twelve.ProductMod64(), 12u);
  EXPECT_EQ(sixty.ProductMod64(), 60u);
}

TEST(FactorMultisetTest, MultiplyIsMultisetUnion) {
  FactorMultiset a({1, 3});
  FactorMultiset b({2, 3});
  a.Multiply(b);
  EXPECT_EQ(a.factors(), (std::vector<uint32_t>{1, 2, 3, 3}));
  EXPECT_TRUE(b.Divides(a));
}

TEST(FactorMultisetTest, DivideFactorRemovesOneOccurrence) {
  FactorMultiset m({4, 4, 7});
  EXPECT_TRUE(m.DivideFactor(4));
  EXPECT_EQ(m.factors(), (std::vector<uint32_t>{4, 7}));
  EXPECT_FALSE(m.DivideFactor(9));
}

TEST(FactorMultisetTest, HashEqualForEqualMultisets) {
  FactorMultiset a({5, 2, 2});
  FactorMultiset b({2, 5, 2});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(FactorMultisetTest, HashesSpread) {
  std::unordered_set<uint64_t> hashes;
  for (uint32_t i = 0; i < 200; ++i) {
    for (uint32_t j = i; j < i + 3; ++j) {
      hashes.insert(FactorMultiset({i, j}).Hash());
    }
  }
  EXPECT_EQ(hashes.size(), 600u);
}

TEST(FactorMultisetTest, ToStringShowsPrimePowers) {
  FactorMultiset m({0, 0, 2});
  EXPECT_EQ(m.ToString(), "{2^2 * 5}");
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

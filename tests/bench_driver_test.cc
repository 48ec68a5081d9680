// Contract test for tools/run_benchmarks: `--fast` must produce valid JSON
// with the metric keys later PRs regress against (edge-cut fraction,
// balance, throughput). The binary path is injected by CMake via the
// RUN_BENCHMARKS_BIN compile definition.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <stdlib.h>  // mkdtemp
#endif

namespace loom {
namespace {

// ------------------------------------------------ minimal JSON validation
// A tiny recursive-descent checker: accepts exactly the JSON grammar (no
// extensions), which is all the contract needs — we assert validity and
// then look for specific keys in the raw text.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number() {
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (isdigit(static_cast<unsigned char>(Peek()))) {
      while (isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    } else {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return true;
  }

  bool Literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing file: " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

class BenchDriverTest : public ::testing::Test {
 protected:
  // Run the driver once for the whole fixture; --fast still takes seconds.
  // The output dir is unique per process (mkdtemp) so concurrent runs of
  // this binary never race on the same BENCH_*.json paths.
  static void SetUpTestSuite() {
#ifdef _WIN32
    GTEST_SKIP() << "driver contract test is POSIX-only";
#else
    std::string tmpl = ::testing::TempDir() + "loom_bench_driver_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr) << "mkdtemp failed: " << tmpl;
    out_dir_ = new std::string(tmpl);
    const std::string cmd = std::string(RUN_BENCHMARKS_BIN) +
                            " --fast --out " + *out_dir_ + " > /dev/null";
    exit_code_ = std::system(cmd.c_str());
#endif
  }
  static void TearDownTestSuite() {
    delete out_dir_;
    out_dir_ = nullptr;
  }

  static std::string* out_dir_;
  static int exit_code_;
};

std::string* BenchDriverTest::out_dir_ = nullptr;
int BenchDriverTest::exit_code_ = -1;

TEST_F(BenchDriverTest, ExitsCleanly) { EXPECT_EQ(exit_code_, 0); }

TEST_F(BenchDriverTest, EdgeCutJsonIsValidWithExpectedKeys) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_edge_cut.json");
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).Valid()) << text;
  EXPECT_NE(text.find("\"schema\": \"loom-bench-edge-cut-v9\""),
            std::string::npos);
  for (const char* key :
       {"\"edge_cut_fraction\"", "\"balance\"", "\"vertices_per_second\"",
        "\"partitioner\"", "\"graph\"", "\"peak_rss_bytes\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  // The standard set must be present: hash, ldg, fennel, buffered, loom,
  // plus the offline baseline.
  for (const char* p : {"\"hash\"", "\"ldg\"", "\"fennel\"", "\"loom\""}) {
    EXPECT_NE(text.find(p), std::string::npos) << "missing partitioner " << p;
  }
}

TEST_F(BenchDriverTest, EdgeCutJsonHasRestreamSection) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_edge_cut.json");
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"restream\": ["), std::string::npos)
      << "missing restream section";
  for (const char* key :
       {"\"pass\"", "\"ordering\"", "\"best_edge_cut_fraction\"",
        "\"migration_fraction\"", "\"overflow_fallbacks\""}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing restream key " << key;
  }
}

TEST_F(BenchDriverTest, EdgeCutJsonHasDriftSection) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_edge_cut.json");
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"drift\": ["), std::string::npos)
      << "missing drift section";
  // The three strategies the reaction is bracketed between.
  for (const char* s : {"\"no-reaction\"", "\"drift-reaction\"",
                        "\"cold-restream\""}) {
    EXPECT_NE(text.find(s), std::string::npos) << "missing strategy " << s;
  }
  for (const char* key :
       {"\"scenario\"", "\"max_migration_fraction\"", "\"fire_tick\"",
        "\"forced_placements\"", "\"assign_errors\"",
        "\"budget_denied_moves\""}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing drift key " << key;
  }
}

TEST_F(BenchDriverTest, EdgeCutJsonHasServingSection) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_edge_cut.json");
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"serving\": ["), std::string::npos)
      << "missing serving section";
  // One latency row per operation of the concurrent serving scenario.
  for (const char* op :
       {"\"ingest-batch\"", "\"locate\"", "\"touches\""}) {
    EXPECT_NE(text.find(op), std::string::npos) << "missing operation " << op;
  }
  for (const char* key :
       {"\"serving-under-drift\"", "\"num_clients\"", "\"front_end_shards\"",
        "\"p50_seconds\"", "\"p99_seconds\"", "\"p999_seconds\"",
        "\"queries_during_reaction\"", "\"drift_reactions\"",
        "\"snapshot_epoch\""}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing serving key " << key;
  }
  // The hard liveness/soundness floor CI also enforces: the drift loop ran
  // and the partitioner never errored while clients were reading.
  EXPECT_NE(text.find("\"assign_errors\": 0"), std::string::npos)
      << "serving scenario reported assignment errors";
}

TEST_F(BenchDriverTest, EdgeCutJsonHasLargeSection) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_edge_cut.json");
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"large\": ["), std::string::npos)
      << "missing large section";
  // Schema v6 keys: the file-backed tier's provenance, the out-of-core
  // guarantee (zero materializations) and the asserted O(V) memory ceiling.
  for (const char* key :
       {"\"tier\": \"file-backed-ba\"", "\"file_bytes\"",
        "\"edge_cut_fraction_before\"", "\"edge_cut_fraction_after\"",
        "\"materializations\": 0", "\"rss_ceiling_bytes\"",
        "\"rss_ok\": true"}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing large key " << key;
  }
}

TEST_F(BenchDriverTest, EdgeCutJsonHasEdgePartitionSection) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_edge_cut.json");
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"edge_partition\": ["), std::string::npos)
      << "missing edge_partition section";
  // Schema v7 keys: the vertex-cut quality axes (replication factor,
  // edge balance), both streaming algorithms on both tiers, and the
  // lambda knob the HDRF rows sweep.
  for (const char* key :
       {"\"replication_factor\"", "\"edges_per_second\"",
        "\"restream_passes\"", "\"lambda\"", "\"cap_relaxations\"",
        "\"partitioner\": \"hdrf\"", "\"partitioner\": \"dbh\"",
        "\"tier\": \"in-memory\"", "\"tier\": \"file-backed-ba\""}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing edge_partition key " << key;
  }
}

TEST_F(BenchDriverTest, MicroJsonIsValidWithExpectedKeys) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_micro.json");
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).Valid()) << text;
  EXPECT_NE(text.find("\"schema\": \"loom-bench-micro-v3\""),
            std::string::npos);
  for (const char* key :
       {"\"name\"", "\"iterations\"", "\"seconds\"", "\"ns_per_op\"",
        "\"ops_per_second\"", "\"peak_rss_bytes\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  // The three hot-path loops the container overhaul is gated on.
  for (const char* name : {"\"window_churn\"", "\"trie_signature_lookup\"",
                           "\"signature_multiply_edge\""}) {
    EXPECT_NE(text.find(name), std::string::npos) << "missing loop " << name;
  }
}

TEST_F(BenchDriverTest, MicroJsonHasThroughputSection) {
  const std::string text = ReadFileOrDie(*out_dir_ + "/BENCH_micro.json");
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"throughput\": ["), std::string::npos)
      << "missing throughput section";
  for (const char* key :
       {"\"family\"", "\"vertices_per_second\"", "\"edges_per_second\"",
        "\"num_vertices\"", "\"num_edges\""}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing throughput key " << key;
  }
  // The end-to-end pipeline (loom) plus the reference heuristics.
  for (const char* p : {"\"hash\"", "\"ldg\"", "\"loom\""}) {
    EXPECT_NE(text.find(p), std::string::npos)
        << "missing throughput partitioner " << p;
  }
}

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker("{}").Valid());
  EXPECT_TRUE(JsonChecker("{\"a\": [1, 2.5e-3, \"x\"], \"b\": {}}").Valid());
  EXPECT_TRUE(JsonChecker("[-0.5, 0, 1e+9, true, null]").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\": }").Valid());
  EXPECT_FALSE(JsonChecker("{").Valid());
  EXPECT_FALSE(JsonChecker("{} trailing").Valid());
  // Non-JSON number tokens must be rejected.
  EXPECT_FALSE(JsonChecker("1.2.3").Valid());
  EXPECT_FALSE(JsonChecker("-").Valid());
  EXPECT_FALSE(JsonChecker("+5").Valid());
  EXPECT_FALSE(JsonChecker("1e++2").Valid());
  EXPECT_FALSE(JsonChecker("01").Valid());
  EXPECT_FALSE(JsonChecker("1.").Valid());
}

}  // namespace
}  // namespace loom

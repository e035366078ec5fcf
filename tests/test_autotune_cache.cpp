// AutotuneCache disk-mirror hardening: the FISHEYE_TUNE_CACHE file is an
// optimization, never a liability. A corrupt, truncated, version-skewed or
// outright binary file must load as "no decisions" without throwing, must
// not poison the in-process cache, and the next store() must rewrite the
// file into a clean, loadable state.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/autotune.hpp"
#include "core/backend.hpp"

namespace fisheye {
namespace {

using core::AutotuneCache;
using core::TunedSpec;

class AutotuneCacheDisk : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::string("/tmp/fisheye_tune_cache_") + info->name() + ".tsv";
    std::remove(path_.c_str());
    ::setenv("FISHEYE_TUNE_CACHE", path_.c_str(), 1);
    AutotuneCache::instance().reload_disk();
  }

  void TearDown() override {
    ::unsetenv("FISHEYE_TUNE_CACHE");
    AutotuneCache::instance().reload_disk();  // back to disk-free state
    std::remove(path_.c_str());
  }

  void write_file(const std::string& contents) const {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << contents;
  }

  std::string path_;
};

TEST_F(AutotuneCacheDisk, RoundTripsThroughDisk) {
  AutotuneCache& cache = AutotuneCache::instance();
  cache.store("keyA", TunedSpec::parse("gather/128/-/-"));
  cache.store("keyB", TunedSpec::parse("soa/-/96x32/compact:8"));

  cache.reload_disk();
  const auto a = cache.lookup("keyA");
  const auto b = cache.lookup("keyB");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->token(), "gather/128/-/-");
  EXPECT_EQ(b->token(), "soa/-/96x32/compact:8");
}

TEST_F(AutotuneCacheDisk, MissingFileLoadsEmpty) {
  AutotuneCache& cache = AutotuneCache::instance();
  EXPECT_FALSE(cache.lookup("anything").has_value());
}

TEST_F(AutotuneCacheDisk, VersionSkewedFileIsIgnoredWholesale) {
  // A file from a different (or future) format version: even lines that
  // would parse under the current format must not load.
  write_file("fisheye-tune-cache/999\nkeyA\tgather/128/-/-\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  EXPECT_FALSE(cache.lookup("keyA").has_value());
}

TEST_F(AutotuneCacheDisk, HeaderlessLegacyFileIsIgnored) {
  write_file("keyA\tgather/128/-/-\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  EXPECT_FALSE(cache.lookup("keyA").has_value());
}

TEST_F(AutotuneCacheDisk, CorruptLinesAreSkippedValidOnesLoad) {
  write_file(
      "fisheye-tune-cache/1\n"
      "no-tab-on-this-line\n"
      "\ttab-first-no-key\n"
      "keyBad\tnot/a/valid\n"           // 3 slots, parse rejects
      "keyWorse\twarp9/!!/0x0/lol\n"    // 4 slots, every one malformed
      "keyHuge\t-/99999999999999999999999999/-/-\n"  // stoi out_of_range
      "keyGood\tscalar/-/-/-\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  EXPECT_FALSE(cache.lookup("keyBad").has_value());
  EXPECT_FALSE(cache.lookup("keyWorse").has_value());
  EXPECT_FALSE(cache.lookup("keyHuge").has_value());
  const auto good = cache.lookup("keyGood");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->token(), "scalar/-/-/-");
}

TEST_F(AutotuneCacheDisk, TruncatedEntryIsSkipped) {
  // Torn write: the last line stops mid-token.
  write_file(
      "fisheye-tune-cache/1\n"
      "keyGood\tgather/256/-/-\n"
      "keyTorn\tgather/2");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  EXPECT_TRUE(cache.lookup("keyGood").has_value());
  EXPECT_FALSE(cache.lookup("keyTorn").has_value());
}

TEST_F(AutotuneCacheDisk, BinaryGarbageNeverThrows) {
  static constexpr char kJunk[] =
      "\x7f""ELF\x01\x02\x00garbage\n\x00\xff\xfe\ttab\n";
  write_file(std::string(kJunk, sizeof(kJunk) - 1));
  AutotuneCache& cache = AutotuneCache::instance();
  EXPECT_NO_THROW(cache.reload_disk());
  EXPECT_FALSE(cache.lookup("garbage").has_value());
}

TEST_F(AutotuneCacheDisk, StoreRewritesCorruptFileClean) {
  write_file("total nonsense, no header\nmore nonsense\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  cache.store("keyA", TunedSpec::parse("soa/64/-/-"));

  // The rewrite repaired the file: a fresh load sees exactly the stored
  // decision and none of the nonsense.
  cache.reload_disk();
  const auto a = cache.lookup("keyA");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->token(), "soa/64/-/-");

  std::ifstream in(path_);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_EQ(first, "fisheye-tune-cache/1");
}

TEST_F(AutotuneCacheDisk, StatsCountHitsAndMisses) {
  AutotuneCache& cache = AutotuneCache::instance();
  cache.store("keyA", TunedSpec::parse("gather/-/-/-"));
  (void)cache.lookup("keyA");
  (void)cache.lookup("keyMissing");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

}  // namespace
}  // namespace fisheye

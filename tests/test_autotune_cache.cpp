// AutotuneCache disk-mirror hardening: the FISHEYE_TUNE_CACHE file is an
// optimization, never a liability. A corrupt, truncated, version-skewed or
// outright binary file must load as "no decisions" without throwing, must
// not poison the in-process cache, and the next store() must rewrite the
// file into a clean, loadable state. A remembered label that no candidate
// carries any more is measured again.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/autotune.hpp"
#include "core/backend.hpp"
#include "core/backend_registry.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "image/image.hpp"
#include "util/mathx.hpp"

namespace fisheye {
namespace {

using core::AutotuneCache;

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
  cache.store("keyA", "datapath=gather");
  cache.store("keyB", "tile=128x32");

  cache.reload_disk();
  const auto a = cache.lookup("keyA");
  const auto b = cache.lookup("keyB");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, "datapath=gather");
  EXPECT_EQ(*b, "tile=128x32");
}

TEST_F(AutotuneCacheDisk, MissingFileLoadsEmpty) {
  AutotuneCache& cache = AutotuneCache::instance();
  EXPECT_FALSE(cache.lookup("anything").has_value());
}

TEST_F(AutotuneCacheDisk, VersionSkewedFileIsIgnoredWholesale) {
  // A file from a different (older or future) format version: even lines
  // that would load under the current format must not.
  for (const char* tag : {"fisheye-tune-cache/1", "fisheye-tune-cache/999"}) {
    write_file(std::string(tag) + "\nkeyA\tdatapath=gather\n");
    AutotuneCache& cache = AutotuneCache::instance();
    cache.reload_disk();
    EXPECT_FALSE(cache.lookup("keyA").has_value()) << tag;
  }
}

TEST_F(AutotuneCacheDisk, HeaderlessLegacyFileIsIgnored) {
  write_file("keyA\tdatapath=gather\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  EXPECT_FALSE(cache.lookup("keyA").has_value());
}

TEST_F(AutotuneCacheDisk, CorruptLinesAreSkippedValidOnesLoad) {
  write_file(
      "fisheye-tune-cache/2\n"
      "no-tab-on-this-line\n"
      "\ttab-first-no-key\n"
      "keyEmpty\t\n"                    // no label
      "keySpace\tdatapath= gather\n"    // labels carry no spaces
      "keyTabs\tdatapath=gather\textra\n"
      "keyCtl\tdata\x01path=gather\n"   // control byte
      "keyGood\tdatapath=scalar\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();
  for (const char* key :
       {"keyEmpty", "keySpace", "keyTabs", "keyCtl", "no-tab-on-this-line"})
    EXPECT_FALSE(cache.lookup(key).has_value()) << key;
  const auto good = cache.lookup("keyGood");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(*good, "datapath=scalar");
}

TEST_F(AutotuneCacheDisk, TruncatedEntryIsSkipped) {
  // Torn write: the last line stops mid-label, before its newline.
  write_file(
      "fisheye-tune-cache/2\n"
      "keyGood\tdatapath=gather\n"
      "keyTorn\tdatapath=ga");
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
  cache.store("keyA", "tile=32x32");

  // The rewrite repaired the file: a fresh load sees exactly the stored
  // decision and none of the nonsense.
  cache.reload_disk();
  const auto a = cache.lookup("keyA");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "tile=32x32");

  std::ifstream in(path_);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_EQ(first, "fisheye-tune-cache/2");
}

TEST_F(AutotuneCacheDisk, StatsCountHitsAndMisses) {
  AutotuneCache& cache = AutotuneCache::instance();
  cache.store("keyA", "datapath=gather");
  (void)cache.lookup("keyA");
  (void)cache.lookup("keyMissing");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(AutotuneCacheDisk, StaleLabelIsMeasuredAgain) {
  // A label no candidate carries (here one naming a strip length, which
  // the tuner does not measure) is no decision: the backend measures its
  // candidates, resolves to one of them and overwrites the line.
  const int w = 96, h = 64;
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(170.0), w, h);
  const core::PerspectiveView view(w, h, cam.lens().focal());
  const core::WarpMap map = core::build_map(cam, view);
  img::Image8 src(w, h, 1), dst(w, h, 1);
  core::ExecContext ctx;
  ctx.src = src.view();
  ctx.dst = dst.view();
  ctx.map = map;

  const auto backend =
      core::BackendRegistry::create("cpu:threads=2,tiles,tuned=auto");
  const std::string key = core::autotune_cache_key(ctx, backend->name());
  write_file("fisheye-tune-cache/2\n" + key + "\ttile=64x64,strip=128\n");
  AutotuneCache& cache = AutotuneCache::instance();
  cache.reload_disk();

  (void)backend->plan(ctx);
  EXPECT_EQ(cache.stats().stores, 1u);
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned="), std::string::npos) << resolved;
  const auto label = cache.lookup(key);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->rfind("tile=", 0), 0u) << *label;
  EXPECT_NE(resolved.find(*label), std::string::npos)
      << resolved << " vs " << *label;

  cache.reload_disk();
  EXPECT_EQ(cache.lookup(key), label);
}

}  // namespace
}  // namespace fisheye

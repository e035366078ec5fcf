// Cluster (message-passing) simulator: functional equality, traffic
// accounting, network-model shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "video/pipeline.hpp"

namespace fisheye::cluster {
namespace {

using util::deg_to_rad;

struct Env {
  core::Corrector corr;
  img::Image8 src;

  explicit Env(int w, int h, int ch = 1)
      : corr(core::Corrector::builder(w, h).fov_degrees(180.0).build()),
        src([&] {
          const auto cam = core::FisheyeCamera::centered(
              core::LensKind::Equidistant, deg_to_rad(180.0), w, h);
          return video::SyntheticVideoSource(cam, w, h, ch).frame(0);
        }()) {}
};

img::Image8 reference(const Env& e) {
  img::Image8 ref(e.corr.config().out_width, e.corr.config().out_height,
                  e.src.channels());
  core::SerialBackend serial;
  e.corr.correct(e.src.view(), ref.view(), serial);
  return ref;
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, OutputMatchesSerialBitExact) {
  const Env e(160, 120);
  const img::Image8 ref = reference(e);
  ClusterConfig config;
  config.ranks = GetParam();
  ClusterSimBackend backend(config);
  img::Image8 out(160, 120, 1);
  e.corr.correct(e.src.view(), out.view(), backend);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_EQ(backend.last_stats().ranks, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 3, 7, 16));

TEST(Cluster, BroadcastMatchesSerialToo) {
  const Env e(128, 96, 3);
  const img::Image8 ref = reference(e);
  ClusterConfig config;
  config.ranks = 4;
  config.distribution = Distribution::FullBroadcast;
  ClusterSimBackend backend(config);
  img::Image8 out(128, 96, 3);
  e.corr.correct(e.src.view(), out.view(), backend);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

TEST(Cluster, StripScatterMovesFewerBytesThanBroadcast) {
  const Env e(320, 240);
  img::Image8 out(320, 240, 1);
  ClusterConfig scatter;
  scatter.ranks = 8;
  ClusterConfig broadcast = scatter;
  broadcast.distribution = Distribution::FullBroadcast;
  ClusterSimBackend sb(scatter), bb(broadcast);
  e.corr.correct(e.src.view(), out.view(), sb);
  e.corr.correct(e.src.view(), out.view(), bb);
  // Both move the full map (8 B/px, the fixed cost); broadcast additionally
  // re-sends the whole source to every rank, scatter sends each rank only
  // its bounding box (the boxes tile the source with small overlaps).
  const std::size_t src_bytes =
      static_cast<std::size_t>(320) * 240;  // gray frame
  EXPECT_LT(sb.last_stats().bytes_scattered,
            bb.last_stats().bytes_scattered);
  EXPECT_GE(bb.last_stats().bytes_scattered - sb.last_stats().bytes_scattered,
            (8 - 2) * src_bytes);  // broadcast excess ~ (ranks-1) frames
  // Gathered bytes identical (same output).
  EXPECT_EQ(sb.last_stats().bytes_gathered, bb.last_stats().bytes_gathered);
}

TEST(Cluster, FasterNetworkNeverSlower) {
  const Env e(320, 240);
  img::Image8 out(320, 240, 1);
  ClusterConfig slow, fast;
  slow.ranks = fast.ranks = 8;
  slow.network = InterconnectModel::gigabit_ethernet();
  fast.network = InterconnectModel::infiniband_qdr();
  ClusterSimBackend sb(slow), fb(fast);
  e.corr.correct(e.src.view(), out.view(), sb);
  e.corr.correct(e.src.view(), out.view(), fb);
  EXPECT_GE(fb.last_stats().fps, sb.last_stats().fps);
  EXPECT_GT(fb.last_stats().efficiency, sb.last_stats().efficiency);
}

TEST(Cluster, SlowNodesScaleComputeTime) {
  const Env e(160, 120);
  img::Image8 out(160, 120, 1);
  ClusterConfig normal, half;
  normal.ranks = half.ranks = 2;
  half.node_speed = 0.5;
  ClusterSimBackend nb(normal), hb(half);
  // Half-speed nodes roughly double the compute share. One frame computes
  // in tens of microseconds, so compare medians over frames that alternate
  // between the two backends (a busy host slows both alike).
  std::vector<double> normal_s, half_s;
  for (int f = 0; f < 15; ++f) {
    e.corr.correct(e.src.view(), out.view(), nb);
    normal_s.push_back(nb.last_stats().compute_seconds);
    e.corr.correct(e.src.view(), out.view(), hb);
    half_s.push_back(hb.last_stats().compute_seconds);
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median(half_s), 1.4 * median(normal_s));
}

TEST(Cluster, StatsAreConsistent) {
  const Env e(160, 120);
  img::Image8 out(160, 120, 1);
  ClusterConfig config;
  config.ranks = 4;
  ClusterSimBackend backend(config);
  e.corr.correct(e.src.view(), out.view(), backend);
  const ClusterFrameStats& s = backend.last_stats();
  EXPECT_GT(s.seconds, 0.0);
  EXPECT_GT(s.bytes_scattered, 0u);
  EXPECT_EQ(s.bytes_gathered, 160u * 120u);
  EXPECT_GT(s.speedup, 0.0);
  EXPECT_LE(s.efficiency, 1.05);  // tiny timing noise tolerance
  EXPECT_EQ(backend.name(), "cluster");
}

TEST(Cluster, MoreRanksThanRowsClamped) {
  const Env e(64, 8);
  const img::Image8 ref = reference(e);
  ClusterConfig config;
  config.ranks = 64;  // > 8 rows
  ClusterSimBackend backend(config);
  img::Image8 out(64, 8, 1);
  e.corr.correct(e.src.view(), out.view(), backend);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_LE(backend.last_stats().ranks, 8);
}

TEST(Cluster, RejectsUnsupportedModes) {
  const Env e(64, 64);
  core::ExecContext ctx;
  img::Image8 out(64, 64, 1);
  ctx = e.corr.make_context(e.src.view(), out.view());
  ctx.opts.interp = core::Interp::Bicubic;
  ClusterSimBackend backend(ClusterConfig{});
  EXPECT_THROW(backend.execute(ctx), fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::cluster

// Cell-like platform simulator: functional equivalence, tiling/splitting
// behaviour, local-store budget enforcement, and cost-model scaling shapes.
#include <gtest/gtest.h>

#include <vector>

#include "accel/accel_backend.hpp"
#include "accel/spe_platform.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "core/projection.hpp"
#include "core/remap.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "util/mathx.hpp"

namespace fisheye::accel {
namespace {

using util::deg_to_rad;

struct Env {
  core::FisheyeCamera cam;
  core::PerspectiveView view;
  core::WarpMap map;
  img::Image8 src;

  explicit Env(int w, int h, int ch = 1)
      : cam(core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                          deg_to_rad(180.0), w, h)),
        view(w, h, cam.lens().focal()),
        map(core::build_map(cam, view)),
        src(w, h, ch) {
    const img::Image8 pattern = img::make_rings(w, h, 9);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        for (int c = 0; c < ch; ++c)
          src.at(x, y, c) = static_cast<std::uint8_t>(pattern.at(x, y) + 13 * c);
  }
};

img::Image8 reference(const Env& s) {
  img::Image8 ref(s.map.width, s.map.height, s.src.channels());
  core::remap_rect(s.src.view(), ref.view(), s.map,
                   {0, 0, s.map.width, s.map.height},
                   {core::Interp::Bilinear, img::BorderMode::Constant, 0});
  return ref;
}

TEST(SpePlatform, OutputMatchesScalarReferenceBitExact) {
  const Env s(160, 120);
  SpeConfig config;
  config.num_spes = 4;
  CellLikePlatform platform(s.map, 160, 120, 1, config);
  img::Image8 out(160, 120, 1);
  const AccelFrameStats stats = platform.run_frame(s.src.view(), out.view(), 0);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(reference(s).view(), out.view()));
  EXPECT_GT(stats.fps, 0.0);
  EXPECT_GT(stats.tiles, 1u);
}

TEST(SpePlatform, MultiChannelMatches) {
  const Env s(128, 96, 3);
  SpeConfig config;
  CellLikePlatform platform(s.map, 128, 96, 3, config);
  img::Image8 out(128, 96, 3);
  platform.run_frame(s.src.view(), out.view(), 0);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(reference(s).view(), out.view()));
}

TEST(SpePlatform, TilesCoverOutputExactlyOnce) {
  const Env s(200, 150);
  SpeConfig config;
  config.tile_w = 64;
  config.tile_h = 48;
  CellLikePlatform platform(s.map, 200, 150, 1, config);
  std::vector<int> cover(200 * 150, 0);
  for (const SpeTile& t : platform.tiles())
    for (int y = t.out.y0; y < t.out.y1; ++y)
      for (int x = t.out.x0; x < t.out.x1; ++x) ++cover[y * 200 + x];
  for (int v : cover) ASSERT_EQ(v, 1);
}

TEST(SpePlatform, WorkingSetsRespectLocalStoreBudget) {
  const Env s(320, 240);
  SpeConfig config;
  config.local_store_bytes = 64 * 1024;  // small store forces splits
  config.tile_w = 320;                   // absurdly wide initial tiles
  config.tile_h = 64;
  CellLikePlatform platform(s.map, 320, 240, 1, config);
  std::size_t splits = 0;
  for (const SpeTile& t : platform.tiles()) {
    EXPECT_LE(t.working_set_bytes, config.local_store_bytes - 2048);
    splits += t.split ? 1 : 0;
  }
  EXPECT_GT(splits, 0u);
  EXPECT_LE(platform.peak_working_set(), config.local_store_bytes);
  // Functional result unaffected by splitting.
  img::Image8 out(320, 240, 1);
  platform.run_frame(s.src.view(), out.view(), 0);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(reference(s).view(), out.view()));
}

TEST(SpePlatform, FpsScalesWithSpeCount) {
  const Env s(320, 240);
  double prev_fps = 0.0;
  for (int spes : {1, 2, 4, 8}) {
    SpeConfig config;
    config.num_spes = spes;
    CellLikePlatform platform(s.map, 320, 240, 1, config);
    img::Image8 out(320, 240, 1);
    const AccelFrameStats stats =
        platform.run_frame(s.src.view(), out.view(), 0);
    EXPECT_GT(stats.fps, prev_fps) << spes << " SPEs";
    prev_fps = stats.fps;
  }
}

TEST(SpePlatform, NearLinearScalingToFourSpes) {
  const Env s(320, 240);
  auto fps_for = [&](int spes) {
    SpeConfig config;
    config.num_spes = spes;
    CellLikePlatform platform(s.map, 320, 240, 1, config);
    img::Image8 out(320, 240, 1);
    return platform.run_frame(s.src.view(), out.view(), 0).fps;
  };
  const double s4 = fps_for(4) / fps_for(1);
  EXPECT_GT(s4, 3.0);  // compute-bound region scales nearly linearly
  EXPECT_LE(s4, 4.2);
}

TEST(SpePlatform, DoubleBufferingBeatsSingle) {
  const Env s(320, 240);
  auto fps_for = [&](bool dbuf, double dma_bpc) {
    SpeConfig config;
    config.num_spes = 4;
    config.double_buffering = dbuf;
    config.cost.dma_bytes_per_cycle = dma_bpc;
    CellLikePlatform platform(s.map, 320, 240, 1, config);
    img::Image8 out(320, 240, 1);
    return platform.run_frame(s.src.view(), out.view(), 0).fps;
  };
  // Default model: compute-bound, overlap still helps (strictly faster).
  EXPECT_GT(fps_for(true, 8.0), fps_for(false, 8.0));
  // DMA-starved configuration (1 B/cycle): overlap must buy a big margin
  // because transfers rival compute.
  EXPECT_GT(fps_for(true, 1.0), fps_for(false, 1.0) * 1.15);
}

TEST(SpePlatform, UtilizationIsAFraction) {
  const Env s(160, 120);
  SpeConfig config;
  config.num_spes = 8;
  CellLikePlatform platform(s.map, 160, 120, 1, config);
  img::Image8 out(160, 120, 1);
  const AccelFrameStats stats = platform.run_frame(s.src.view(), out.view(), 0);
  EXPECT_GT(stats.utilization, 0.0);
  EXPECT_LE(stats.utilization, 1.0);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_EQ(stats.bytes_out, 160u * 120u);
}

TEST(SpePlatform, StealScheduleModelIsPinned) {
  // The steal schedule's modeled frame on a skewed workload: an off-axis
  // PTZ view (as in F18) puts the fill on one side, so small tiles leave
  // some SPEs idle early and they steal. The figures pin the schedule
  // itself — which SPE runs which tile, in which order — so any change to
  // the run split, the victim choice or the steal size shows up here.
  const int w = 320, h = 180;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(100.0), w, h);
  const core::WarpMap map = core::build_map(
      cam, core::PerspectiveView::ptz(384, 216, deg_to_rad(75.0),
                                      deg_to_rad(5.0), deg_to_rad(110.0)));
  const img::Image8 src = img::make_rings(w, h, 9);
  img::Image8 out(map.width, map.height, 1);
  const auto backend =
      core::BackendRegistry::create("cell:schedule=steal,tile=24x16");
  auto& cell = dynamic_cast<CellBackend&>(*backend);
  core::ExecContext ctx;
  ctx.src = src.view();
  ctx.dst = out.view();
  ctx.map = map;
  ctx.mode = core::MapMode::FloatLut;
  ctx.opts = {core::Interp::Bilinear, img::BorderMode::Constant, 0};
  cell.execute(ctx);

  const AccelFrameStats& s = cell.last_stats();
  EXPECT_EQ(s.tiles, 224u);
  EXPECT_EQ(s.steals, 4u);
  EXPECT_DOUBLE_EQ(s.cycles, 334127.5);
  EXPECT_DOUBLE_EQ(s.utilization, 0.91734180814210142);
  EXPECT_EQ(s.bytes_in, 695943u);
  EXPECT_EQ(s.bytes_out, 82944u);
}

TEST(SpePlatform, IrreducibleTileThrowsResourceError) {
  // With the minimum 4 KB store (2 KB budget) a 4-channel frame cannot fit
  // even the smallest (64-pixel) tile working set under double buffering:
  // the decomposition must fail loudly rather than mis-tile.
  const Env s(64, 64, 4);
  SpeConfig config;
  config.local_store_bytes = 4096;
  EXPECT_THROW(CellLikePlatform(s.map, 64, 64, 4, config),
               fisheye::ResourceError);
}

TEST(SpePlatform, DimensionMismatchViolatesContract) {
  const Env s(64, 64);
  SpeConfig config;
  CellLikePlatform platform(s.map, 64, 64, 1, config);
  img::Image8 wrong(32, 32, 1);
  img::Image8 out(64, 64, 1);
  EXPECT_THROW(platform.run_frame(wrong.view(), out.view(), 0),
               fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::accel

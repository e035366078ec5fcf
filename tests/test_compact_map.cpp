// CompactMap contract tests: build validation, reconstruction-error bounds
// and bookkeeping, stride-1 bit-exactness against the packed kernel, cell
// / FPGA kernel agreement with the scalar reference, and the
// source_bbox superset property the accelerator DMA path relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "accel/fpga_platform.hpp"
#include "accel/spe_platform.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "core/mapping.hpp"
#include "core/remap.hpp"
#include "image/metrics.hpp"
#include "util/mathx.hpp"
#include "video/pipeline.hpp"

namespace fisheye::core {
namespace {

using util::deg_to_rad;

WarpMap test_map(int w = 96, int h = 64, LensKind kind = LensKind::Equidistant,
                 double fov_deg = 180.0) {
  const auto cam = FisheyeCamera::centered(kind, deg_to_rad(fov_deg), w, h);
  const PerspectiveView view(w, h, cam.lens().focal());
  return build_map(cam, view);
}

img::Image8 test_input(int w, int h) {
  const auto cam = FisheyeCamera::centered(LensKind::Equidistant,
                                           deg_to_rad(180.0), w, h);
  return video::SyntheticVideoSource(cam, w, h, 1).frame(0);
}

// --- build validation -------------------------------------------------------

TEST(CompactMap, BuildValidatesArguments) {
  const WarpMap map = test_map(32, 24);
  EXPECT_THROW(compact_map(map, 32, 24, 0), InvalidArgument);
  EXPECT_THROW(compact_map(map, 32, 24, 3), InvalidArgument);    // not pow2
  EXPECT_THROW(compact_map(map, 32, 24, 128), InvalidArgument);  // > 64
  EXPECT_THROW(compact_map(map, 32, 24, 8, 0), InvalidArgument);
  EXPECT_THROW(compact_map(map, 32, 24, 8, 17), InvalidArgument);
}

TEST(CompactMap, GridDimensionsAndBytes) {
  const WarpMap map = test_map(96, 64);
  const CompactMap cm = compact_map(map, 96, 64, 8);
  EXPECT_EQ(cm.grid_w, (96 - 1) / 8 + 2);
  EXPECT_EQ(cm.grid_h, (64 - 1) / 8 + 2);
  EXPECT_EQ(cm.bytes(), static_cast<std::size_t>(cm.grid_w) * cm.grid_h * 8);
  // The point of the representation: far smaller than the 8 B/px packed LUT.
  EXPECT_LT(cm.bytes(), pack_map(map, 96, 64).bytes() / 16);
}

// --- reconstruction error ---------------------------------------------------

TEST(CompactMap, StrideEightErrorUnderQuarterPixel) {
  // The acceptance bound from the study: for the standard test cameras the
  // warp field is smooth enough that an 8-pixel grid reconstructs every
  // source coordinate to better than a quarter pixel.
  struct Case {
    LensKind kind;
    double fov_deg;
  };
  const Case cases[] = {{LensKind::Equidistant, 180.0},
                        {LensKind::Equisolid, 150.0},
                        {LensKind::Stereographic, 160.0}};
  for (const Case& c : cases) {
    const WarpMap map = test_map(320, 240, c.kind, c.fov_deg);
    const CompactMap cm = compact_map(map, 320, 240, 8);
    EXPECT_LT(cm.max_error, 0.25f)
        << lens_kind_name(c.kind) << " " << c.fov_deg;
    EXPECT_LE(cm.mean_error, cm.max_error);
  }
}

TEST(CompactMap, StoredErrorMatchesBruteForceRecomputation) {
  const WarpMap map = test_map(96, 64);
  const CompactMap cm = compact_map(map, 96, 64, 8);
  const double scale = static_cast<double>(std::int64_t{1} << cm.frac_bits);
  double max_err = 0.0, sum_err = 0.0;
  std::size_t valid = 0;
  for (int y = 0; y < map.height; ++y) {
    for (int x = 0; x < map.width; ++x) {
      const double sx = map.src_x[map.index(x, y)];
      const double sy = map.src_y[map.index(x, y)];
      if (sx <= -1.0 || sy <= -1.0 || sx >= 96.0 || sy >= 64.0) continue;
      const CompactEntry e = reconstruct_entry(cm, x, y);
      const double err = std::max(std::abs(e.fx / scale - sx),
                                  std::abs(e.fy / scale - sy));
      max_err = std::max(max_err, err);
      sum_err += err;
      ++valid;
    }
  }
  ASSERT_GT(valid, 0u);
  EXPECT_FLOAT_EQ(cm.max_error, static_cast<float>(max_err));
  EXPECT_FLOAT_EQ(cm.mean_error,
                  static_cast<float>(sum_err / static_cast<double>(valid)));
}

TEST(CompactMap, StrideOneReconstructionIsQuantizationOnly) {
  // stride == 1 stores every pixel: the only residual is fixed-point
  // rounding, half an lsb at frac_bits = 14.
  const WarpMap map = test_map(64, 48);
  const CompactMap cm = compact_map(map, 64, 48, 1);
  EXPECT_LE(cm.max_error, 0.5 / 16384.0 + 1e-7);
}

// --- kernel agreement -------------------------------------------------------

TEST(CompactMap, StrideOneRemapMatchesPackedBitExact) {
  const int w = 96, h = 64;
  const WarpMap map = test_map(w, h);
  const PackedMap packed = pack_map(map, w, h, 14);
  const CompactMap cm = compact_map(map, w, h, 1, 14);
  const img::Image8 src = test_input(w, h);
  img::Image8 a(w, h, 1), b(w, h, 1);
  remap_packed_rect(src.view(), a.view(), packed, {0, 0, w, h}, 0);
  remap_compact_rect(src.view(), b.view(), cm, {0, 0, w, h}, 0);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()));
}

TEST(CompactMap, CellPlatformMatchesScalarKernel) {
  const int w = 160, h = 120;
  const WarpMap map = test_map(w, h);
  const CompactMap cm = compact_map(map, w, h, 8);
  const img::Image8 src = test_input(w, h);
  img::Image8 ref(w, h, 1), out(w, h, 1);
  remap_compact_rect(src.view(), ref.view(), cm, {0, 0, w, h}, 0);

  accel::CellLikePlatform platform(cm, 1, accel::SpeConfig{});
  const accel::AccelFrameStats stats =
      platform.run_frame(src.view(), out.view(), 0);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));

  // The representational win the cost model must reflect: per-frame DMA-in
  // drops well below the float platform's (which streams 8 B/px of map).
  accel::CellLikePlatform fplatform(map, w, h, 1, accel::SpeConfig{});
  img::Image8 fout(w, h, 1);
  const accel::AccelFrameStats fstats =
      fplatform.run_frame(src.view(), fout.view(), 0);
  EXPECT_LT(stats.bytes_in, fstats.bytes_in);
}

TEST(CompactMap, FpgaPlatformMatchesScalarKernel) {
  const int w = 160, h = 120;
  const WarpMap map = test_map(w, h);
  const CompactMap cm = compact_map(map, w, h, 8);
  const img::Image8 src = test_input(w, h);
  img::Image8 ref(w, h, 1), out(w, h, 1);
  remap_compact_rect(src.view(), ref.view(), cm, {0, 0, w, h}, 0);

  accel::FpgaPlatform fpga(cm, accel::FpgaConfig{});
  const accel::AccelFrameStats stats =
      fpga.run_frame(src.view(), out.view(), 0);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));

  // A 160x120 stride-8 grid is a few KB: it must fit the BRAM budget, and
  // then the modeled per-frame DDR traffic carries no LUT bytes at all --
  // strictly less than the packed platform's, which streams its whole LUT.
  EXPECT_TRUE(fpga.lut_on_chip());
  const PackedMap packed = pack_map(map, w, h, 14);
  accel::FpgaPlatform pfpga(packed, accel::FpgaConfig{});
  img::Image8 pout(w, h, 1);
  const accel::AccelFrameStats pstats =
      pfpga.run_frame(src.view(), pout.view(), 0);
  EXPECT_LT(stats.bytes_in, pstats.bytes_in - packed.bytes() / 2);
}

// --- source_bbox / valid_fraction ------------------------------------------

TEST(CompactMap, SourceBboxCoversEveryReconstructedFootprint) {
  const int w = 96, h = 64;
  const WarpMap map = test_map(w, h);
  for (const int stride : {4, 8, 16}) {
    const CompactMap cm = compact_map(map, w, h, stride);
    const std::int32_t one = std::int32_t{1} << cm.frac_bits;
    const std::int32_t lim_x = std::int32_t{w} << cm.frac_bits;
    const std::int32_t lim_y = std::int32_t{h} << cm.frac_bits;
    for (const par::Rect rect :
         {par::Rect{0, 0, w, h}, par::Rect{0, 0, 17, 13},
          par::Rect{40, 24, 96, 64}, par::Rect{33, 17, 57, 39}}) {
      const par::Rect box = source_bbox(cm, rect);
      for (int y = rect.y0; y < rect.y1; ++y) {
        for (int x = rect.x0; x < rect.x1; ++x) {
          CompactEntry e = reconstruct_entry(cm, x, y);
          if (e.fx <= -one || e.fy <= -one || e.fx >= lim_x || e.fy >= lim_y)
            continue;  // invalid: filled, samples nothing
          ASSERT_FALSE(box.empty());
          // Clamp exactly as the kernel does, then the taps must fall
          // inside the box -- this is what lets the cell kernel index its
          // DMA window without bounds checks.
          e.fx = std::clamp(e.fx, std::int32_t{0}, lim_x - one);
          e.fy = std::clamp(e.fy, std::int32_t{0}, lim_y - one);
          const int ix = e.fx >> cm.frac_bits;
          const int iy = e.fy >> cm.frac_bits;
          const int ix1 = ix + 1 < w ? ix + 1 : ix;
          const int iy1 = iy + 1 < h ? iy + 1 : iy;
          ASSERT_GE(ix, box.x0) << stride << " " << x << "," << y;
          ASSERT_GE(iy, box.y0) << stride << " " << x << "," << y;
          ASSERT_LT(ix1, box.x1) << stride << " " << x << "," << y;
          ASSERT_LT(iy1, box.y1) << stride << " " << x << "," << y;
        }
      }
    }
  }
}

TEST(CompactMap, ValidFractionMatchesPerPixelCount) {
  // A view wider than the lens field: the corners map outside the source,
  // so the fraction is meaningfully inside (0, 1).
  const int w = 96, h = 64;
  const auto cam = FisheyeCamera::centered(LensKind::Equidistant,
                                           deg_to_rad(100.0), w, h);
  const PerspectiveView view(w, h, cam.lens().focal() * 0.4);
  const WarpMap map = build_map(cam, view);
  const CompactMap cm = compact_map(map, w, h, 8);
  std::size_t valid = 0;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      if (compact_entry_valid(cm, reconstruct_entry(cm, x, y))) ++valid;
  EXPECT_NEAR(valid_fraction(cm),
              static_cast<double>(valid) / (static_cast<double>(w) * h),
              1e-12);
  EXPECT_GT(valid_fraction(cm), 0.1);
  EXPECT_LT(valid_fraction(cm), 1.0);
}

// --- corrector / registry integration ---------------------------------------

TEST(CompactMap, CorrectorBuildsCompactLut) {
  const int w = 128, h = 96;
  const Corrector corr = Corrector::builder(w, h)
                             .map_mode(MapMode::CompactLut)
                             .compact_stride(8)
                             .build();
  ASSERT_NE(corr.compact(), nullptr);
  EXPECT_EQ(corr.compact()->stride, 8);
  EXPECT_LT(corr.compact()->max_error, 0.25f);

  const img::Image8 src = test_input(w, h);
  img::Image8 ref(w, h, 1), out(w, h, 1);
  remap_compact_rect(src.view(), ref.view(), *corr.compact(), {0, 0, w, h},
                     0);
  const auto serial = core::BackendRegistry::create("serial");
  corr.correct(src.view(), out.view(), *serial);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

TEST(CompactMap, MapSpecConvertsAtPlanTimeAndIsPlanIdentity) {
  // A float-LUT corrector driven through backends that convert at plan
  // time: compact:1 must reproduce the packed datapath bit-exactly, and
  // the canonical names (the plan identity) must distinguish the formats.
  const int w = 160, h = 120;
  const img::Image8 src = test_input(w, h);
  const Corrector corr = Corrector::builder(w, h).build();  // FloatLut

  const auto packed = core::BackendRegistry::create("pool:threads=2,map=packed");
  const auto compact1 =
      core::BackendRegistry::create("pool:threads=2,map=compact:1");
  const auto compact8 =
      core::BackendRegistry::create("pool:threads=2,map=compact:8");
  EXPECT_NE(packed->name(), compact1->name());
  EXPECT_NE(compact1->name(), compact8->name());

  img::Image8 a(w, h, 1), b(w, h, 1), c(w, h, 1);
  corr.correct(src.view(), a.view(), *packed);
  corr.correct(src.view(), b.view(), *compact1);
  corr.correct(src.view(), c.view(), *compact8);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()));
  // stride 8 trades < 0.25 px of coordinate error; the image stays close
  // to the exact-LUT result everywhere.
  EXPECT_GT(img::psnr(a.view(), c.view()), 30.0);
}

}  // namespace
}  // namespace fisheye::core

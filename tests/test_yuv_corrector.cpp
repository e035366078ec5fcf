// YUV-native correction path.
#include <gtest/gtest.h>

#include "image/metrics.hpp"
#include "video/pipeline.hpp"
#include "video/yuv_corrector.hpp"

namespace fisheye::video {
namespace {

using util::deg_to_rad;

core::CorrectorConfig config_for(int w, int h) {
  return core::Corrector::builder(w, h).fov_degrees(180.0).config();
}

TEST(DecimateMap, HalvesGeometryConsistently) {
  // Identity full map (with the half-pixel lattice) decimates to the
  // identity map of the small plane.
  core::WarpMap full;
  full.width = 8;
  full.height = 8;
  full.src_x.resize(64);
  full.src_y.resize(64);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      full.src_x[full.index(x, y)] = static_cast<float>(x);
      full.src_y[full.index(x, y)] = static_cast<float>(y);
    }
  const core::WarpMap half = decimate_map(full, 2);
  ASSERT_EQ(half.width, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) {
      EXPECT_NEAR(half.src_x[half.index(x, y)], static_cast<float>(x), 1e-5f);
      EXPECT_NEAR(half.src_y[half.index(x, y)], static_cast<float>(y), 1e-5f);
    }
}

TEST(DecimateMap, RejectsOddDimensions) {
  core::WarpMap full;
  full.width = 7;
  full.height = 8;
  full.src_x.resize(56);
  full.src_y.resize(56);
  EXPECT_THROW(decimate_map(full, 2), fisheye::InvalidArgument);
}

TEST(YuvCorrector, LumaMatchesGrayPath) {
  const int w = 160, h = 120;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const SyntheticVideoSource source(cam, w, h, 3);
  const img::Image8 rgb = source.frame(0);
  const img::Yuv420 yuv = img::rgb_to_yuv420(rgb.view());

  const YuvCorrector ycorr(config_for(w, h));
  core::SerialBackend backend;
  const img::Yuv420 out = ycorr.correct_frame(yuv, backend);

  // Luma plane must equal correcting the Y plane as a gray image.
  const core::Corrector gray_corr(config_for(w, h));
  img::Image8 ref(w, h, 1);
  gray_corr.correct(yuv.y.view(), ref.view(), backend);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.y.view()));
}

TEST(YuvCorrector, ChromaPlanesAreHalfResAndNeutralOutside) {
  const int w = 160, h = 120;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const SyntheticVideoSource source(cam, w, h, 3);
  const img::Yuv420 yuv = img::rgb_to_yuv420(source.frame(0).view());
  // Double-size output at the same focal: its corners look beyond the
  // lens' field, so the fill path is exercised.
  core::CorrectorConfig cfg = config_for(w, h);
  cfg.out_width = 2 * w;
  cfg.out_height = 2 * h;
  const YuvCorrector ycorr(cfg);
  core::SerialBackend backend;
  const img::Yuv420 out = ycorr.correct_frame(yuv, backend);
  EXPECT_EQ(out.u.width(), w);
  EXPECT_EQ(out.v.height(), h);
  // Outside the image circle chroma is neutral grey (128), luma black.
  EXPECT_EQ(out.y.at(0, 0), 0);
  EXPECT_EQ(out.u.at(0, 0), 128);
  EXPECT_EQ(out.v.at(0, 0), 128);
}

TEST(YuvCorrector, EndToEndCloseToRgbPath) {
  // yuv-native corrected frame, converted to RGB, must be visually
  // indistinguishable from the RGB-path correction (chroma is interpolated
  // at half resolution, so allow a modest PSNR floor).
  const int w = 320, h = 240;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const SyntheticVideoSource source(cam, w, h, 3);
  const img::Image8 rgb = source.frame(0);
  core::SerialBackend backend;

  const YuvCorrector ycorr(config_for(w, h));
  const img::Yuv420 out_yuv =
      ycorr.correct_frame(img::rgb_to_yuv420(rgb.view()), backend);
  const img::Image8 native = img::yuv420_to_rgb(out_yuv);

  const core::Corrector rgb_corr(config_for(w, h));
  img::Image8 reference(w, h, 3);
  rgb_corr.correct(rgb.view(), reference.view(), backend);

  EXPECT_GT(img::psnr(reference.view(), native.view()), 28.0);
}

TEST(YuvCorrector, WorksWithPoolBackend) {
  const int w = 160, h = 120;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const SyntheticVideoSource source(cam, w, h, 3);
  const img::Yuv420 yuv = img::rgb_to_yuv420(source.frame(0).view());
  const YuvCorrector ycorr(config_for(w, h));

  core::SerialBackend serial;
  const img::Yuv420 ref = ycorr.correct_frame(yuv, serial);
  par::ThreadPool pool(4);
  core::CpuBackend pooled(pool);
  const img::Yuv420 out = ycorr.correct_frame(yuv, pooled);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.y.view(), out.y.view()));
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.u.view(), out.u.view()));
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.v.view(), out.v.view()));
}

TEST(YuvCorrector, OddDimensionsViolateContract) {
  EXPECT_THROW(YuvCorrector(config_for(161, 120)), fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::video

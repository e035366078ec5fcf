// Cross-module integration: full synthesize -> correct -> measure loops,
// file round trips of corrected output, panoramas, PTZ views, and the
// accuracy comparison between the exact and Brown-Conrady pipelines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "accel/accel_backend.hpp"
#include "calib/calibrate.hpp"
#include "core/brown_conrady.hpp"
#include "core/corrector.hpp"
#include "image/io_pnm.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "video/pipeline.hpp"

namespace fisheye {
namespace {

using core::Corrector;
using util::deg_to_rad;

TEST(Integration, CheckerboardEdgesStraightenAcrossTheFrame) {
  // Render a checkerboard scene, fisheye it, correct it, and verify that
  // the corrected image matches a direct (scaled) view of the scene far
  // better than the distorted one does.
  const int w = 320, h = 240;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  const img::Image8 scene = img::make_checkerboard(2 * w, 2 * h, 40);
  const core::WarpMap synth =
      core::build_synthesis_map(cam, 2 * w, 2 * h, 0.5 * w, w, h);
  img::Image8 fish(w, h, 1);
  core::remap_rect(scene.view(), fish.view(), synth, {0, 0, w, h},
                   {core::Interp::Bilinear, img::BorderMode::Constant, 0});

  const Corrector corr = Corrector::builder(w, h).fov_degrees(180.0).build();
  core::SerialBackend backend;
  img::Image8 corrected(w, h, 1);
  corr.correct(fish.view(), corrected.view(), backend);

  // Expected view: the scene resampled at f_out/f_scene about the centre.
  const double scale = (0.5 * w) / corr.config().out_focal;
  img::Image8 expected(w, h, 1);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double sx = (2 * w - 1) * 0.5 + (x - (w - 1) * 0.5) * scale;
      const double sy = (2 * h - 1) * 0.5 + (y - (h - 1) * 0.5) * scale;
      std::uint8_t v = 0;
      core::sample_bilinear(scene.view(), static_cast<float>(sx),
                            static_cast<float>(sy),
                            img::BorderMode::Constant, 0, &v);
      expected.at(x, y) = v;
    }

  // Compare over the central region where the fisheye saw the scene.
  const par::Rect roi{w / 6, h / 6, 5 * w / 6, 5 * h / 6};
  auto crop = [&](const img::Image8& im) {
    img::Image8 out(roi.width(), roi.height(), 1);
    for (int y = 0; y < roi.height(); ++y)
      for (int x = 0; x < roi.width(); ++x)
        out.at(x, y) = im.at(roi.x0 + x, roi.y0 + y);
    return out;
  };
  const double psnr_corrected =
      img::psnr(crop(expected).view(), crop(corrected).view());
  const double psnr_distorted =
      img::psnr(crop(expected).view(), crop(fish).view());
  EXPECT_GT(psnr_corrected, psnr_distorted + 6.0);  // > 4x less error power
  EXPECT_GT(psnr_corrected, 18.0);
}

TEST(Integration, ExactPipelineBeatsBrownConradyAtWideFov) {
  // T3's core claim, end to end on images: correct the same frame with the
  // exact inverse and with a fitted Brown-Conrady map; compare both to the
  // exact result of a supersampled reference... the exact map IS the
  // reference geometry, so measure geometric error of the polynomial map
  // and verify it translates into pixel differences concentrated at the
  // edge.
  const int w = 320, h = 240;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(175.0), w, h);
  const core::PerspectiveView view(w, h, cam.lens().focal());
  const core::WarpMap exact = core::build_map(cam, view);
  // Fit the polynomial over 50 degrees half-angle (a typical narrow
  // calibration sweep); output pixels near the frame corners look beyond
  // that, where the polynomial extrapolates badly.
  const core::BrownConrady bc =
      core::fit_brown_conrady(cam.lens(), deg_to_rad(50.0));
  const core::WarpMap poly =
      core::build_brown_conrady_map(bc, cam.cx(), cam.cy(), view);

  // Geometric error by output-radius band.
  auto band_error = [&](double r_lo, double r_hi) {
    double worst = 0.0;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const double r = std::hypot(x - cam.cx(), y - cam.cy());
        if (r < r_lo || r >= r_hi) continue;
        const std::size_t i = exact.index(x, y);
        worst = std::max(worst, static_cast<double>(std::hypot(
                                    exact.src_x[i] - poly.src_x[i],
                                    exact.src_y[i] - poly.src_y[i])));
      }
    return worst;
  };
  const double centre_err = band_error(0, 40);
  const double edge_err = band_error(150, 190);
  EXPECT_LT(centre_err, 1.0);
  EXPECT_GT(edge_err, 1.5);
  EXPECT_GT(edge_err, 3.0 * centre_err);
}

TEST(Integration, CorrectedFrameSurvivesFileRoundTrip) {
  const int w = 160, h = 120;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  video::SyntheticVideoSource source(cam, w, h, 3);
  const Corrector corr = Corrector::builder(w, h).build();
  core::SerialBackend backend;
  img::Image8 out(w, h, 3);
  corr.correct(source.frame(0).view(), out.view(), backend);
  const std::string path = ::testing::TempDir() + "/fe_integration.ppm";
  img::write_pnm(path, out.view());
  const img::Image8 back = img::read_pnm(path);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(out.view(), back.view()));
  std::remove(path.c_str());
}

TEST(Integration, PanoramaCoversWideField) {
  const int w = 240, h = 180;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  video::SyntheticVideoSource source(cam, w, h, 1);
  const img::Image8 fish = source.frame(0);

  const core::EquirectangularView pano(360, 120, deg_to_rad(170.0),
                                       deg_to_rad(60.0));
  const core::WarpMap map = core::build_map(cam, pano);
  img::Image8 out(360, 120, 1);
  core::remap_rect(fish.view(), out.view(), map, {0, 0, 360, 120},
                   {core::Interp::Bilinear, img::BorderMode::Constant, 0});
  // A 170x60-degree panorama of a 180-degree lens is fully inside the image
  // circle: (almost) every output pixel valid.
  EXPECT_GT(core::valid_fraction(map, w, h), 0.99);
  // And carries actual content.
  int nonzero = 0;
  for (int y = 0; y < 120; ++y)
    for (int x = 0; x < 360; ++x) nonzero += out.at(x, y) != 0;
  EXPECT_GT(nonzero, 360 * 120 / 2);
}

TEST(Integration, PtzViewsLookAtDifferentScenery) {
  const int w = 240, h = 180;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  video::SyntheticVideoSource source(cam, w, h, 1);
  const img::Image8 fish = source.frame(0);

  auto render = [&](double pan) {
    const core::PerspectiveView view = core::PerspectiveView::ptz(
        120, 90, deg_to_rad(pan), deg_to_rad(10.0), deg_to_rad(60.0));
    const core::WarpMap map = core::build_map(cam, view);
    img::Image8 out(120, 90, 1);
    core::remap_rect(fish.view(), out.view(), map, {0, 0, 120, 90},
                     {core::Interp::Bilinear, img::BorderMode::Constant, 0});
    return out;
  };
  const img::Image8 left = render(-40.0);
  const img::Image8 right = render(40.0);
  EXPECT_FALSE(img::equal_pixels<std::uint8_t>(left.view(), right.view()));
  EXPECT_LT(img::ssim(left.view(), right.view()), 0.9);
}

TEST(Integration, AllPlatformsAgreeOnOneFrame) {
  // The T2 sanity core: serial CPU, pooled CPU, SIMD, Cell-sim and FPGA-sim
  // all produce (near-)identical output for the same configuration.
  const int w = 200, h = 150;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(180.0), w, h);
  video::SyntheticVideoSource source(cam, w, h, 1);
  const img::Image8 fish = source.frame(0);

  const Corrector float_corr = Corrector::builder(w, h).build();
  const Corrector packed_corr =
      Corrector::builder(w, h).map_mode(core::MapMode::PackedLut).build();

  img::Image8 ref(w, h, 1);
  core::SerialBackend serial;
  float_corr.correct(fish.view(), ref.view(), serial);

  par::ThreadPool pool(4);
  core::CpuBackend pooled(pool);
  img::Image8 out_pool(w, h, 1);
  float_corr.correct(fish.view(), out_pool.view(), pooled);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out_pool.view()));

  core::CpuOptions soa;
  soa.datapath = core::KernelVariant::SimdSoa;
  core::CpuBackend simd(soa);
  img::Image8 out_simd(w, h, 1);
  float_corr.correct(fish.view(), out_simd.view(), simd);
  EXPECT_LT(img::fraction_differing(ref.view(), out_simd.view(), 1), 0.01);

  accel::CellBackend cell(accel::SpeConfig{});
  img::Image8 out_cell(w, h, 1);
  float_corr.correct(fish.view(), out_cell.view(), cell);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out_cell.view()));

  accel::FpgaBackend fpga(accel::FpgaConfig{});
  img::Image8 out_fpga(w, h, 1);
  packed_corr.correct(fish.view(), out_fpga.view(), fpga);
  // Fixed-point LUT vs float LUT: within 2 levels everywhere.
  EXPECT_LE(img::max_abs_diff(ref.view(), out_fpga.view()), 2);
}

TEST(Integration, CalibrateThenCorrectRecoversGeometry) {
  // Full loop: calibrate intrinsics from noisy synthetic detections, build
  // a corrector from the *estimated* parameters, and verify the corrected
  // output is nearly identical to one built from ground truth.
  const int w = 320, h = 240;
  const double fov = deg_to_rad(180.0);
  const auto truth =
      core::FisheyeCamera::centered(core::LensKind::Equidistant, fov, w, h);
  util::Rng rng(9);
  const auto obs = calib::make_grid_correspondences(
      truth, 11, deg_to_rad(80.0), 0.3, rng);
  const calib::CalibrationResult est = calib::calibrate_radial(
      core::LensKind::Equidistant, obs, truth.lens().focal() * 1.2,
      truth.cx() + 8, truth.cy() - 6);
  EXPECT_NEAR(est.focal, truth.lens().focal(), 0.5);

  // FOV implied by the estimated focal for the same image circle.
  const double est_fov = 2.0 * (0.5 * std::min(w, h)) / est.focal;
  const Corrector corr_est = Corrector::builder(w, h)
                                 .fov_degrees(util::rad_to_deg(est_fov))
                                 .build();
  const Corrector corr_truth = Corrector::builder(w, h).build();
  video::SyntheticVideoSource source(truth, w, h, 1);
  const img::Image8 fish = source.frame(0);
  core::SerialBackend backend;
  img::Image8 a(w, h, 1), b(w, h, 1);
  corr_est.correct(fish.view(), a.view(), backend);
  corr_truth.correct(fish.view(), b.view(), backend);
  EXPECT_GT(img::psnr(a.view(), b.view()), 28.0);
}

}  // namespace
}  // namespace fisheye

// Corrector facade: builder, configuration validation, map construction
// per mode, geometric behaviour of the corrected output.
#include <gtest/gtest.h>

#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "util/mathx.hpp"
#include "video/pipeline.hpp"

namespace fisheye::core {
namespace {

using util::deg_to_rad;

TEST(Builder, DefaultsAreSane) {
  const Corrector corr = Corrector::builder(320, 240).build();
  const CorrectorConfig& cfg = corr.config();
  EXPECT_EQ(cfg.src_width, 320);
  EXPECT_EQ(cfg.out_width, 320);   // defaults to input size
  EXPECT_EQ(cfg.out_height, 240);
  EXPECT_NEAR(cfg.fov_rad, util::kPi, 1e-12);  // 180 degrees
  EXPECT_EQ(cfg.lens, LensKind::Equidistant);
  EXPECT_EQ(cfg.map_mode, MapMode::FloatLut);
  // Matched focal: equidistant with circle radius 120 -> f = 120/(pi/2).
  EXPECT_NEAR(cfg.out_focal, 120.0 / util::kHalfPi, 1e-9);
  EXPECT_NE(corr.map(), nullptr);
  EXPECT_EQ(corr.packed(), nullptr);
}

TEST(Builder, FluentOptionsStick) {
  const Corrector corr = Corrector::builder(640, 480)
                             .lens(LensKind::Equisolid)
                             .fov_degrees(160.0)
                             .output_size(800, 600)
                             .output_focal(250.0)
                             .interp(Interp::Bicubic)
                             .border(img::BorderMode::Replicate, 9)
                             .fast_math(true)
                             .build();
  const CorrectorConfig& cfg = corr.config();
  EXPECT_EQ(cfg.lens.kind, LensKind::Equisolid);
  // fov_degrees() overrides the lens spec's fov; the resolved config keeps
  // both fields in agreement.
  EXPECT_NEAR(cfg.lens.fov_deg, 160.0, 1e-12);
  EXPECT_NEAR(cfg.fov_rad, deg_to_rad(160.0), 1e-12);
  EXPECT_EQ(cfg.out_width, 800);
  EXPECT_DOUBLE_EQ(cfg.out_focal, 250.0);
  EXPECT_EQ(cfg.remap.interp, Interp::Bicubic);
  EXPECT_EQ(cfg.remap.border, img::BorderMode::Replicate);
  EXPECT_EQ(cfg.remap.fill, 9);
  EXPECT_TRUE(cfg.fast_math);
}

TEST(Corrector, PackedModeBuildsBothMaps) {
  const Corrector corr = Corrector::builder(160, 120)
                             .map_mode(MapMode::PackedLut)
                             .frac_bits(10)
                             .build();
  ASSERT_NE(corr.map(), nullptr);
  ASSERT_NE(corr.packed(), nullptr);
  EXPECT_EQ(corr.packed()->frac_bits, 10);
}

TEST(Corrector, OtfModeBuildsNoMaps) {
  const Corrector corr =
      Corrector::builder(160, 120).map_mode(MapMode::OnTheFly).build();
  EXPECT_EQ(corr.map(), nullptr);
  EXPECT_EQ(corr.packed(), nullptr);
}

TEST(Corrector, InvalidConfigsViolateContracts) {
  EXPECT_THROW(Corrector::builder(0, 100).build(), fisheye::InvalidArgument);
  EXPECT_THROW(Corrector::builder(100, 100).fov_degrees(-10.0).build(),
               fisheye::InvalidArgument);
  EXPECT_THROW(Corrector::builder(100, 100).frac_bits(0).build(),
               fisheye::InvalidArgument);
  EXPECT_THROW(Corrector::builder(100, 100).frac_bits(30).build(),
               fisheye::InvalidArgument);
}

TEST(Corrector, RejectsMismatchedFrames) {
  const Corrector corr = Corrector::builder(64, 64).build();
  SerialBackend backend;
  img::Image8 wrong(32, 32, 1), out(64, 64, 1), src(64, 64, 1),
      out3(64, 64, 3);
  EXPECT_THROW(corr.correct(wrong.view(), out.view(), backend),
               fisheye::InvalidArgument);
  EXPECT_THROW(corr.correct(src.view(), out3.view(), backend),
               fisheye::InvalidArgument);
}

TEST(Corrector, StraightensDistortedVerticalLine) {
  // The headline property of the whole system: a straight line in the
  // world, curved by the fisheye, becomes straight after correction.
  const int w = 320, h = 240;
  const auto cam =
      FisheyeCamera::centered(LensKind::Equidistant, deg_to_rad(180.0), w, h);
  video::SyntheticVideoSource source(cam, w, h, 1);

  // Scene: single bright vertical stripe offset from centre.
  img::Image8 scene(source.scene_frame(0).width(),
                    source.scene_frame(0).height(), 1);
  const int stripe_x = scene.width() / 2 + 90;
  for (int y = 0; y < scene.height(); ++y)
    for (int x = stripe_x - 2; x <= stripe_x + 2; ++x) scene.at(x, y) = 255;

  // Forward-distort it like the source does.
  const WarpMap synth = build_synthesis_map(
      cam, scene.width(), scene.height(), 0.25 * scene.width(), w, h);
  img::Image8 fish(w, h, 1);
  remap_rect(scene.view(), fish.view(), synth, {0, 0, w, h},
             {Interp::Bilinear, img::BorderMode::Constant, 0});

  // In the fisheye image the stripe bows: centroid x varies across rows.
  auto centroid_x = [](const img::Image8& im, int y) {
    double num = 0.0, den = 0.0;
    for (int x = 0; x < im.width(); ++x) {
      num += x * static_cast<double>(im.at(x, y));
      den += im.at(x, y);
    }
    return den > 0 ? num / den : -1.0;
  };
  auto spread = [&](const img::Image8& im, int y0, int y1) {
    double lo = 1e9, hi = -1e9;
    for (int y = y0; y < y1; y += 4) {
      const double c = centroid_x(im, y);
      if (c < 0) continue;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi - lo;
  };
  const double bow_fish = spread(fish, h / 4, 3 * h / 4);

  const Corrector corr = Corrector::builder(w, h).fov_degrees(180.0).build();
  SerialBackend backend;
  img::Image8 corrected(w, h, 1);
  corr.correct(fish.view(), corrected.view(), backend);
  const double bow_corr = spread(corrected, h / 4, 3 * h / 4);

  EXPECT_GT(bow_fish, 3.0);           // visibly curved before
  EXPECT_LT(bow_corr, 1.0);           // straight after (sub-pixel residual
                                      // from resampling + centroid noise)
  EXPECT_LT(bow_corr, bow_fish / 5);  // at least 5x straightening
}

TEST(Corrector, WiderOutputFocalZoomsIn) {
  // Doubling the output focal halves the field covered by the output.
  const int n = 160;
  const auto make = [&](double focal) {
    return Corrector::builder(n, n)
        .fov_degrees(180.0)
        .output_focal(focal)
        .build();
  };
  const Corrector normal = make(0.0);             // matched
  const double f0 = normal.config().out_focal;
  const Corrector zoomed = make(2.0 * f0);
  // The zoomed map's edge pixel samples a source point closer to centre.
  const WarpMap& m0 = *normal.map();
  const WarpMap& m1 = *zoomed.map();
  const std::size_t edge = m0.index(n - 1, n / 2);
  const double c = (n - 1) / 2.0;
  EXPECT_LT(std::abs(m1.src_x[edge] - c), std::abs(m0.src_x[edge] - c));
}

TEST(Corrector, MakeContextWiresPointers) {
  const Corrector corr = Corrector::builder(64, 64).build();
  img::Image8 src(64, 64, 1), dst(64, 64, 1);
  const ExecContext ctx = corr.make_context(src.view(), dst.view());
  EXPECT_EQ(ctx.map.src_x, corr.map()->src_x.data());
  EXPECT_EQ(ctx.map.generation, corr.map()->generation);
  EXPECT_EQ(ctx.camera, &corr.camera());
  EXPECT_EQ(ctx.view, &corr.view());
  EXPECT_EQ(ctx.mode, MapMode::FloatLut);
}

}  // namespace
}  // namespace fisheye::core

// Camera-model zoo: lens/view spec grammar (round-trips and
// rejection-by-name), QuadView geometry, cv_compat's Kannala-Brandt
// delegation, cross-backend equivalence for the parameterized lenses,
// plan identity carrying the model names, and serve recalibration from a
// lens spec.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>

#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "core/cv_compat.hpp"
#include "core/mapping.hpp"
#include "core/model_spec.hpp"
#include "image/image.hpp"
#include "image/metrics.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/matrix.hpp"
#include "video/pipeline.hpp"

namespace fisheye {
namespace {

using core::Corrector;
using core::LensKind;
using core::LensSpec;
using core::ViewKind;
using core::ViewSpec;
using util::deg_to_rad;

/// EXPECT that `fn` throws InvalidArgument and the message names every
/// expected fragment (the offending token, per the spec-error contract).
template <typename Fn>
void expect_rejects(Fn&& fn, std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments)
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
  }
}

// --- spec grammar -----------------------------------------------------------

TEST(LensSpecGrammar, ParseNameIsCanonicalFixpoint) {
  const char* specs[] = {
      "equidistant",
      "equisolid:fov=160",
      "orthographic",
      "stereographic:fov=150",
      "rectilinear:fov=120",
      "kannala_brandt",
      "kannala_brandt:k1=-0.02,k2=0.002,k3=0,k4=0",
      "kannala_brandt:k1=0.1,k2=-0.01,k3=0.001,k4=-0.0001,fov=170",
      "division",
      "division:lambda=-1,fov=160",
  };
  for (const std::string text : specs) {
    const LensSpec parsed = LensSpec::parse(text);
    const std::string canonical = parsed.name();
    // name() is a fixpoint of parse: parsing the canonical form
    // reproduces both the value and the text.
    EXPECT_EQ(LensSpec::parse(canonical), parsed) << text;
    EXPECT_EQ(LensSpec::parse(canonical).name(), canonical) << text;
    // The registry-token form parses identically.
    EXPECT_EQ(LensSpec::parse("lens=" + text), parsed) << text;
  }
}

TEST(LensSpecGrammar, CanonicalNameOmitsDefaults) {
  EXPECT_EQ(LensSpec().name(), "equidistant");
  EXPECT_EQ(LensSpec::parse("equidistant:fov=180").name(), "equidistant");
  EXPECT_EQ(LensSpec(LensKind::Stereographic).name(), "stereographic");
  // Parameterized kinds always carry their coefficients.
  EXPECT_EQ(LensSpec::parse("kannala_brandt").name().rfind(
                "kannala_brandt:k1=", 0),
            0u);
  EXPECT_EQ(LensSpec::parse("division").name().rfind("division:lambda=", 0),
            0u);
}

TEST(LensSpecGrammar, RejectionsNameTheOffendingToken) {
  expect_rejects([] { LensSpec::parse("fisheye"); },
                 {"unknown kind", "fisheye"});
  // Inapplicable calibration parameter on an analytic lens.
  expect_rejects([] { LensSpec::parse("equidistant:k1=0.1"); }, {"k1"});
  expect_rejects([] { LensSpec::parse("kannala_brandt:lambda=-0.5"); },
                 {"lambda"});
  // Out-of-range coefficients and fov.
  expect_rejects([] { LensSpec::parse("kannala_brandt:k1=9"); },
                 {"k1", "out of range"});
  expect_rejects([] { LensSpec::parse("division:lambda=0.5"); },
                 {"lambda", "out of range"});
  expect_rejects([] { LensSpec::parse("division:lambda=-11"); },
                 {"lambda", "out of range"});
  expect_rejects([] { LensSpec::parse("equidistant:fov=0"); },
                 {"fov", "out of range"});
  expect_rejects([] { LensSpec::parse("equidistant:fov=361"); },
                 {"fov", "out of range"});
  // In-range fov that the model's geometry cannot image.
  expect_rejects([] { LensSpec::parse("rectilinear:fov=180"); },
                 {"fov", "usable field of view"});
}

TEST(ViewSpecGrammar, ParseNameIsCanonicalFixpoint) {
  const char* specs[] = {
      "perspective",
      "perspective:fov=90",
      "cylindrical",
      "cylindrical:hfov=200",
      "equirect",
      "equirect:hfov=200,vfov=120",
      "quadview",
      "quadview:fov=75,tilt=50",
  };
  for (const std::string text : specs) {
    const ViewSpec parsed = ViewSpec::parse(text);
    const std::string canonical = parsed.name();
    EXPECT_EQ(ViewSpec::parse(canonical), parsed) << text;
    EXPECT_EQ(ViewSpec::parse(canonical).name(), canonical) << text;
    EXPECT_EQ(ViewSpec::parse("view=" + text), parsed) << text;
  }
}

TEST(ViewSpecGrammar, CanonicalNameOmitsDefaults) {
  EXPECT_EQ(ViewSpec().name(), "perspective");
  EXPECT_EQ(ViewSpec::parse("cylindrical:hfov=180").name(), "cylindrical");
  EXPECT_EQ(ViewSpec::parse("equirect:hfov=180,vfov=90").name(), "equirect");
  EXPECT_EQ(ViewSpec::parse("quadview:fov=90,tilt=40").name(), "quadview");
}

TEST(ViewSpecGrammar, RejectionsNameTheOffendingToken) {
  expect_rejects([] { ViewSpec::parse("fishbowl"); },
                 {"unknown kind", "fishbowl"});
  // Inapplicable option for the kind.
  expect_rejects([] { ViewSpec::parse("cylindrical:tilt=10"); }, {"tilt"});
  expect_rejects([] { ViewSpec::parse("perspective:hfov=90"); }, {"hfov"});
  // Out-of-range values.
  expect_rejects([] { ViewSpec::parse("perspective:fov=180"); },
                 {"fov", "out of range"});
  expect_rejects([] { ViewSpec::parse("quadview:tilt=91"); },
                 {"tilt", "out of range"});
  expect_rejects([] { ViewSpec::parse("equirect:vfov=181"); },
                 {"vfov", "out of range"});
}

TEST(LensSpecGrammar, FocalForCircleInvertsImageCircle) {
  for (const char* text :
       {"equidistant", "kannala_brandt:k1=-0.02,k2=0.002,fov=170",
        "division:lambda=-0.6,fov=160"}) {
    const LensSpec spec = LensSpec::parse(text);
    const double f = spec.focal_for_circle(120.0);
    const auto lens = spec.make(f);
    EXPECT_NEAR(lens->radius_from_theta(spec.fov_rad() / 2.0), 120.0, 1e-9)
        << text;
  }
}

// --- cv_compat delegation ---------------------------------------------------

TEST(CvCompatZoo, KannalaBrandtThetaKeepsItsHistoricValues) {
  // Values the shim produced before it delegated to core::KannalaBrandt —
  // the delegation must not change the polynomial.
  //   theta=0.5, d={-0.02, 0.002, 0, 0}:
  //   0.5 * (1 + 0.25*(-0.02) + 0.0625*0.002) = 0.4975625
  const std::array<double, 4> d{-0.02, 0.002, 0.0, 0.0};
  EXPECT_NEAR(cv_compat::kannala_brandt_theta(0.5, d), 0.4975625, 1e-15);

  const std::array<double, 4> d2{0.05, -0.01, 0.002, -0.0005};
  const double t = 1.2;
  const double t2 = t * t;
  const double expected =
      t * (1.0 + d2[0] * t2 + d2[1] * t2 * t2 + d2[2] * t2 * t2 * t2 +
           d2[3] * t2 * t2 * t2 * t2);
  EXPECT_NEAR(cv_compat::kannala_brandt_theta(t, d2), expected, 1e-12);
}

TEST(CvCompatZoo, ShimAndLensModelShareOneImplementation) {
  const std::array<double, 4> d{0.03, -0.004, 0.0007, -0.0001};
  const core::KannalaBrandt lens(250.0, d);
  for (int i = 0; i <= 40; ++i) {
    const double theta = lens.max_theta() * i / 40.0;
    const double shim = cv_compat::kannala_brandt_theta(theta, d);
    EXPECT_DOUBLE_EQ(shim, core::KannalaBrandt::distort_theta(theta, d));
    EXPECT_DOUBLE_EQ(lens.radius_from_theta(theta), 250.0 * shim);
  }
}

// --- QuadView geometry ------------------------------------------------------

TEST(QuadViewGeometry, QuadrantsArePannedPtzViews) {
  const double fov = deg_to_rad(90.0), tilt = deg_to_rad(40.0);
  const core::QuadView view(128, 96, fov, tilt);
  // Every global pixel resolves through its quadrant's local PTZ view.
  const double qw = 64.0, qh = 48.0;
  for (int qy = 0; qy < 2; ++qy)
    for (int qx = 0; qx < 2; ++qx) {
      const core::PerspectiveView& quad = view.quadrant(qy * 2 + qx);
      for (const auto& [lx, ly] : {std::pair{0.0, 0.0}, {31.5, 23.5},
                                   {63.0, 47.0}}) {
        const util::Vec3 got =
            view.ray_for_pixel({qx * qw + lx, qy * qh + ly});
        const util::Vec3 want = quad.ray_for_pixel({lx, ly});
        EXPECT_DOUBLE_EQ(got.x, want.x);
        EXPECT_DOUBLE_EQ(got.y, want.y);
        EXPECT_DOUBLE_EQ(got.z, want.z);
      }
    }
  // The four quadrants are one PTZ view panned 0/90/180/270 degrees: each
  // quadrant's centre ray is the previous one's rotated a quarter turn
  // about the optical axis' vertical.
  const util::Vec2 centre{0.5 * (qw - 1.0), 0.5 * (qh - 1.0)};
  for (int i = 1; i < 4; ++i) {
    const util::Vec3 base = view.quadrant(0).ray_for_pixel(centre);
    const util::Vec3 want = util::Mat3::rot_y(i * util::kHalfPi) * base;
    const util::Vec3 got = view.quadrant(i).ray_for_pixel(centre);
    EXPECT_NEAR(got.x, want.x, 1e-12);
    EXPECT_NEAR(got.y, want.y, 1e-12);
    EXPECT_NEAR(got.z, want.z, 1e-12);
  }
}

TEST(QuadViewGeometry, OddDimensionsAreRejected) {
  EXPECT_THROW(core::QuadView(127, 96, deg_to_rad(90.0), deg_to_rad(40.0)),
               fisheye::InvalidArgument);
  EXPECT_THROW(core::QuadView(128, 95, deg_to_rad(90.0), deg_to_rad(40.0)),
               fisheye::InvalidArgument);
  EXPECT_THROW(ViewSpec::parse("quadview").make(127, 96, 100.0),
               fisheye::InvalidArgument);
}

TEST(QuadViewGeometry, MapEqualsPerQuadrantPtzMaps) {
  // One QuadView warp map must be exactly the four per-quadrant PTZ maps
  // laid out in the 2x2 grid — the hot path stays a single remap.
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::kPi, 160, 120);
  const core::QuadView view(128, 96, deg_to_rad(90.0), deg_to_rad(40.0));
  const core::WarpMap whole = core::build_map(cam, view);
  for (int i = 0; i < 4; ++i) {
    const core::WarpMap quad = core::build_map(cam, view.quadrant(i));
    const int ox = (i % 2) * 64, oy = (i / 2) * 48;
    for (int y = 0; y < 48; ++y)
      for (int x = 0; x < 64; ++x) {
        const std::size_t w = whole.index(ox + x, oy + y);
        const std::size_t q = quad.index(x, y);
        EXPECT_EQ(whole.src_x[w], quad.src_x[q]) << i << " " << x << "," << y;
        EXPECT_EQ(whole.src_y[w], quad.src_y[q]) << i << " " << x << "," << y;
      }
  }
}

// --- corrector integration --------------------------------------------------

img::Image8 fisheye_input(int w, int h, const LensSpec& lens) {
  const auto cam = core::FisheyeCamera::centered(lens, w, h);
  video::SyntheticVideoSource source(cam, w, h, 1);
  return source.frame(0);
}

TEST(ModelZoo, ParameterizedLensesMatchAcrossBackends) {
  // The zoo only changes what the map builder evaluates: scalar backends
  // stay bit-exact with serial, the SIMD kernel keeps its one-level
  // contract — same guarantees the analytic lenses have.
  for (const char* text : {"kannala_brandt:k1=-0.02,k2=0.002,fov=170",
                           "division:lambda=-0.6,fov=160"}) {
    const LensSpec spec = LensSpec::parse(text);
    const int w = 160, h = 120;
    const Corrector corr = Corrector::builder(w, h).lens(spec).build();
    const img::Image8 src = fisheye_input(w, h, spec);
    img::Image8 ref(w, h, 1);
    const auto serial = core::BackendRegistry::create("serial");
    corr.correct(src.view(), ref.view(), *serial);

    img::Image8 pooled(w, h, 1);
    const auto pool = core::BackendRegistry::create("pool:threads=2");
    corr.correct(src.view(), pooled.view(), *pool);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), pooled.view()))
        << text;

    img::Image8 vectored(w, h, 1);
    const auto simd = core::BackendRegistry::create("simd");
    corr.correct(src.view(), vectored.view(), *simd);
    EXPECT_LT(img::fraction_differing(ref.view(), vectored.view(), 1), 0.01)
        << text;
  }
}

TEST(ModelZoo, PlanDescribeCarriesModelIdentity) {
  const Corrector corr =
      Corrector::builder(96, 72)
          .lens(LensSpec::parse("division:lambda=-0.5,fov=160"))
          .view(ViewSpec::parse("cylindrical:hfov=200"))
          .build();
  const auto backend = core::BackendRegistry::create("serial");
  const Corrector::Prepared prepared = corr.prepare(*backend, 1);
  const std::string desc = prepared.plan.describe();
  EXPECT_NE(desc.find("lens=division:lambda=-0.5"), std::string::npos)
      << desc;
  EXPECT_NE(desc.find("view=cylindrical"), std::string::npos) << desc;
}

TEST(ModelZoo, ViewSpecsProduceDistinctOutputs) {
  const int w = 128, h = 96;
  const LensSpec lens = LensSpec::parse("equidistant");
  const img::Image8 src = fisheye_input(w, h, lens);
  const auto backend = core::BackendRegistry::create("serial");

  auto correct_with = [&](const char* view_text) {
    const Corrector corr = Corrector::builder(w, h)
                               .lens(lens)
                               .view(ViewSpec::parse(view_text))
                               .build();
    img::Image8 out(w, h, 1);
    corr.correct(src.view(), out.view(), *backend);
    return out;
  };
  const img::Image8 persp = correct_with("perspective");
  for (const char* text : {"cylindrical:hfov=200", "equirect", "quadview"}) {
    const img::Image8 other = correct_with(text);
    EXPECT_GT(img::max_abs_diff(persp.cview(), other.cview()), 0) << text;
  }

  // QuadView needs four equal quadrants; odd output dims are a user error.
  EXPECT_THROW(Corrector::builder(w, h)
                   .output_size(127, 95)
                   .view(ViewSpec::parse("quadview"))
                   .build(),
               fisheye::InvalidArgument);
}

// --- serving ----------------------------------------------------------------

TEST(ServeZoo, RecalibrateFromSpecMatchesFreshServer) {
  const int w = 320, h = 240;
  img::Image8 src(w, h, 1);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      src.at(x, y) = static_cast<std::uint8_t>((x * 7 + y * 13) & 0xFF);

  serve::ServerConfig cfg;
  cfg.src_width = w;
  cfg.src_height = h;
  cfg.lens = core::LensKind::Equidistant;
  // Fixed level focal: recalibration keeps the pyramid geometry, so a
  // fresh server with the new lens is an exact reference.
  cfg.levels = {{256, 192, 140.0}};

  const LensSpec newlens = LensSpec::parse("division:lambda=-0.5,fov=160");
  const par::Rect r{32, 32, 160, 128};
  img::Image8 before(r.width(), r.height(), 1);
  img::Image8 after(r.width(), r.height(), 1);
  img::Image8 fresh(r.width(), r.height(), 1);

  {
    par::ThreadPool pool(2);
    serve::Server server(cfg, serve::ServeOptions::parse("serve"), pool);
    server.request(0, r, before.view());
    server.submit_frame(src.cview());
    server.drain();

    server.recalibrate(newlens);
    EXPECT_EQ(server.generation(), 2u);
    EXPECT_EQ(server.config().lens, newlens);
    EXPECT_NEAR(server.config().fov_rad, deg_to_rad(160.0), 1e-12);
    EXPECT_EQ(server.stats().cache_entries, 0u);

    server.request(0, r, after.view());
    server.submit_frame(src.cview());
    server.drain();
  }
  {
    serve::ServerConfig cfg2 = cfg;
    cfg2.lens = newlens;
    par::ThreadPool pool(2);
    serve::Server server(cfg2, serve::ServeOptions::parse("serve"), pool);
    server.request(0, r, fresh.view());
    server.submit_frame(src.cview());
    server.drain();
  }
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(after.cview(), fresh.cview()));
  EXPECT_GT(img::max_abs_diff(before.cview(), after.cview()), 0);
}

}  // namespace
}  // namespace fisheye

// BackendRegistry contract tests: spec strings round-trip through name(),
// unknown specs fail with precise error.hpp diagnostics, every registered
// kind reproduces the serial reference output, per-tile plan stats are
// reported uniformly, and a map rebuilt at a recycled address invalidates
// the cached plan (the aliasing bug the plan key's generation field fixes).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/accel_backend.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "util/error.hpp"
#include "video/pipeline.hpp"

namespace fisheye {
namespace {

using core::BackendRegistry;
using core::Corrector;

img::Image8 fisheye_input(int w, int h, int ch = 1) {
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), w, h);
  return video::SyntheticVideoSource(cam, w, h, ch).frame(0);
}

// --- registry surface -------------------------------------------------------

TEST(BackendRegistry, CoreAndAcceleratorKindsAreRegistered) {
  BackendRegistry& reg = BackendRegistry::instance();
  for (const char* kind :
       {"cpu", "serial", "pool", "simd", "cell", "gpu", "fpga", "cluster"})
    EXPECT_TRUE(reg.has(kind)) << kind;
  const auto kinds = reg.kinds();
  EXPECT_TRUE(std::is_sorted(kinds.begin(), kinds.end()));
  for (const auto& [kind, summary] : reg.help())
    EXPECT_FALSE(summary.empty()) << kind;
}

TEST(BackendRegistry, SpecStringsRoundTripThroughName) {
  // name() must be a fixed point: create(create(spec)->name())->name()
  // reproduces the canonical spec exactly.
  const char* specs[] = {
      "cpu",
      "cpu:threads=2,schedule=steal,tiles,tile=32x16,datapath=gather",
      "cpu:threads=2,schedule=guided,cols=3,datapath=soa",
      "cpu:threads=3,chunks=6",
      "cpu:threads=2,cyclic,map=packed,tuned=auto",
      "pool:tiles,threads=2,tuned=auto",
      "serial",
      "pool:static,rows,threads=2",
      "pool:dynamic,rows=8,threads=2",
      "pool:guided,tiles,tile=96x32,threads=3",
      "pool:dynamic,cyclic,threads=2",
      "pool:steal,tiles,tile=96x32,threads=3",
      "simd:threads=1",
      "simd:threads=2",
      "cell",
      "cell:spes=4,sbuf,tile=64x32,schedule=lpt",
      "cell:schedule=steal",
      "gpu",
      "gpu:sms=16,tex=8x8x16x2,block=32",
      "fpga",
      "fpga:clock=100,cache=16x8x32x2",
      "cluster",
      "cluster:ranks=8,net=ib,bcast",
      // Map-format requests ride in the spec and so survive the round trip.
      "serial:map=packed",
      "pool:threads=2,map=compact:8",
      "simd:map=compact:4",
      "cell:spes=4,map=compact:16",
      "fpga:map=compact:16",
      "fpga:ddr=6,map=compact:8",
  };
  for (const char* spec : specs) {
    const auto backend = BackendRegistry::create(spec);
    const std::string canonical = backend->name();
    EXPECT_EQ(BackendRegistry::create(canonical)->name(), canonical) << spec;
  }
}

TEST(BackendRegistry, AliasesCanonicalizeToCpuSpecs) {
  // serial, pool, simd and openmp build the one CpuBackend: each spec
  // names a cpu: spec that plans the alias's tiles and kernel datapath.
  struct Case {
    const char* spec;
    const char* canonical;
    std::size_t tiles;
    core::KernelVariant datapath;  ///< before effective_variant() degrade
  };
  using core::KernelVariant;
  const Case cases[] = {
      {"serial", "cpu:threads=1", 1, KernelVariant::Scalar},
      {"pool:threads=4", "cpu:threads=4,rows", 16, KernelVariant::Scalar},
      {"pool:steal,threads=4", "cpu:threads=4,schedule=steal,rows", 16,
       KernelVariant::Scalar},
      {"pool:guided,tiles,tile=64x64,threads=2",
       "cpu:threads=2,schedule=guided,tiles,tile=64x64", 6,
       KernelVariant::Scalar},
      {"simd:threads=1", "cpu:threads=1,datapath=soa", 1,
       KernelVariant::SimdSoa},
      {"simd:threads=4,datapath=gather",
       "cpu:threads=4,schedule=dynamic,datapath=gather", 16,
       KernelVariant::SimdGather},
      // openmp: the tiles its OpenMP loops planned (one row block per
      // thread; 4 x threads row blocks; 64x64 tiles for steal).
      {"openmp:threads=4", "cpu:threads=4,rows=4", 4, KernelVariant::Scalar},
      {"openmp:threads=4,schedule=dynamic",
       "cpu:threads=4,schedule=dynamic", 16, KernelVariant::Scalar},
      {"openmp:threads=4,schedule=guided",
       "cpu:threads=4,schedule=dynamic", 16, KernelVariant::Scalar},
      {"openmp:threads=4,schedule=steal",
       "cpu:threads=4,schedule=steal,tiles,tile=64x64", 6,
       KernelVariant::Scalar},
      {"openmp:threads=2,map=packed", "cpu:threads=2,rows=2,map=packed", 2,
       KernelVariant::Scalar},
  };
  const int w = 160, h = 120;
  const Corrector corr = Corrector::builder(w, h).build();
  img::Image8 src(w, h, 1), dst(w, h, 1);
  const core::ExecContext ctx = corr.make_context(src.view(), dst.view());
  for (const Case& c : cases) {
    const auto backend = BackendRegistry::create(c.spec);
    EXPECT_EQ(backend->name(), c.canonical) << c.spec;
    const core::ExecutionPlan plan = backend->plan(ctx);
    EXPECT_EQ(plan.tiles().size(), c.tiles) << c.spec;
    EXPECT_EQ(plan.kernel().key().variant,
              core::effective_variant(ctx, c.datapath))
        << c.spec;
    // The canonical spec plans the same tiles.
    EXPECT_EQ(BackendRegistry::create(c.canonical)->plan(ctx).tiles(),
              plan.tiles())
        << c.spec;
  }
  // tuned=auto keeps the alias's canonical options until the first plan
  // measures, then names its pick in a plain cpu: spec that plans the same
  // tiles and kernel.
  for (const auto& [spec, pending] :
       {std::pair{"simd:threads=1,tuned=auto",
                  "cpu:threads=1,datapath=soa,tuned=auto"},
        std::pair{"pool:tiles,threads=2,tuned=auto",
                  "cpu:threads=2,tiles,tile=64x64,tuned=auto"}}) {
    const auto backend = BackendRegistry::create(spec);
    EXPECT_EQ(backend->name(), pending) << spec;
    const core::ExecutionPlan plan = backend->plan(ctx);
    const std::string resolved = backend->name();
    EXPECT_EQ(resolved.rfind("cpu:", 0), 0u) << resolved;
    EXPECT_EQ(resolved.find("tuned="), std::string::npos) << resolved;
    const core::ExecutionPlan replan =
        BackendRegistry::create(resolved)->plan(ctx);
    EXPECT_EQ(replan.tiles(), plan.tiles()) << spec;
    EXPECT_EQ(replan.kernel().key(), plan.kernel().key()) << spec;
  }
}

TEST(BackendRegistry, UnknownKindListsRegisteredKinds) {
  try {
    BackendRegistry::create("warp9");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend kind 'warp9'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("serial"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cell"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, UnknownOptionNamesTheOptionAndValidOnes) {
  try {
    BackendRegistry::create("pool:bogus=3");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option 'bogus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("threads=N"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, MalformedSpecsAreRejected) {
  EXPECT_THROW(BackendRegistry::create(""), InvalidArgument);
  EXPECT_THROW(BackendRegistry::create(":threads=2"), InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("pool:,"), InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("pool:threads=abc"), InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("pool:tile=64"), InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("cell:schedule=fastest"),
               InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("cluster:net=token-ring"),
               InvalidArgument);
}

TEST(BackendRegistry, UnknownScheduleTokenIsNamedInTheError) {
  for (const char* spec : {"pool:schedule=fair", "cell:schedule=fair"}) {
    try {
      BackendRegistry::create(spec);
      FAIL() << "expected InvalidArgument for " << spec;
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("fair"), std::string::npos) << spec << ": " << msg;
      EXPECT_NE(msg.find("steal"), std::string::npos)
          << spec << " must list the valid tokens: " << msg;
    }
  }
}

TEST(BackendRegistry, MapSpecErrorsNameTheOffendingToken) {
  // Unknown map formats must say which token was wrong, not just "bad spec".
  try {
    BackendRegistry::create("pool:map=banana");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << e.what();
  }
  // Bad strides: zero, non-power-of-two, out of range, not a number.
  EXPECT_THROW(BackendRegistry::create("pool:map=compact:0"),
               InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("pool:map=compact:3"),
               InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("pool:map=compact:128"),
               InvalidArgument);
  EXPECT_THROW(BackendRegistry::create("pool:map=compact:x"),
               InvalidArgument);
  // The GPU backend models a texture-fetch datapath with no reconstruction
  // stage: map= is not among its options and must be rejected as unknown.
  EXPECT_THROW(BackendRegistry::create("gpu:map=compact:8"),
               InvalidArgument);
}

TEST(BackendRegistry, CompactMapSpecsReproduceTheReference) {
  const int w = 160, h = 120;
  const img::Image8 src = fisheye_input(w, h);
  const Corrector fcorr = Corrector::builder(w, h).build();

  // stride 1 reconstructs exactly: every backend consuming map=compact:1
  // must match the packed datapath bit for bit.
  img::Image8 ref(w, h, 1);
  const auto pref = BackendRegistry::create("serial:map=packed");
  fcorr.correct(src.view(), ref.view(), *pref);
  for (const char* spec :
       {"serial:map=compact:1", "pool:threads=2,map=compact:1",
        "simd:threads=1,map=compact:1", "cell:map=compact:1",
        "fpga:map=compact:1"}) {
    const auto backend = BackendRegistry::create(spec);
    img::Image8 out(w, h, 1);
    fcorr.correct(src.view(), out.view(), *backend);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << spec;
  }
  // At stride 8 all consumers run the same integer reconstruction, so they
  // agree with each other exactly even though they differ from the packed
  // reference by the (bounded) reconstruction error.
  img::Image8 c8(w, h, 1);
  const auto s8 = BackendRegistry::create("serial:map=compact:8");
  fcorr.correct(src.view(), c8.view(), *s8);
  EXPECT_GT(img::psnr(ref.view(), c8.view()), 30.0);
  for (const char* spec : {"pool:threads=2,map=compact:8",
                           "simd:threads=2,map=compact:8",
                           "cell:map=compact:8", "fpga:map=compact:8"}) {
    const auto backend = BackendRegistry::create(spec);
    img::Image8 out(w, h, 1);
    fcorr.correct(src.view(), out.view(), *backend);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(c8.view(), out.view()))
        << spec;
  }
}

// --- output equivalence -----------------------------------------------------

TEST(BackendRegistry, AllKindsReproduceTheSerialReference) {
  const int w = 160, h = 120;
  const img::Image8 src = fisheye_input(w, h);
  const Corrector fcorr = Corrector::builder(w, h).build();
  const Corrector pcorr =
      Corrector::builder(w, h).map_mode(core::MapMode::PackedLut).build();

  img::Image8 ref(w, h, 1);
  const auto serial = BackendRegistry::create("serial");
  fcorr.correct(src.view(), ref.view(), *serial);

  // Scalar float-LUT kinds: bit-exact against serial.
  for (const char* spec : {"pool:dynamic,tiles,tile=48x24,threads=3",
                           "pool:steal,tiles,tile=48x24,threads=3", "cell",
                           "cell:schedule=steal", "cluster:ranks=3"}) {
    const auto backend = BackendRegistry::create(spec);
    img::Image8 out(w, h, 1);
    fcorr.correct(src.view(), out.view(), *backend);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << spec;
  }
  // SIMD and GPU kernels round differently: within one gray level.
  for (const char* spec : {"simd:threads=2", "gpu"}) {
    const auto backend = BackendRegistry::create(spec);
    img::Image8 out(w, h, 1);
    fcorr.correct(src.view(), out.view(), *backend);
    EXPECT_LE(img::max_abs_diff(ref.view(), out.view()), 1) << spec;
  }
  // FPGA consumes the packed LUT: bit-exact against serial on the same
  // packed corrector.
  img::Image8 pref(w, h, 1), pout(w, h, 1);
  pcorr.correct(src.view(), pref.view(), *serial);
  const auto fpga = BackendRegistry::create("fpga");
  pcorr.correct(src.view(), pout.view(), *fpga);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(pref.view(), pout.view()));
}

// --- uniform per-tile instrumentation ---------------------------------------

TEST(BackendRegistry, AllKindsReportPerTilePlanStats) {
  const int w = 160, h = 120;
  const img::Image8 src = fisheye_input(w, h);
  const Corrector fcorr = Corrector::builder(w, h).build();
  const Corrector pcorr =
      Corrector::builder(w, h).map_mode(core::MapMode::PackedLut).build();

  const std::vector<std::pair<std::string, const Corrector*>> cases = {
      {"serial", &fcorr},       {"pool:dynamic,rows,threads=2", &fcorr},
      {"simd:threads=2", &fcorr}, {"cell", &fcorr},
      {"gpu", &fcorr},          {"fpga", &pcorr},
      {"cluster:ranks=2", &fcorr},
  };
  for (const auto& [spec, corr] : cases) {
    const auto backend = BackendRegistry::create(spec);
    const Corrector::Prepared prepared = corr->prepare(*backend);
    img::Image8 out(w, h, 1);
    corr->correct(prepared, src.view(), out.view());
    const rt::TileStats stats = prepared.plan.tile_stats();
    EXPECT_GE(stats.tiles, 1) << spec;
    EXPECT_EQ(stats.tiles,
              static_cast<int>(prepared.plan.tiles().size())) << spec;
    EXPECT_GT(stats.mean_seconds, 0.0) << spec;
    // Relative slack of a few ulps: backends that split the frame time
    // evenly over tiles give min == mean == max up to rounding.
    EXPECT_LE(stats.min_seconds, stats.mean_seconds * (1.0 + 1e-9)) << spec;
    EXPECT_LE(stats.mean_seconds, stats.max_seconds * (1.0 + 1e-9)) << spec;
    EXPECT_GE(stats.imbalance, 1.0 - 1e-9) << spec;
    EXPECT_GT(stats.bytes_in, 0u) << spec;
    EXPECT_GT(stats.bytes_out, 0u) << spec;
  }
}

// --- plan reuse and invalidation --------------------------------------------

TEST(BackendRegistry, PreparedPlanIsReusedAcrossFrames) {
  const int w = 160, h = 120;
  const img::Image8 src = fisheye_input(w, h);
  const Corrector corr = Corrector::builder(w, h).build();
  const auto backend = BackendRegistry::create("pool:threads=2");
  const Corrector::Prepared prepared = corr.prepare(*backend);
  const std::vector<par::Rect>* tiles_before = &prepared.plan.tiles();
  img::Image8 out(w, h, 1);
  for (int i = 0; i < 3; ++i)
    corr.correct(prepared, src.view(), out.view());
  // Same plan object, same tiles: no per-frame re-partitioning happened.
  EXPECT_EQ(tiles_before, &prepared.plan.tiles());
  img::Image8 ref(w, h, 1);
  const auto serial = BackendRegistry::create("serial");
  corr.correct(src.view(), ref.view(), *serial);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

TEST(BackendRegistry, StealPlanIsRecycledAcrossFramesAndStaysCorrect) {
  // schedule=steal regression: the plan carries the Morton order and the
  // initial deque runs as plan state, and execute() mutates the persistent
  // per-worker deques — so a recycled plan must refill them every frame
  // and keep producing the reference output with consistent counters.
  const int w = 160, h = 120;
  const img::Image8 src = fisheye_input(w, h);
  const Corrector corr = Corrector::builder(w, h).build();
  const auto backend =
      BackendRegistry::create("pool:steal,tiles,tile=32x32,threads=3");
  const Corrector::Prepared prepared = corr.prepare(*backend);
  const std::vector<par::Rect>* tiles_before = &prepared.plan.tiles();

  img::Image8 ref(w, h, 1);
  const auto serial = BackendRegistry::create("serial");
  corr.correct(src.view(), ref.view(), *serial);

  img::Image8 out(w, h, 1);
  for (int frame = 0; frame < 4; ++frame) {
    corr.correct(prepared, src.view(), out.view());
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << "frame " << frame;
    const rt::TileStats stats = prepared.plan.tile_stats();
    // Every tile ran exactly once, from a run or after a steal.
    EXPECT_EQ(stats.local_tiles + stats.stolen_tiles,
              static_cast<std::size_t>(stats.tiles)) << "frame " << frame;
    EXPECT_LE(stats.steals, stats.stolen_tiles) << "frame " << frame;
  }
  // Same plan object, same (Morton-ordered) tiles: no re-planning.
  EXPECT_EQ(tiles_before, &prepared.plan.tiles());

  // Plan identity: the schedule is part of the canonical name, so a steal
  // plan never aliases a static one for the same geometry.
  EXPECT_NE(backend->name().find("steal"), std::string::npos);
  EXPECT_EQ(BackendRegistry::create(backend->name())->name(),
            backend->name());
}

TEST(BackendRegistry, MapRebuiltAtRecycledAddressReplans) {
  // The aliasing regression the plan key's generation field guards against:
  // a map rebuilt at the SAME address (here: copied into the same WarpMap's
  // planes) with the same dimensions must invalidate the cached plan. With
  // address-only identity the accelerator would keep serving the stale
  // platform reorganization built from the old map.
  const int w = 160, h = 120;
  const img::Image8 src = fisheye_input(w, h);

  const auto cam_a = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), w, h);
  const auto cam_b = core::FisheyeCamera::centered(
      core::LensKind::Equisolid, util::deg_to_rad(150.0), w, h);
  const core::PerspectiveView view(w, h, cam_a.lens().focal());

  core::WarpMap map = core::build_map(cam_a, view);  // address stays fixed
  const std::uint64_t gen_a = map.generation;

  core::ExecContext ctx;
  ctx.src = src.view();
  ctx.map = map;
  ctx.mode = core::MapMode::FloatLut;

  const auto backend = BackendRegistry::create("cell");
  img::Image8 out_a(w, h, 1);
  ctx.dst = out_a.view();
  backend->execute(ctx);  // caches a plan keyed on (&map, generation)

  const float* const table_a = map.src_x.data();
  const core::WarpMap rebuilt = core::build_map(cam_b, view);
  map = rebuilt;  // copied into the same planes => same table address
  ASSERT_EQ(map.src_x.data(), table_a);
  EXPECT_NE(map.generation, gen_a);
  ctx.map = map;  // a view is a snapshot: take it again from the new map

  img::Image8 out_b(w, h, 1);
  ctx.dst = out_b.view();
  backend->execute(ctx);  // must replan, not reuse the stale platform

  // Ground truth: a fresh backend that can only have seen the new map.
  img::Image8 fresh(w, h, 1);
  ctx.dst = fresh.view();
  BackendRegistry::create("cell")->execute(ctx);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(fresh.view(), out_b.view()));
  // And the two maps genuinely disagree, so a stale plan would be visible.
  EXPECT_GT(img::max_abs_diff(out_a.view(), out_b.view()), 0);
}

TEST(BackendRegistry, CameraRebuiltAtRecycledAddressReplans) {
  // The on-the-fly twin of the recycled-map regression above: in OnTheFly
  // mode the plan key carries the camera/view construction generations, so
  // a recalibrated camera assigned into the SAME FisheyeCamera object (same
  // address, same geometry) must invalidate the cached plan.
  const int w = 96, h = 72;
  const img::Image8 src = fisheye_input(w, h);

  auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), w, h);
  const core::PerspectiveView view(w, h, cam.lens().focal());
  const std::uint64_t gen_a = cam.generation();

  core::ExecContext ctx;
  ctx.src = src.view();
  ctx.camera = &cam;
  ctx.view = &view;
  ctx.mode = core::MapMode::OnTheFly;

  const auto backend = BackendRegistry::create("serial");
  img::Image8 out_a(w, h, 1);
  ctx.dst = out_a.view();
  backend->execute(ctx);  // caches a plan keyed on the camera generation

  cam = core::FisheyeCamera::centered(
      core::LensKind::KannalaBrandt, util::deg_to_rad(170.0), w, h);
  EXPECT_NE(cam.generation(), gen_a);

  img::Image8 out_b(w, h, 1);
  ctx.dst = out_b.view();
  backend->execute(ctx);  // must replan against the new calibration

  img::Image8 fresh(w, h, 1);
  ctx.dst = fresh.view();
  BackendRegistry::create("serial")->execute(ctx);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(fresh.view(), out_b.view()));
  EXPECT_GT(img::max_abs_diff(out_a.view(), out_b.view()), 0);

  // Copies keep the stamp: a copied camera is the same calibration, so
  // plans built against the original stay valid for the copy.
  const core::FisheyeCamera copy = cam;
  EXPECT_EQ(copy.generation(), cam.generation());
}

TEST(BackendRegistry, CopiedMapKeepsItsGeneration) {
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), 64, 48);
  const core::PerspectiveView view(64, 48, cam.lens().focal());
  const core::WarpMap map = core::build_map(cam, view);
  const core::WarpMap copy = map;  // same logical map: plans stay valid
  EXPECT_EQ(copy.generation, map.generation);
  core::WarpMap rebuilt = map;
  rebuilt = core::build_map(cam, view);  // rebuilt content: new identity
  EXPECT_NE(rebuilt.generation, map.generation);
}

}  // namespace
}  // namespace fisheye

// Cross-backend equivalence: every execution strategy must produce the
// serial reference output (bit-exact for scalar-kernel backends, within one
// level for the SIMD kernel, bit-exact for the Cell simulator, and the
// packed-kernel reference for the FPGA simulator).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/accel_backend.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "simd/remap_gather.hpp"
#include "video/pipeline.hpp"

namespace fisheye {
namespace {

using core::Corrector;
using util::deg_to_rad;

/// The SoA datapath under `schedule`.
core::CpuOptions soa_options(par::Schedule schedule = par::Schedule::Static) {
  core::CpuOptions o;
  o.schedule = schedule;
  o.datapath = core::KernelVariant::SimdSoa;
  return o;
}

struct Shape {
  int w;
  int h;
  int ch;
};

class BackendEquivalence : public ::testing::TestWithParam<Shape> {
 protected:
  static img::Image8 fisheye_input(int w, int h, int ch) {
    const auto cam = core::FisheyeCamera::centered(
        core::LensKind::Equidistant, deg_to_rad(180.0), w, h);
    video::SyntheticVideoSource source(cam, w, h, ch);
    return source.frame(0);
  }
};

TEST_P(BackendEquivalence, PoolSchedulesMatchSerialBitExact) {
  const auto [w, h, ch] = GetParam();
  const Corrector corr =
      Corrector::builder(w, h).fov_degrees(180.0).build();
  const img::Image8 src = fisheye_input(w, h, ch);
  img::Image8 ref(w, h, ch);
  core::SerialBackend serial;
  corr.correct(src.view(), ref.view(), serial);

  // The float gather is byte-exact, so it joins the grid where it runs;
  // without AVX2 it degrades to the +-1 SoA kernel and is left out.
  std::vector<core::KernelVariant> datapaths{core::KernelVariant::Scalar};
  if (simd::gather_available())
    datapaths.push_back(core::KernelVariant::SimdGather);
  par::ThreadPool pool(4);
  for (const core::KernelVariant datapath : datapaths)
    for (const par::Schedule sched :
         {par::Schedule::Static, par::Schedule::Dynamic,
          par::Schedule::Guided, par::Schedule::Steal})
      for (const par::PartitionKind part :
           {par::PartitionKind::RowBlocks, par::PartitionKind::RowCyclic,
            par::PartitionKind::Tiles, par::PartitionKind::ColumnBlocks}) {
        core::CpuBackend backend(pool, {sched, part, 0, 48, 24, datapath});
        img::Image8 out(w, h, ch);
        corr.correct(src.view(), out.view(), backend);
        EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
            << backend.name();
      }
}

TEST_P(BackendEquivalence, SimdWithinOneLevelOfSerial) {
  const auto [w, h, ch] = GetParam();
  const Corrector corr =
      Corrector::builder(w, h).fov_degrees(180.0).build();
  const img::Image8 src = fisheye_input(w, h, ch);
  img::Image8 ref(w, h, ch), out(w, h, ch);
  core::SerialBackend serial;
  corr.correct(src.view(), ref.view(), serial);

  core::CpuBackend simd_serial(soa_options());
  corr.correct(src.view(), out.view(), simd_serial);
  EXPECT_LT(img::fraction_differing(ref.view(), out.view(), 1), 0.01);

  par::ThreadPool pool(3);
  core::CpuBackend simd_pool(pool, soa_options(par::Schedule::Dynamic));
  img::Image8 out2(w, h, ch);
  corr.correct(src.view(), out2.view(), simd_pool);
  // Threaded SIMD must equal serial SIMD exactly (same kernel, disjoint
  // rows).
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(out.view(), out2.view()));
}

TEST_P(BackendEquivalence, CellSimulatorMatchesSerialBitExact) {
  const auto [w, h, ch] = GetParam();
  const Corrector corr =
      Corrector::builder(w, h).fov_degrees(180.0).build();
  const img::Image8 src = fisheye_input(w, h, ch);
  img::Image8 ref(w, h, ch), out(w, h, ch);
  core::SerialBackend serial;
  corr.correct(src.view(), ref.view(), serial);

  accel::SpeConfig config;
  config.num_spes = 4;
  accel::CellBackend cell(config);
  corr.correct(src.view(), out.view(), cell);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_GT(cell.last_stats().fps, 0.0);
}

TEST_P(BackendEquivalence, FpgaSimulatorMatchesPackedReference) {
  const auto [w, h, ch] = GetParam();
  const Corrector corr = Corrector::builder(w, h)
                             .fov_degrees(180.0)
                             .map_mode(core::MapMode::PackedLut)
                             .build();
  const img::Image8 src = fisheye_input(w, h, ch);
  img::Image8 ref(w, h, ch), out(w, h, ch);
  core::SerialBackend serial;  // serial PackedLut path
  corr.correct(src.view(), ref.view(), serial);

  accel::FpgaBackend fpga(accel::FpgaConfig{});
  corr.correct(src.view(), out.view(), fpga);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_GT(fpga.last_stats().cache_accesses, 0u);
}

TEST_P(BackendEquivalence, OpenMpMatchesSerialBitExact) {
  const auto [w, h, ch] = GetParam();
  const Corrector corr =
      Corrector::builder(w, h).fov_degrees(180.0).build();
  const img::Image8 src = fisheye_input(w, h, ch);
  img::Image8 ref(w, h, ch), out(w, h, ch);
  core::SerialBackend serial;
  corr.correct(src.view(), ref.view(), serial);
  // The openmp alias, one plan per OpenMP schedule it maps.
  for (const char* sched : {"static", "dynamic", "guided", "steal"}) {
    const auto omp = core::BackendRegistry::create(
        std::string("openmp:threads=2,schedule=") + sched);
    corr.correct(src.view(), out.view(), *omp);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << sched;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BackendEquivalence,
                         ::testing::Values(Shape{160, 120, 1},
                                           Shape{160, 120, 3},
                                           Shape{321, 201, 1},
                                           Shape{127, 97, 3}),
                         [](const auto& pinfo) {
                           const Shape s = pinfo.param;
                           return std::to_string(s.w) + "x" +
                                  std::to_string(s.h) + "c" +
                                  std::to_string(s.ch);
                         });

TEST(Backends, OtfModeAcrossSchedulesMatchesSerial) {
  const Corrector corr = Corrector::builder(160, 120)
                             .fov_degrees(170.0)
                             .map_mode(core::MapMode::OnTheFly)
                             .build();
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, deg_to_rad(170.0), 160, 120);
  video::SyntheticVideoSource source(cam, 160, 120, 1);
  const img::Image8 src = source.frame(0);
  img::Image8 ref(160, 120, 1), out(160, 120, 1);
  core::SerialBackend serial;
  corr.correct(src.view(), ref.view(), serial);
  par::ThreadPool pool(4);
  core::CpuBackend backend(pool, {par::Schedule::Dynamic,
                                 par::PartitionKind::RowCyclic, 0, 64, 64});
  corr.correct(src.view(), out.view(), backend);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

TEST(Backends, NamesDescribeConfiguration) {
  par::ThreadPool pool(2);
  EXPECT_EQ(core::SerialBackend{}.name(), "cpu:threads=1");
  core::CpuBackend pb(pool, {par::Schedule::Guided,
                             par::PartitionKind::Tiles, 0, 64, 64});
  EXPECT_EQ(pb.name(), "cpu:threads=2,schedule=guided,tiles,tile=64x64");
  EXPECT_EQ(core::CpuBackend(soa_options()).name(),
            "cpu:threads=1,datapath=soa");
  accel::SpeConfig sc;
  sc.num_spes = 6;
  sc.double_buffering = false;
  EXPECT_EQ(accel::CellBackend(sc).name(), "cell:spes=6,sbuf");
}

TEST(Backends, SimdRejectsUnsupportedModes) {
  const Corrector corr = Corrector::builder(64, 64)
                             .fov_degrees(170.0)
                             .map_mode(core::MapMode::OnTheFly)
                             .build();
  img::Image8 src(64, 64, 1), dst(64, 64, 1);
  core::CpuBackend simd(soa_options());
  EXPECT_THROW(corr.correct(src.view(), dst.view(), simd),
               InvalidArgument);
}

TEST(Backends, PackedLutRequiresBilinear) {
  EXPECT_THROW(Corrector::builder(64, 64)
                   .map_mode(core::MapMode::PackedLut)
                   .interp(core::Interp::Bicubic)
                   .build(),
               InvalidArgument);
}

}  // namespace
}  // namespace fisheye

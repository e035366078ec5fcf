// Exhaustive backend-configuration property sweep: a pooled CpuBackend
// must match the one-thread one bit-exactly for EVERY interpolation kernel,
// border mode, map mode, schedule and channel count — the parallel
// decomposition can never change the image.
#include <gtest/gtest.h>

#include <string>

#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "video/pipeline.hpp"

namespace fisheye {
namespace {

using util::deg_to_rad;

struct SweepCase {
  core::Interp interp;
  img::BorderMode border;
  core::MapMode mode;
  par::Schedule schedule;
  int channels;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string s = core::interp_name(c.interp);
  s += '_';
  s += img::border_name(c.border);
  s += '_';
  s += core::map_mode_name(c.mode);
  s += '_';
  s += par::schedule_name(c.schedule);
  s += "_c" + std::to_string(c.channels);
  for (char& ch : s)
    if (ch == '-') ch = '_';
  return s;
}

class BackendSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BackendSweep, PoolMatchesSerialBitExact) {
  const SweepCase c = GetParam();
  const int w = 144, h = 108;
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 deg_to_rad(175.0), w, h);
  const video::SyntheticVideoSource source(cam, w, h, c.channels);
  const img::Image8 src = source.frame(1);

  const core::Corrector corr = core::Corrector::builder(w, h)
                                   .fov_degrees(175.0)
                                   .interp(c.interp)
                                   .border(c.border, 13)
                                   .map_mode(c.mode)
                                   .build();
  core::SerialBackend serial;
  img::Image8 ref(w, h, c.channels), out(w, h, c.channels);
  corr.correct(src.view(), ref.view(), serial);

  par::ThreadPool pool(4);
  core::CpuBackend backend(
      pool, {c.schedule, par::PartitionKind::Tiles, 0, 40, 24});
  corr.correct(src.view(), out.view(), backend);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  for (const core::Interp interp :
       {core::Interp::Nearest, core::Interp::Bilinear, core::Interp::Bicubic,
        core::Interp::Lanczos3})
    for (const img::BorderMode border :
         {img::BorderMode::Constant, img::BorderMode::Replicate,
          img::BorderMode::Reflect})
      cases.push_back({interp, border, core::MapMode::FloatLut,
                       par::Schedule::Dynamic, 1});
  // Map modes (bilinear only for packed) across schedules and channels.
  // Steal exercises the source-locality plan path for every map mode here:
  // PackedLut falls back to output-space keys, OnTheFly likewise.
  for (const par::Schedule sched :
       {par::Schedule::Static, par::Schedule::Dynamic, par::Schedule::Guided,
        par::Schedule::Steal})
    for (const int channels : {1, 3}) {
      cases.push_back({core::Interp::Bilinear, img::BorderMode::Constant,
                       core::MapMode::PackedLut, sched, channels});
      cases.push_back({core::Interp::Bilinear, img::BorderMode::Constant,
                       core::MapMode::OnTheFly, sched, channels});
    }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BackendSweep,
                         ::testing::ValuesIn(make_cases()), case_name);

}  // namespace
}  // namespace fisheye

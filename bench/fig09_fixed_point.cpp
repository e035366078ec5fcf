// F9 — Fixed-point LUT precision ablation: coordinate fractional bits vs
// output quality and LUT behaviour, plus packed vs float kernel speed.
#include <algorithm>

#include "core/kernel.hpp"
#include "core/remap.hpp"
#include "image/metrics.hpp"
#include "util/cpu.hpp"

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace fisheye;
  bench::init(argc, argv);
  rt::print_banner("F9", "packed-LUT precision sweep at 720p");

  const int w = 1280, h = 720;
  const img::Image8 src = bench::make_input(w, h);
  const auto serial = bench::make_backend("serial");

  // Float-LUT reference output and time: the per-pixel kernel, the
  // counterpart of the per-pixel packed kernel the sweep times. (The serial
  // backend runs float LUTs on the byte-exact gather datapath.)
  const core::Corrector ref_corr = core::Corrector::builder(w, h).build();
  img::Image8 ref(w, h, 1);
  const core::ExecContext ref_ctx =
      ref_corr.make_context(src.view(), ref.view());
  const auto per_pixel = [&] {
    core::remap_rect(ref_ctx.src, ref_ctx.dst, ref_ctx.map, {0, 0, w, h},
                     ref_ctx.opts);
  };
  per_pixel();
  const int reps = bench::reps_for(w, h, 6);
  const rt::RunStats float_stats = rt::measure(per_pixel, reps, 1);

  util::Table table({"frac bits", "coord LSB px", "PSNR vs float dB",
                     "max diff", "ms/frame"});
  table.row()
      .add("float32")
      .add("-")
      .add("inf")
      .add(0)
      .add(float_stats.median * 1e3, 2);
  for (const int bits : {4, 6, 8, 10, 12, 14, 18}) {
    const core::Corrector corr = core::Corrector::builder(w, h)
                                     .map_mode(core::MapMode::PackedLut)
                                     .frac_bits(bits)
                                     .build();
    img::Image8 out(w, h, 1);
    corr.correct(src.view(), out.view(), *serial);
    const rt::RunStats stats =
        bench::measure_backend(corr, src.view(), *serial, reps);
    table.row()
        .add(bits)
        .add(1.0 / static_cast<double>(1 << bits), 5)
        .add(img::psnr(ref.view(), out.view()), 2)
        .add(img::max_abs_diff(ref.view(), out.view()))
        .add(stats.median * 1e3, 2);
  }
  table.print(std::cout, "F9: fixed-point precision");

  // The float gather datapath keeps the float LUT and the float kernel's
  // own arithmetic (max diff 0 vs the per-pixel kernel), while hardware
  // gathers buy speed over the SoA kernel. The packed-map gather row is the
  // control: both gather rows move an 8 B/px map and gather the same taps;
  // on these gray frames the float gather runs them in one pass of 16-pixel
  // steps and the packed gather in two passes through the SoA scratch.
  {
    // Floor of 9 reps even under --quick: CI asserts on the vs-soa ratio
    // and on float gather vs packed gather; at 2-5 ms/frame a min of 3
    // reps is too noisy for the float/packed bound.
    const int dreps = std::max(reps, 9);
    util::Table dp({"map", "datapath", "isa", "ms/frame", "fps", "vs soa",
                    "max diff vs float"});
    double soa_s = 0.0;
    auto dp_row = [&](const char* map, const std::string& spec) {
      const auto backend = bench::make_backend(spec);
      const core::Corrector::Prepared prepared =
          ref_corr.prepare(*backend, 1);
      img::Image8 out(w, h, 1);
      const rt::RunStats stats = rt::measure(
          [&] { ref_corr.correct(prepared, src.view(), out.view()); },
          dreps, 1);
      // min, not median: CI asserts on the vs-soa ratio and shared-runner
      // noise is one-sided (preemption only ever slows a frame down).
      if (soa_s == 0.0) soa_s = stats.min;
      dp.row()
          .add(map)
          .add(core::variant_name(prepared.plan.kernel().key().variant))
          .add(util::cpu_info().isa())
          .add(stats.min * 1e3, 2)
          .add(rt::fps_from_seconds(stats.min), 1)
          .add(soa_s / stats.min, 2)
          .add(img::max_abs_diff(ref.view(), out.view()));
    };
    dp_row("float", "simd:threads=1,datapath=soa");
    dp_row("float", "simd:threads=1,datapath=gather");
    dp_row("packed", "simd:threads=1,datapath=gather,map=packed");
    dp.print(std::cout, "F9b: float-LUT datapaths");
  }

  std::cout << "expected shape: quality saturates once the coordinate LSB "
               "drops below the 8-bit blend quantization (~10 bits); the "
               "integer kernel's speed is precision-independent; the float "
               "gather datapath is exact (max diff 0), and the float gather "
               "takes at most ~1.6x the packed gather's time (same map "
               "bytes, same taps; a larger gap means the float gather fell "
               "off its vector path).\n";
  return 0;
}

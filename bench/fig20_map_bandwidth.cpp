// F20 — compact block-subsampled maps vs full-resolution LUTs.
//
// The map-bandwidth wall: a packed LUT streams 8 bytes of coordinates per
// output pixel, which saturates memory long before the blend datapath does.
// A compact map stores one fixed-point entry per stride x stride block and
// reconstructs per-pixel coordinates on the fly, cutting map traffic by
// ~stride^2 at the price of a bounded reconstruction error. This bench
// sweeps stride x resolution x backend and reports throughput, map bytes
// per pixel, and the reconstruction error actually incurred.
#include "accel/accel_backend.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace fisheye;
  bench::init(argc, argv);
  rt::print_banner("F20",
                   "compact maps: bandwidth vs reconstruction error");

  const int strides[] = {4, 8, 16};

  // --- CPU backends: measured host throughput -----------------------------
  util::Table cpu({"resolution", "backend", "map", "map B/px", "max err px",
                   "mean err px", "ms/frame", "fps", "vs packed"});
  for (const auto& res :
       {rt::kResolutions[2], rt::kResolutions[3], rt::kResolutions[4]}) {
    const img::Image8 src = bench::make_input(res.width, res.height);
    const core::Corrector corr =
        core::Corrector::builder(res.width, res.height).build();  // FloatLut
    const int reps = bench::reps_for(res.width, res.height, 6);
    const auto out_px = static_cast<double>(res.width) * res.height;

    const rt::RunStats packed =
        bench::measure_spec(corr, src.view(), "pool:threads=0,map=packed",
                            reps);
    cpu.row()
        .add(res.name)
        .add("pool")
        .add("packed")
        .add(8.0, 2)
        .add(0.0, 3)
        .add(0.0, 4)
        .add(packed.median * 1e3, 2)
        .add(rt::fps_from_seconds(packed.median), 1)
        .add(1.0, 2);

    for (const int stride : strides) {
      const core::CompactMap cm = core::compact_map(
          *corr.map(), res.width, res.height, stride);
      const std::string spec =
          "pool:threads=0,map=compact:" + std::to_string(stride);
      const rt::RunStats run = bench::measure_spec(corr, src.view(), spec,
                                                   reps);
      cpu.row()
          .add(res.name)
          .add("pool")
          .add("compact:" + std::to_string(stride))
          .add(static_cast<double>(cm.bytes()) / out_px, 2)
          .add(static_cast<double>(cm.max_error), 3)
          .add(static_cast<double>(cm.mean_error), 4)
          .add(run.median * 1e3, 2)
          .add(rt::fps_from_seconds(run.median), 1)
          .add(packed.median / run.median, 2);
    }

    // SIMD pair: the SoA datapath on its native float LUT vs compact:8,
    // which that datapath runs on the scalar compact kernel.
    const rt::RunStats simd_float =
        bench::measure_spec(corr, src.view(), "simd", reps);
    cpu.row()
        .add(res.name)
        .add("simd")
        .add("float")
        .add(8.0, 2)
        .add(0.0, 3)
        .add(0.0, 4)
        .add(simd_float.median * 1e3, 2)
        .add(rt::fps_from_seconds(simd_float.median), 1)
        .add(packed.median / simd_float.median, 2);
    const core::CompactMap cm8 =
        core::compact_map(*corr.map(), res.width, res.height, 8);
    const rt::RunStats simd_c8 =
        bench::measure_spec(corr, src.view(), "simd:map=compact:8", reps);
    cpu.row()
        .add(res.name)
        .add("simd")
        .add("compact:8")
        .add(static_cast<double>(cm8.bytes()) / out_px, 2)
        .add(static_cast<double>(cm8.max_error), 3)
        .add(static_cast<double>(cm8.mean_error), 4)
        .add(simd_c8.median * 1e3, 2)
        .add(rt::fps_from_seconds(simd_c8.median), 1)
        .add(packed.median / simd_c8.median, 2);
  }
  cpu.print(std::cout, "F20a: CPU backends (measured)");

  // --- accelerator simulators: modeled DMA/DDR traffic --------------------
  util::Table acc({"resolution", "platform", "map", "DMA in B/px",
                   "modeled fps", "vs full map"});
  for (const auto& res : {rt::kResolutions[2], rt::kResolutions[3]}) {
    const img::Image8 src = bench::make_input(res.width, res.height);
    img::Image8 dst(res.width, res.height, 1);
    const core::Corrector corr =
        core::Corrector::builder(res.width, res.height).build();
    const auto out_px = static_cast<double>(res.width) * res.height;

    const core::PackedMap pm =
        core::pack_map(*corr.map(), res.width, res.height, 14);

    accel::CellLikePlatform cell_float(*corr.map(), res.width, res.height, 1,
                                       accel::SpeConfig{});
    const accel::AccelFrameStats cf =
        cell_float.run_frame(src.view(), dst.view(), 0);
    acc.row()
        .add(res.name)
        .add("cell")
        .add("float")
        .add(static_cast<double>(cf.bytes_in) / out_px, 2)
        .add(cf.fps, 1)
        .add(1.0, 2);
    for (const int stride : strides) {
      const core::CompactMap cm = core::compact_map(
          *corr.map(), res.width, res.height, stride);
      accel::CellLikePlatform cell(cm, 1, accel::SpeConfig{});
      const accel::AccelFrameStats s =
          cell.run_frame(src.view(), dst.view(), 0);
      acc.row()
          .add(res.name)
          .add("cell")
          .add("compact:" + std::to_string(stride))
          .add(static_cast<double>(s.bytes_in) / out_px, 2)
          .add(s.fps, 1)
          .add(s.fps / cf.fps, 2);
    }

    accel::FpgaPlatform fpga_packed(pm, accel::FpgaConfig{});
    const accel::AccelFrameStats fp =
        fpga_packed.run_frame(src.view(), dst.view(), 0);
    acc.row()
        .add(res.name)
        .add("fpga")
        .add("packed")
        .add(static_cast<double>(fp.bytes_in) / out_px, 2)
        .add(fp.fps, 1)
        .add(1.0, 2);
    const core::CompactMap cm8 =
        core::compact_map(*corr.map(), res.width, res.height, 8);
    accel::FpgaPlatform fpga_c8(cm8, accel::FpgaConfig{});
    const accel::AccelFrameStats fc =
        fpga_c8.run_frame(src.view(), dst.view(), 0);
    acc.row()
        .add(res.name)
        .add("fpga")
        .add(fpga_c8.lut_on_chip() ? "compact:8 (BRAM)" : "compact:8")
        .add(static_cast<double>(fc.bytes_in) / out_px, 2)
        .add(fc.fps, 1)
        .add(fc.fps / fp.fps, 2);

    // The same pipeline behind a shared DDR port (~6 B/cycle, a mid-range
    // era board; spec `fpga:ddr=6`): streaming the 8 B/px packed LUT is now
    // the binding constraint, and the compact grid buys the port back.
    accel::FpgaConfig ddr_cfg;
    ddr_cfg.cost.ddr_bytes_per_cycle = 6.0;
    accel::FpgaPlatform fpga_packed_ddr(pm, ddr_cfg);
    const accel::AccelFrameStats fpd =
        fpga_packed_ddr.run_frame(src.view(), dst.view(), 0);
    acc.row()
        .add(res.name)
        .add("fpga ddr=6")
        .add("packed")
        .add(static_cast<double>(fpd.bytes_in) / out_px, 2)
        .add(fpd.fps, 1)
        .add(1.0, 2);
    accel::FpgaPlatform fpga_c8_ddr(cm8, ddr_cfg);
    const accel::AccelFrameStats fcd =
        fpga_c8_ddr.run_frame(src.view(), dst.view(), 0);
    acc.row()
        .add(res.name)
        .add("fpga ddr=6")
        .add(fpga_c8_ddr.lut_on_chip() ? "compact:8 (BRAM)" : "compact:8")
        .add(static_cast<double>(fcd.bytes_in) / out_px, 2)
        .add(fcd.fps, 1)
        .add(fcd.fps / fpd.fps, 2);
  }
  acc.print(std::cout, "F20b: accelerator simulators (modeled)");

  std::cout << "expected shape: compact maps cut map traffic by ~stride^2 "
               "for a sub-quarter-pixel max error at stride 8; the win "
               "grows with resolution as the packed LUT saturates memory; "
               "behind a shared 6 B/cycle DDR port the packed-LUT stream is "
               "the binding constraint and the compact map recovers >=1.3x "
               "throughput.\n";
  return 0;
}

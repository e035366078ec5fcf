// T2 — The headline platform-comparison table: fps for every platform at
// every resolution (gray, bilinear, constant border).
//
// CPU columns are measured on this host; accelerator columns are cycle-
// model outputs for the era hardware (8-SPE Cell @3.2 GHz with double
// buffering, FPGA @150 MHz with a 64 Kpx 4-way block cache).
//
// Every backend is built from its registry spec (the column header is the
// spec), and the second table prints each backend's uniform per-tile plan
// stats — the same fields whether the tiles are pool chunks, SPE tiles,
// GPU thread blocks, or one streaming FPGA pass.
#include "accel/accel_backend.hpp"

#include "bench_common.hpp"

namespace {

using namespace fisheye;

/// Modeled fps for the accelerator simulators (their wall time on this host
/// is meaningless; the cycle model's frame time is the result).
double modeled_fps(const core::Backend& b) {
  if (const auto* cell = dynamic_cast<const accel::CellBackend*>(&b))
    return cell->last_stats().fps;
  if (const auto* gpu = dynamic_cast<const accel::GpuBackend*>(&b))
    return gpu->last_stats().fps;
  if (const auto* fpga = dynamic_cast<const accel::FpgaBackend*>(&b))
    return fpga->last_stats().fps;
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  rt::print_banner("T2", "platform comparison (fps)");
  std::cout << "cpu columns measured on this host; cell/fpga/gpu columns are "
               "cycle-model estimates for the simulated hardware.\n";

  util::Table table({"resolution", "serial", "pool", "simd-1t", "simd-pool",
                     "openmp", "cell 8spe", "fpga 150MHz", "gpu 30sm"});
  util::Table tiles({"backend", "tiles", "min ms", "max ms", "mean ms",
                     "imbalance"});
  bool tiles_done = false;
  for (const auto& res : rt::kResolutions) {
    const img::Image8 src = bench::make_input(res.width, res.height);
    const core::Corrector fcorr =
        core::Corrector::builder(res.width, res.height).build();
    const core::Corrector pcorr = core::Corrector::builder(res.width,
                                                           res.height)
                                      .map_mode(core::MapMode::PackedLut)
                                      .build();
    const int reps = bench::reps_for(res.width, res.height, 5);

    auto fps = [&](const std::string& spec) {
      return rt::fps_from_seconds(
          bench::measure_spec(fcorr, src.view(), spec, reps).median);
    };
    const double f_serial = fps("serial");
    const double f_pool = fps("pool:dynamic,rows");
    const double f_simd1 = fps("simd:threads=1");
    const double f_simdp = fps("simd");
    // The openmp alias: one row block per hardware thread, static.
    const double f_omp = fps("openmp");

    // Accelerator simulators: one corrected frame drives the cycle model.
    img::Image8 out(res.width, res.height, 1);
    const auto cell = bench::make_backend("cell");
    fcorr.correct(src.view(), out.view(), *cell);
    const auto fpga = bench::make_backend("fpga");
    pcorr.correct(src.view(), out.view(), *fpga);
    const auto gpu = bench::make_backend("gpu");
    fcorr.correct(src.view(), out.view(), *gpu);

    table.row()
        .add(res.name)
        .add(f_serial, 1)
        .add(f_pool, 1)
        .add(f_simd1, 1)
        .add(f_simdp, 1)
        .add(f_omp, 1)
        .add(modeled_fps(*cell), 1)
        .add(modeled_fps(*fpga), 1)
        .add(modeled_fps(*gpu), 1);

    // Per-tile plan stats once, at 720p: the uniform instrumentation every
    // backend reports through rt::TileStats.
    if (!tiles_done && res.width == 1280) {
      tiles_done = true;
      for (const std::string& spec :
           {std::string("serial"), std::string("pool:dynamic,rows"),
            std::string("simd")}) {
        const bench::BackendRun r =
            bench::run_spec(fcorr, src.view(), spec, reps);
        tiles.row()
            .add(r.name)
            .add(r.tiles.tiles)
            .add(r.tiles.min_seconds * 1e3, 3)
            .add(r.tiles.max_seconds * 1e3, 3)
            .add(r.tiles.mean_seconds * 1e3, 3)
            .add(r.tiles.imbalance, 2);
      }
      for (const core::Backend* b : {cell.get(), fpga.get(), gpu.get()}) {
        const rt::TileStats ts = b->last_plan().tile_stats();
        tiles.row()
            .add(b->name())
            .add(ts.tiles)
            .add(ts.min_seconds * 1e3, 3)
            .add(ts.max_seconds * 1e3, 3)
            .add(ts.mean_seconds * 1e3, 3)
            .add(ts.imbalance, 2);
      }
    }
  }
  table.print(std::cout, "T2: platforms x resolutions");
  tiles.print(std::cout, "T2b: per-tile plan stats at 720p");
  std::cout << "expected shape: simd > serial at every size; pool tracks "
               "core count; the modeled accelerators sustain real-time "
               "(>30 fps) through 1080p, the study's central claim.\n";
  return 0;
}

// GPU-like SIMT platform simulator (2010-era discrete GPU).
//
// Architecture modeled — the standard CUDA port of the remap kernel:
//  * the output frame is tiled into 16x16 thread blocks, assigned
//    round-robin to `num_sms` streaming multiprocessors;
//  * per 32-thread warp: a few issue cycles per pixel of ALU work, one
//    coalesced 128-byte-transaction stream for the LUT read and the output
//    write, and data-dependent source taps served by a per-SM texture
//    cache (the BlockCache simulator);
//  * enough warps are resident that DRAM latency is hidden; throughput is
//    therefore the max of the aggregate ALU rate and the DRAM bandwidth
//    demanded by LUT + output + texture misses (a roofline, the standard
//    first-order GPU model), plus a fixed launch overhead.
//
// Functional execution reuses the float-LUT bilinear kernel, so outputs
// are bit-identical to the CPU serial reference (tested).
#pragma once

#include <vector>

#include "accel/cache_sim.hpp"
#include "accel/cost_model.hpp"
#include "core/mapping.hpp"
#include "image/image.hpp"

namespace fisheye::accel {

/// GTX-280-class defaults (30 SMs @ 1.3 GHz, ~140 GB/s DRAM).
struct GpuCostModel {
  int num_sms = 30;
  double clock_hz = 1.3e9;
  /// Issue cycles per output pixel per channel (address + blend ALU work,
  /// amortized across the warp).
  double issue_cycles_per_pixel = 6.0;
  /// DRAM bandwidth in bytes per core cycle (140 GB/s / 1.3 GHz ~ 108).
  double dram_bytes_per_cycle = 108.0;
  /// Memory transaction granularity (coalescing unit).
  int transaction_bytes = 128;
  /// Kernel launch + driver overhead per frame, cycles.
  double launch_overhead_cycles = 20000.0;
};

struct GpuConfig {
  GpuCostModel cost;
  /// Per-SM texture cache geometry. Default ~8 KB like the era's per-SM
  /// texture caches: 16x4-pixel blocks, 32 sets, 4 ways.
  BlockCacheConfig tex_cache{16, 4, 32, 4};
  int block_dim = 16;  ///< thread-block edge (block_dim x block_dim)
};

class GpuPlatform {
 public:
  /// The map `map` views must outlive the platform.
  GpuPlatform(core::MapView map, const GpuConfig& config);

  /// Simulate one frame (bilinear, constant fill); returns modeled timing.
  AccelFrameStats run_frame(img::ConstImageView<std::uint8_t> src,
                            img::ImageView<std::uint8_t> dst,
                            std::uint8_t fill);

  [[nodiscard]] const GpuConfig& config() const noexcept { return config_; }

 private:
  core::MapView map_;
  GpuConfig config_;
};

}  // namespace fisheye::accel

// Cycle cost models for the simulated accelerator platforms.
//
// The simulators execute the real kernels functionally on the host (so
// output correctness is testable bit-for-bit) while accounting cycles with
// these analytic models. Constants default to the published figures of the
// 2010-era hardware the study targeted:
//  * Cell BE: 3.2 GHz SPEs, 256 KB local store, MFC DMA up to 16 KB per
//    element, ~25.6 GB/s XDR memory, EIB far above memory bandwidth.
//  * Mid-range FPGA: 100-200 MHz pixel pipeline, II=1, BRAM line/block
//    cache in front of a DDR controller with tens-of-cycles burst latency.
// Absolute fps numbers are model outputs, not host measurements — the shape
// (scaling, saturation, crossover) is what the experiments reproduce.
#pragma once

#include <cstddef>

namespace fisheye::accel {

/// Cell-BE-like accelerator cost parameters.
struct SpeCostModel {
  double clock_hz = 3.2e9;

  /// SPE compute cost per output pixel per channel, bilinear from the LUT.
  /// Dominated by the four byte gathers, which the SPU ISA has no direct
  /// support for (shuffle-based extraction), plus address generation and
  /// the blend: ~48 cycles/pixel is representative of a tuned kernel.
  double cycles_per_pixel = 48.0;

  /// Extra SPE cost per output pixel (not per channel) to reconstruct the
  /// sampling coordinate from a compact block-subsampled map: two fixed
  /// point lerps per axis plus the rounding shift, all in the integer
  /// pipelines, which dual-issue against the gather-heavy odd pipeline.
  double compact_cycles_per_pixel = 6.0;

  /// Fixed MFC command issue + completion latency per DMA transfer.
  double dma_latency_cycles = 300.0;

  /// Per-SPE DMA streaming throughput, bytes per SPE cycle (the MFC can
  /// sustain ~8 B/cycle when the EIB is uncontended).
  double dma_bytes_per_cycle = 8.0;

  /// Aggregate off-chip memory bandwidth shared by all SPEs, bytes per
  /// cycle at clock_hz (25.6 GB/s / 3.2 GHz = 8 B/cycle).
  double shared_memory_bytes_per_cycle = 8.0;

  /// PPE-side work-queue dispatch overhead per tile (mailbox round trip).
  double dispatch_cycles_per_tile = 1000.0;
};

/// FPGA streaming-pipeline cost parameters.
struct FpgaCostModel {
  double clock_hz = 150.0e6;

  /// Initiation interval: output pixels per cycle is 1/II.
  double initiation_interval = 1.0;

  /// Pipeline fill depth (cycles before the first pixel emerges).
  double pipeline_depth = 64.0;

  /// Stall cycles per block-cache miss (DDR burst fetch of one block).
  double miss_penalty_cycles = 24.0;

  /// Shared DDR port bandwidth in bytes per pipeline cycle; the frame can
  /// go no faster than (bytes_in + bytes_out) / this. 0 (the default)
  /// disables the bound — the idealized prefetch model the cache-centric
  /// experiments (F7) use. A mid-range-era board sits around 6 B/cycle
  /// (a 16/32-bit DDR2 channel at ~900 MB/s effective against a 150 MHz
  /// pipeline), at which point streaming an 8 B/px LUT from DDR is the
  /// binding constraint — the map-bandwidth wall F20 measures, and the
  /// reason a BRAM-resident compact grid wins.
  double ddr_bytes_per_cycle = 0.0;
};

/// Outcome of one simulated frame on an accelerator.
struct AccelFrameStats {
  double cycles = 0.0;            ///< modeled total cycles for the frame
  double seconds = 0.0;           ///< cycles / clock
  double fps = 0.0;               ///< 1 / seconds
  std::size_t bytes_in = 0;       ///< DMA/DDR bytes fetched
  std::size_t bytes_out = 0;      ///< DMA/DDR bytes written
  std::size_t tiles = 0;          ///< tiles (Cell) or 1 (FPGA stream)
  std::size_t tile_splits = 0;    ///< tiles split to fit the local store
  std::size_t steals = 0;         ///< Cell steal policy: steal operations
  double compute_cycles = 0.0;    ///< aggregate busy compute cycles
  double utilization = 0.0;       ///< busiest-lane compute / total
  // FPGA-specific:
  std::size_t cache_accesses = 0;
  std::size_t cache_misses = 0;

  [[nodiscard]] double cache_hit_rate() const noexcept {
    return cache_accesses == 0
               ? 0.0
               : 1.0 - static_cast<double>(cache_misses) /
                           static_cast<double>(cache_accesses);
  }
};

}  // namespace fisheye::accel

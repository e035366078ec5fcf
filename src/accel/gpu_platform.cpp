#include "accel/gpu_platform.hpp"

#include <cmath>

#include "core/execution_plan.hpp"
#include "core/kernel.hpp"
#include "parallel/partition.hpp"
#include "util/error.hpp"

namespace fisheye::accel {

GpuPlatform::GpuPlatform(core::MapView map, const GpuConfig& config)
    : map_(map), config_(config) {
  FE_EXPECTS(config.cost.num_sms >= 1 && config.cost.num_sms <= 256);
  FE_EXPECTS(config.block_dim >= 4 && config.block_dim <= 32);
}

AccelFrameStats GpuPlatform::run_frame(img::ConstImageView<std::uint8_t> src,
                                       img::ImageView<std::uint8_t> dst,
                                       std::uint8_t fill) {
  FE_EXPECTS(dst.width == map_.width && dst.height == map_.height);
  FE_EXPECTS(src.channels == dst.channels);

  // Functional output: the registry's float-LUT bilinear kernel — the same
  // resolved function object every CPU backend runs, so outputs are
  // bit-identical to the serial reference by construction.
  core::ExecContext kctx;
  kctx.src = src;
  kctx.dst = dst;
  kctx.map = map_;
  kctx.mode = core::MapMode::FloatLut;
  kctx.opts = {core::Interp::Bilinear, img::BorderMode::Constant, fill};
  core::resolve_kernel(kctx)(src, dst, {0, 0, dst.width, dst.height});

  const GpuCostModel& c = config_.cost;
  const int bd = config_.block_dim;
  const int ch = src.channels;

  // Thread blocks round-robin across SMs; one texture cache per SM.
  std::vector<BlockCache> tex;
  tex.reserve(static_cast<std::size_t>(c.num_sms));
  for (int s = 0; s < c.num_sms; ++s) tex.emplace_back(config_.tex_cache);

  const std::vector<par::Rect> blocks = par::partition(
      map_.width, map_.height, par::PartitionKind::Tiles, 0, bd, bd);

  double compute_cycles = 0.0;
  std::size_t lut_bytes = 0, out_bytes = 0, tex_miss_bytes = 0;
  std::size_t tex_accesses = 0, tex_misses = 0;
  const std::size_t tex_block_bytes =
      static_cast<std::size_t>(config_.tex_cache.block_w) *
      config_.tex_cache.block_h * ch;

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    BlockCache& cache = tex[b % static_cast<std::size_t>(c.num_sms)];
    const par::Rect& r = blocks[b];
    for (int y = r.y0; y < r.y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * map_.pitch;
      for (int x = r.x0; x < r.x1; ++x) {
        compute_cycles += c.issue_cycles_per_pixel * ch;
        const float sx = map_.src_x[row + x];
        const float sy = map_.src_y[row + x];
        if (sx <= -1.0f || sy <= -1.0f ||
            sx >= static_cast<float>(src.width) ||
            sy >= static_cast<float>(src.height))
          continue;  // fill: no memory taps
        const int x0 = static_cast<int>(std::floor(sx));
        const int y0 = static_cast<int>(std::floor(sy));
        const int cx = x0 < 0 ? 0 : x0;
        const int cy = y0 < 0 ? 0 : y0;
        const int miss = cache.access_footprint(cx, cy);
        tex_misses += static_cast<std::size_t>(miss);
        tex_accesses += 1;
        tex_miss_bytes += static_cast<std::size_t>(miss) * tex_block_bytes;
      }
    }
    // Coalesced streams: LUT reads (8 B/px) and output writes (ch B/px),
    // rounded up to whole transactions per block row segment.
    const std::size_t px = static_cast<std::size_t>(r.area());
    const auto round_txn = [&](std::size_t bytes) {
      const std::size_t t = static_cast<std::size_t>(c.transaction_bytes);
      return ((bytes + t - 1) / t) * t;
    };
    lut_bytes += round_txn(px * 8);
    out_bytes += round_txn(px * static_cast<std::size_t>(ch));
  }

  AccelFrameStats stats;
  const double alu_cycles =
      compute_cycles / static_cast<double>(c.num_sms);
  const double dram_bytes =
      static_cast<double>(lut_bytes + out_bytes + tex_miss_bytes);
  const double bw_cycles = dram_bytes / c.dram_bytes_per_cycle;
  stats.cycles = c.launch_overhead_cycles + std::max(alu_cycles, bw_cycles);
  stats.seconds = stats.cycles / c.clock_hz;
  stats.fps = stats.seconds > 0.0 ? 1.0 / stats.seconds : 0.0;
  stats.compute_cycles = compute_cycles;
  stats.bytes_in = lut_bytes + tex_miss_bytes;
  stats.bytes_out = out_bytes;
  stats.cache_accesses = tex_accesses;
  stats.cache_misses = tex_misses;
  stats.tiles = blocks.size();
  stats.utilization =
      stats.cycles > 0.0 ? alu_cycles / stats.cycles : 0.0;
  return stats;
}

}  // namespace fisheye::accel

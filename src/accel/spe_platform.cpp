#include "accel/spe_platform.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "accel/dma.hpp"
#include "core/execution_plan.hpp"
#include "core/kernel.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace fisheye::accel {

CellLikePlatform::CellLikePlatform(core::MapView map, int src_width,
                                   int src_height, int channels,
                                   const SpeConfig& config)
    : map_(map),
      cmap_(nullptr),
      out_width_(map.width),
      out_height_(map.height),
      src_width_(src_width),
      src_height_(src_height),
      channels_(channels),
      config_(config) {
  init();
}

CellLikePlatform::CellLikePlatform(const core::CompactMap& map, int channels,
                                   const SpeConfig& config)
    : cmap_(&map),
      out_width_(map.width),
      out_height_(map.height),
      src_width_(map.src_width),
      src_height_(map.src_height),
      channels_(channels),
      config_(config) {
  init();
}

void CellLikePlatform::init() {
  FE_EXPECTS(config_.num_spes >= 1 && config_.num_spes <= 64);
  FE_EXPECTS(config_.tile_w >= 8 && config_.tile_h >= 1);
  FE_EXPECTS(channels_ >= 1 && channels_ <= 4);

  const std::vector<par::Rect> grid =
      par::partition(out_width_, out_height_, par::PartitionKind::Tiles,
                     /*chunks=*/0, config_.tile_w, config_.tile_h);
  for (const par::Rect& r : grid) decompose(r, 0);

  // Reorganize the map tile-contiguously (setup-time work, done once).
  if (cmap_) {
    tile_grids_.reserve(tiles_.size());
    for (const SpeTile& t : tiles_) {
      const par::Rect g = grid_rect(t.out);
      std::vector<std::int32_t> tg;
      tg.reserve(static_cast<std::size_t>(g.area()) * 2);
      for (int gy = g.y0; gy < g.y1; ++gy)
        for (int gx = g.x0; gx < g.x1; ++gx)
          tg.push_back(cmap_->gx[cmap_->index(gx, gy)]);
      for (int gy = g.y0; gy < g.y1; ++gy)
        for (int gx = g.x0; gx < g.x1; ++gx)
          tg.push_back(cmap_->gy[cmap_->index(gx, gy)]);
      tile_grids_.push_back(std::move(tg));
    }
    return;
  }
  tile_maps_.reserve(tiles_.size());
  for (const SpeTile& t : tiles_) {
    std::vector<float> tm;
    tm.reserve(static_cast<std::size_t>(t.out.area()) * 2);
    for (int y = t.out.y0; y < t.out.y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * map_.pitch;
      for (int x = t.out.x0; x < t.out.x1; ++x)
        tm.push_back(map_.src_x[row + x]);
    }
    for (int y = t.out.y0; y < t.out.y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * map_.pitch;
      for (int x = t.out.x0; x < t.out.x1; ++x)
        tm.push_back(map_.src_y[row + x]);
    }
    tile_maps_.push_back(std::move(tm));
  }
}

par::Rect CellLikePlatform::grid_rect(par::Rect out) const noexcept {
  // Entries at cells [x>>shift, (x-1 of end)>>shift + 1] inclusive feed the
  // bilinear reconstruction of every pixel in `out`.
  const int shift = cmap_->shift();
  return {out.x0 >> shift, out.y0 >> shift, ((out.x1 - 1) >> shift) + 2,
          ((out.y1 - 1) >> shift) + 2};
}

std::size_t CellLikePlatform::map_slice_bytes(par::Rect out) const noexcept {
  if (cmap_)
    return static_cast<std::size_t>(grid_rect(out).area()) * 2 *
           sizeof(std::int32_t);
  return static_cast<std::size_t>(out.area()) * 2 * sizeof(float);
}

std::size_t CellLikePlatform::working_set(par::Rect out,
                                          par::Rect src_box) const noexcept {
  const std::size_t out_px = static_cast<std::size_t>(out.area());
  const std::size_t map_bytes = map_slice_bytes(out);
  const std::size_t out_bytes = out_px * static_cast<std::size_t>(channels_);
  const std::size_t src_bytes =
      src_box.empty() ? 0
                      : static_cast<std::size_t>(src_box.area()) *
                            static_cast<std::size_t>(channels_);
  const std::size_t buffers = map_bytes + out_bytes + src_bytes;
  // Double buffering keeps two complete buffer sets resident.
  return config_.double_buffering ? 2 * buffers : buffers;
}

void CellLikePlatform::decompose(par::Rect rect, int depth) {
  const par::Rect box =
      cmap_ ? core::source_bbox(*cmap_, rect)
            : core::source_bbox(map_, rect, src_width_, src_height_);
  const std::size_t ws = working_set(rect, box);
  // Keep ~2 KB headroom for code/stack the way a real SPE budget would.
  const std::size_t budget = config_.local_store_bytes - 2048;
  if (ws <= budget || rect.area() <= 64) {
    if (ws > budget)
      throw ResourceError(
          "SPE tile irreducible: working set " + std::to_string(ws) +
          " B exceeds local store budget " + std::to_string(budget) + " B");
    // Count pixels whose bilinear footprint touches the source: the SPE
    // kernel runs the full gather for those and a cheap fill store for the
    // rest, so the cost model needs the split.
    std::size_t valid = 0;
    if (cmap_) {
      for (int y = rect.y0; y < rect.y1; ++y)
        for (int x = rect.x0; x < rect.x1; ++x)
          valid += core::compact_entry_valid(
                       *cmap_, core::reconstruct_entry(*cmap_, x, y))
                       ? 1
                       : 0;
    } else {
      for (int y = rect.y0; y < rect.y1; ++y) {
        const std::size_t row = static_cast<std::size_t>(y) * map_.pitch;
        for (int x = rect.x0; x < rect.x1; ++x) {
          const float sx = map_.src_x[row + x];
          const float sy = map_.src_y[row + x];
          valid += (sx > -1.0f && sy > -1.0f &&
                    sx < static_cast<float>(src_width_) &&
                    sy < static_cast<float>(src_height_))
                       ? 1
                       : 0;
        }
      }
    }
    tiles_.push_back({rect, box, ws, valid, depth > 0});
    return;
  }
  FE_EXPECTS(depth < 16);
  // Split along the longer output dimension; halving the output roughly
  // halves the source window too (the map is smooth).
  par::Rect a = rect, b = rect;
  if (rect.width() >= rect.height()) {
    const int mid = rect.x0 + rect.width() / 2;
    a.x1 = mid;
    b.x0 = mid;
  } else {
    const int mid = rect.y0 + rect.height() / 2;
    a.y1 = mid;
    b.y0 = mid;
  }
  decompose(a, depth + 1);
  decompose(b, depth + 1);
}

CellLikePlatform::TileCost CellLikePlatform::tile_cost(
    const SpeTile& tile) const noexcept {
  const SpeCostModel& c = config_.cost;
  TileCost tc;
  const auto out_px = static_cast<double>(tile.out.area());
  const auto ch = static_cast<double>(channels_);

  const std::size_t map_bytes = map_slice_bytes(tile.out);
  const std::size_t src_bytes =
      tile.src_box.empty() ? 0
                           : static_cast<std::size_t>(tile.src_box.area()) *
                                 static_cast<std::size_t>(channels_);
  const std::size_t out_bytes =
      static_cast<std::size_t>(tile.out.area()) *
      static_cast<std::size_t>(channels_);

  // get(map) + get(src): two MFC commands.
  tc.dma_in = c.dispatch_cycles_per_tile + c.dma_latency_cycles +
              static_cast<double>(map_bytes) / c.dma_bytes_per_cycle;
  if (src_bytes > 0)
    tc.dma_in += c.dma_latency_cycles +
                 static_cast<double>(src_bytes) / c.dma_bytes_per_cycle;

  // Valid pixels run the full gather kernel; fill pixels stream a constant
  // (~1 cycle / pixel / channel). Compact maps add a per-pixel coordinate
  // reconstruction before the validity test can cull anything.
  const auto valid = static_cast<double>(tile.valid_px);
  tc.compute = valid * ch * c.cycles_per_pixel + (out_px - valid) * ch;
  if (cmap_) tc.compute += out_px * c.compact_cycles_per_pixel;

  tc.dma_out = c.dma_latency_cycles +
               static_cast<double>(out_bytes) / c.dma_bytes_per_cycle;
  return tc;
}

std::size_t CellLikePlatform::peak_working_set() const noexcept {
  std::size_t peak = 0;
  for (const SpeTile& t : tiles_) peak = std::max(peak, t.working_set_bytes);
  return peak;
}

std::vector<double> CellLikePlatform::tile_seconds() const {
  std::vector<double> out;
  out.reserve(tiles_.size());
  for (const SpeTile& t : tiles_) {
    const TileCost c = tile_cost(t);
    out.push_back((c.dma_in + c.compute + c.dma_out) /
                  config_.cost.clock_hz);
  }
  return out;
}

AccelFrameStats CellLikePlatform::run_frame(
    img::ConstImageView<std::uint8_t> src, img::ImageView<std::uint8_t> dst,
    std::uint8_t fill) {
  FE_EXPECTS(src.width == src_width_ && src.height == src_height_);
  FE_EXPECTS(dst.width == out_width_ && dst.height == out_height_);
  FE_EXPECTS(src.channels == channels_ && dst.channels == channels_);

  AccelFrameStats stats;
  stats.tiles = tiles_.size();

  // The SPE "program" is not written here: the compute kernel comes from
  // the registry (core/kernel.hpp), resolved once per frame — the same
  // windowed function object the CPU backends run. This simulator owns
  // only the DMA, local-store, and scheduling model around it.
  core::ExecContext kctx;
  kctx.src = src;
  kctx.dst = dst;
  kctx.map = map_;
  kctx.compact = cmap_;
  kctx.mode = cmap_ ? core::MapMode::CompactLut : core::MapMode::FloatLut;
  kctx.opts = {core::Interp::Bilinear, img::BorderMode::Constant, fill};
  const core::ResolvedKernel kernel = core::resolve_kernel(kctx);

  // --- scheduling: greedy earliest-finish assignment of tiles to SPEs ---
  const int n_spes = config_.num_spes;
  struct Lane {
    // Three-stage pipeline clocks (double buffering) or serial clock.
    double in_done = 0.0;
    double in_done_prev = 0.0;    // in_done of tile k-1 on this lane
    double comp_done = 0.0;
    double comp_done_prev = 0.0;  // comp_done of tile k-1
    double out_done = 0.0;
    double busy_compute = 0.0;
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(n_spes));

  const SpeCostModel& c = config_.cost;
  LocalStore store(config_.local_store_bytes);

  // Dispatch order and lane choice per the configured policy.
  std::vector<std::size_t> order(tiles_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (config_.schedule == TileSchedule::Lpt) {
    std::vector<double> total(tiles_.size());
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      const TileCost tc = tile_cost(tiles_[i]);
      total[i] = tc.dma_in + tc.compute + tc.dma_out;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return total[a] > total[b]; });
  }

  // Steal policy state: each SPE starts with a contiguous run of the
  // Morton-ordered (by source-bbox centroid) tile sequence, split by
  // modeled cost, as positions [lo, hi) of `morder`; an SPE whose run is
  // exhausted takes the TAIL half of the most loaded SPE's remaining run —
  // the far end of the victim's traversal, as par::TileRange steals. Runs
  // are consumed front-first so each SPE walks source-adjacent tiles
  // (docs/modeling.md).
  struct Run {
    std::size_t lo = 0, hi = 0;
  };
  std::vector<std::uint32_t> morder;
  std::vector<Run> runs;
  if (config_.schedule == TileSchedule::Steal) {
    std::vector<par::Rect> keys;
    keys.reserve(tiles_.size());
    for (const SpeTile& t : tiles_) keys.push_back(t.src_box);
    morder = par::morton_order(keys);
    std::vector<double> total(tiles_.size());
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      const TileCost tc = tile_cost(tiles_[i]);
      total[i] = tc.dma_in + tc.compute + tc.dma_out;
    }
    const std::vector<std::size_t> cuts = par::balanced_runs(
        morder.size(), static_cast<unsigned>(n_spes),
        [&](std::size_t i) { return total[morder[i]]; });
    for (std::size_t w = 0; w < lanes.size(); ++w)
      runs.push_back({cuts[w], cuts[w + 1]});
  }

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    // Pick the lane and the tile per policy.
    std::size_t best = 0;
    std::size_t t = order[idx];
    if (config_.schedule == TileSchedule::RoundRobin) {
      best = idx % lanes.size();
    } else {
      // GreedyEft, Lpt, Steal: the lane that frees earliest goes next.
      for (std::size_t l = 1; l < lanes.size(); ++l)
        if (lanes[l].out_done < lanes[best].out_done) best = l;
    }
    if (config_.schedule == TileSchedule::Steal) {
      if (runs[best].lo == runs[best].hi) {
        // Run exhausted: steal the tail half of the largest remaining run.
        std::size_t victim = lanes.size();
        std::size_t victim_rem = 0;
        for (std::size_t v = 0; v < lanes.size(); ++v) {
          const std::size_t rem = runs[v].hi - runs[v].lo;
          if (rem > victim_rem) {
            victim = v;
            victim_rem = rem;
          }
        }
        FE_EXPECTS(victim < lanes.size());  // idx < total => work remains
        const std::size_t take = (victim_rem + 1) / 2;
        runs[best] = {runs[victim].hi - take, runs[victim].hi};
        runs[victim].hi -= take;
        ++stats.steals;
      }
      t = morder[runs[best].lo++];
    }
    const SpeTile& tile = tiles_[t];
    const TileCost tc = tile_cost(tile);
    stats.tile_splits += tile.split ? 1 : 0;
    Lane& lane = lanes[best];

    if (config_.double_buffering) {
      // DMA-in of tile k may start once the input buffer of tile k-2 is
      // free, i.e. after compute of k-2 finished (two buffer sets).
      const double in_start = std::max(lane.in_done, lane.comp_done_prev);
      const double in_done = in_start + tc.dma_in;
      const double comp_start = std::max(lane.comp_done, in_done);
      const double comp_done = comp_start + tc.compute;
      const double out_done = std::max(lane.out_done, comp_done) + tc.dma_out;
      lane.comp_done_prev = lane.comp_done;
      lane.in_done_prev = lane.in_done;
      lane.in_done = in_done;
      lane.comp_done = comp_done;
      lane.out_done = out_done;
    } else {
      // Strictly serial: get, compute, put.
      lane.out_done += tc.dma_in + tc.compute + tc.dma_out;
      lane.in_done = lane.comp_done = lane.out_done;
    }
    lane.busy_compute += tc.compute;
    stats.compute_cycles += tc.compute;

    // --- functional execution through the local store ---
    store.reset();
    const std::size_t out_px = static_cast<std::size_t>(tile.out.area());
    const std::size_t map_bytes = map_slice_bytes(tile.out);
    std::uint8_t* map_local = store.allocate(map_bytes);
    dma_get_linear(cmap_ ? static_cast<const void*>(tile_grids_[t].data())
                         : static_cast<const void*>(tile_maps_[t].data()),
                   map_bytes, map_local, map_bytes);

    std::uint8_t* out_local = store.allocate(out_px * channels_);
    const int tw = tile.out.width();
    const int th = tile.out.height();

    if (tile.src_box.empty()) {
      std::fill_n(out_local, out_px * channels_, fill);
    } else {
      const std::size_t src_bytes =
          static_cast<std::size_t>(tile.src_box.area()) *
          static_cast<std::size_t>(channels_);
      std::uint8_t* src_local = store.allocate(src_bytes);
      dma_get_rect(src, tile.src_box, src_local, src_bytes);
      stats.bytes_in += src_bytes;

      const int win_w = tile.src_box.width();
      const int win_h = tile.src_box.height();
      const std::size_t win_pitch =
          static_cast<std::size_t>(win_w) * channels_;

      // Registry kernel over the DMA'd window: the source bbox covers
      // every in-frame tap of the tile's pixels, so sampling the window
      // with constant fill is bit-exact with full-frame execution.
      const img::ConstImageView<std::uint8_t> window(src_local, win_w, win_h,
                                                     channels_, win_pitch);
      kernel.run_windowed(window, dst, tile.out, tile.src_box.x0,
                          tile.src_box.y0);
      // Mirror the freshly computed rect into the local output buffer so
      // the DMA-put below transfers exactly what the SPE would hold.
      for (int yy = 0; yy < th; ++yy)
        std::memcpy(
            out_local + static_cast<std::size_t>(yy) * tw * channels_,
            dst.row(tile.out.y0 + yy) +
                static_cast<std::size_t>(tile.out.x0) * channels_,
            static_cast<std::size_t>(tw) * channels_);
    }
    dma_put_rect(out_local, dst, tile.out);
    stats.bytes_in += map_bytes;
    stats.bytes_out += out_px * channels_;
  }

  // Frame time: the slowest lane, bounded below by shared memory bandwidth.
  double pipeline_cycles = 0.0;
  double busiest = 0.0;
  for (const Lane& l : lanes) {
    pipeline_cycles = std::max(pipeline_cycles, l.out_done);
    busiest = std::max(busiest, l.busy_compute);
  }
  const double bw_cycles =
      static_cast<double>(stats.bytes_in + stats.bytes_out) /
      c.shared_memory_bytes_per_cycle;
  stats.cycles = std::max(pipeline_cycles, bw_cycles);
  stats.seconds = stats.cycles / c.clock_hz;
  stats.fps = stats.seconds > 0.0 ? 1.0 / stats.seconds : 0.0;
  stats.utilization =
      stats.cycles > 0.0
          ? stats.compute_cycles /
                (static_cast<double>(config_.num_spes) * stats.cycles)
          : 0.0;
  FE_ENSURES(store.peak() <= config_.local_store_bytes);
  return stats;
}

}  // namespace fisheye::accel

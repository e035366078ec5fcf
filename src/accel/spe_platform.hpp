// Cell-BE-style accelerator platform simulator.
//
// Programming model reproduced faithfully:
//  * the frame is decomposed into output tiles;
//  * a tile's working set (its map entries, its source bounding box, its
//    output buffer) must fit in the SPE's 256 KB local store — tiles whose
//    source window is too large (edge tiles of a 180-degree map pull wide
//    arcs of the source) are recursively split;
//  * per tile: DMA-get map + source window, compute (bilinear remap with
//    constant fill), DMA-put the output tile;
//  * with a compact map only the tile's slice of the stride x stride
//    coordinate grid is DMA'd; the SPE reconstructs per-pixel coordinates
//    in fixed point, shrinking per-tile map traffic by ~stride^2 and
//    letting much larger output tiles fit the local store;
//  * tiles are dispatched across N SPEs; with double buffering the DMA of
//    tile k+1 overlaps the compute of tile k (three-stage pipeline with two
//    input/output buffer sets).
//
// Execution is functional (the output image is produced through real DMA
// copies into a real capacity-checked LocalStore) and timed analytically
// with SpeCostModel, so correctness is host-testable and the reported fps
// reflects the modeled hardware, not this container.
#pragma once

#include <vector>

#include "accel/cost_model.hpp"
#include "accel/local_store.hpp"
#include "core/mapping.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"

namespace fisheye::accel {

/// How tiles are assigned to SPEs (the PPE-side scheduling policy).
enum class TileSchedule {
  RoundRobin,  ///< static cyclic assignment (no cost knowledge)
  GreedyEft,   ///< earliest-finish-time, tiles in raster order (work queue)
  Lpt,         ///< longest-processing-time-first: sort by cost, then EFT
  Steal,       ///< per-SPE runs of Morton-ordered tiles; idle SPEs steal
               ///< the tail half of the most loaded SPE's remaining run
};

[[nodiscard]] constexpr const char* tile_schedule_name(TileSchedule s) noexcept {
  switch (s) {
    case TileSchedule::RoundRobin: return "round-robin";
    case TileSchedule::GreedyEft: return "greedy-eft";
    case TileSchedule::Lpt: return "lpt";
    case TileSchedule::Steal: return "steal";
  }
  return "?";
}

struct SpeConfig {
  int num_spes = 8;
  std::size_t local_store_bytes = 256 * 1024;
  bool double_buffering = true;
  /// Initial output tile size; tiles split automatically if the working set
  /// exceeds the local store.
  int tile_w = 128;
  int tile_h = 32;
  TileSchedule schedule = TileSchedule::GreedyEft;
  SpeCostModel cost;
};

/// Per-tile record after decomposition (exposed for tests and F6).
struct SpeTile {
  par::Rect out;        ///< output rectangle
  par::Rect src_box;    ///< source bounding box (may be empty)
  std::size_t working_set_bytes = 0;
  std::size_t valid_px = 0;  ///< pixels that sample the source (vs fill)
  bool split = false;   ///< produced by splitting an oversized tile
};

class CellLikePlatform {
 public:
  /// Decomposes the frame and reorganizes `map` into tile-contiguous
  /// layout (the one-time setup a real port performs). The map `map` views
  /// must outlive the platform. Channels is the pixel channel count frames
  /// will have.
  CellLikePlatform(core::MapView map, int src_width, int src_height,
                   int channels, const SpeConfig& config);

  /// Compact-map variant: tiles carry stride x stride grid slices instead
  /// of per-pixel entries and the SPE kernel reconstructs coordinates on
  /// the fly (bit-exact with core::remap_compact_rect). `map` must outlive
  /// the platform; source dimensions come from the map.
  CellLikePlatform(const core::CompactMap& map, int channels,
                   const SpeConfig& config);

  /// Simulate one frame: produces `dst` functionally and returns the
  /// modeled timing. Bilinear + constant border (the hardware kernel).
  AccelFrameStats run_frame(img::ConstImageView<std::uint8_t> src,
                            img::ImageView<std::uint8_t> dst,
                            std::uint8_t fill);

  [[nodiscard]] const std::vector<SpeTile>& tiles() const noexcept {
    return tiles_;
  }
  [[nodiscard]] const SpeConfig& config() const noexcept { return config_; }

  /// Largest local-store occupancy over all tiles (bytes), including the
  /// double-buffer factor. Always <= local_store_bytes by construction.
  [[nodiscard]] std::size_t peak_working_set() const noexcept;

  /// Modeled seconds per tile (DMA-in + compute + DMA-out at clock_hz),
  /// indexed like tiles(); fills the ExecutionPlan instrumentation slots.
  [[nodiscard]] std::vector<double> tile_seconds() const;

 private:
  struct TileCost {
    double dma_in = 0.0;
    double compute = 0.0;
    double dma_out = 0.0;
  };

  void init();
  void decompose(par::Rect rect, int depth);
  [[nodiscard]] std::size_t working_set(par::Rect out,
                                        par::Rect src_box) const noexcept;
  [[nodiscard]] TileCost tile_cost(const SpeTile& tile) const noexcept;
  /// Grid cells (exclusive bounds) whose entries the compact kernel reads
  /// for output rect `out`. Compact mode only.
  [[nodiscard]] par::Rect grid_rect(par::Rect out) const noexcept;
  /// Bytes of map data DMA'd per tile: per-pixel floats (float mode) or
  /// the grid slice (compact mode).
  [[nodiscard]] std::size_t map_slice_bytes(par::Rect out) const noexcept;

  core::MapView map_;                   ///< float mode; empty in compact mode
  const core::CompactMap* cmap_;        ///< compact mode; null in float mode
  int out_width_;
  int out_height_;
  int src_width_;
  int src_height_;
  int channels_;
  SpeConfig config_;
  std::vector<SpeTile> tiles_;
  /// Tile-contiguous map copy: for tile t, tile_maps_[t] holds src_x for
  /// all its pixels row-major, then src_y. Float mode only.
  std::vector<std::vector<float>> tile_maps_;
  /// Compact mode: per tile, the grid_rect() slice of gx row-major, then gy.
  std::vector<std::vector<std::int32_t>> tile_grids_;
};

}  // namespace fisheye::accel

// Warp maps: the per-output-pixel source coordinates that drive remapping.
//
// Three representations, matching the execution strategies the study
// compares (F3/F9/F20):
//  * WarpMap     — float32 source coordinates in structure-of-arrays layout
//                  (SIMD-friendly; generated once per configuration). Plans,
//                  kernels and plan-time readers take a MapView of it: the
//                  whole map, or a window read in place at the map's pitch.
//  * PackedMap   — fixed-point Q(31-frac).frac coordinates in one int32 pair
//                  per pixel, the format a LUT-driven hardware datapath
//                  streams; invalid (out-of-source) pixels are a sentinel.
//  * CompactMap  — fixed-point coordinates subsampled on a stride×stride
//                  grid; per-pixel coordinates are reconstructed at remap
//                  time by integer bilinear interpolation of the four
//                  surrounding grid entries. Cuts map traffic ~stride² for
//                  smooth warps at a bounded (and stored) reconstruction
//                  error.
//
// Generation is exact double-precision math regardless of representation.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/camera.hpp"
#include "core/projection.hpp"
#include "parallel/partition.hpp"
#include "util/aligned.hpp"

namespace fisheye::core {

class BrownConrady;

namespace detail {
/// Monotonic process-wide counter stamped into every new map. Plan caches
/// key on (pointer, generation, dims): a pointer compare alone mis-hits
/// when a rebuilt map lands at a freed map's address.
std::uint64_t next_map_generation() noexcept;
}  // namespace detail

struct WarpMap;

/// Non-owning, read-only view of a float warp map or of a rectangular
/// window of one. Entry (x, y) sits at src_x[y * pitch + x]: a window keeps
/// its owner's row pitch, so a plan over part of a larger table reads it in
/// place instead of copying it out. The owner must outlive every view of
/// it. `generation` is the owner's, so plan keys — (first entry, generation,
/// dims, pitch) — never alias a rebuilt map.
struct MapView {
  const float* src_x = nullptr;  ///< source x of entry (0, 0)
  const float* src_y = nullptr;  ///< source y of entry (0, 0)
  int width = 0;
  int height = 0;
  std::size_t pitch = 0;  ///< floats from one row to the next (>= width)
  std::uint64_t generation = 0;

  MapView() = default;
  /// The whole of `map`. Implicit, so a WarpMap passes wherever a view is
  /// taken; a temporary would leave the view dangling, hence the deleted
  /// rvalue form.
  MapView(const WarpMap& map) noexcept;  // NOLINT(google-explicit-constructor)
  MapView(const WarpMap&&) = delete;

  /// True for a default-constructed view (no map).
  [[nodiscard]] bool empty() const noexcept { return src_x == nullptr; }
  [[nodiscard]] std::size_t index(int x, int y) const noexcept {
    return static_cast<std::size_t>(y) * pitch + x;
  }
  [[nodiscard]] std::size_t pixel_count() const noexcept {
    return static_cast<std::size_t>(width) * height;
  }
  /// The entries of `r`, which must lie inside this view: same pitch and
  /// generation, first entry at (r.x0, r.y0).
  [[nodiscard]] MapView window(par::Rect r) const;
};

/// Float warp map (SoA). Entry (x, y) gives the *source* pixel sampled by
/// output pixel (x, y); entries may lie outside the source image — border
/// policy is applied at remap time.
struct WarpMap {
  /// Plane storage: a 1080p plane (7.9 MiB) is mapped from the kernel and
  /// unmapped on free (see util/aligned.hpp).
  using Plane = std::vector<float, util::LargeAllocator<float>>;

  int width = 0;
  int height = 0;
  Plane src_x;  ///< width*height, row-major
  Plane src_y;
  /// Identity stamp for plan caches; fresh per constructed map, carried
  /// along by copies/moves (a copy is the same logical map).
  std::uint64_t generation = detail::next_map_generation();

  [[nodiscard]] std::size_t index(int x, int y) const noexcept {
    return static_cast<std::size_t>(y) * width + x;
  }
  [[nodiscard]] std::size_t pixel_count() const noexcept {
    return static_cast<std::size_t>(width) * height;
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return pixel_count() * 2 * sizeof(float);
  }
  /// A view of the whole map; not on a temporary (it would dangle).
  [[nodiscard]] MapView view() const& noexcept { return *this; }
  MapView view() const&& = delete;
};

inline MapView::MapView(const WarpMap& map) noexcept
    : src_x(map.src_x.data()),
      src_y(map.src_y.data()),
      width(map.width),
      height(map.height),
      pitch(static_cast<std::size_t>(map.width)),
      generation(map.generation) {}

/// Fixed-point packed map; `frac_bits` fractional bits per coordinate.
struct PackedMap {
  static constexpr std::int32_t kInvalid =
      std::numeric_limits<std::int32_t>::min();

  int width = 0;
  int height = 0;
  int frac_bits = 14;
  std::vector<std::int32_t> fx;  ///< fixed-point source x, or kInvalid
  std::vector<std::int32_t> fy;
  std::uint64_t generation = detail::next_map_generation();

  [[nodiscard]] std::size_t index(int x, int y) const noexcept {
    return static_cast<std::size_t>(y) * width + x;
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return static_cast<std::size_t>(width) * height * 2 * sizeof(std::int32_t);
  }
};

/// Block-subsampled fixed-point map. Grid entry (gx, gy) holds the
/// quantized source coordinate of output pixel (gx*stride, gy*stride); the
/// trailing grid line past each image edge is linearly extrapolated so
/// every output pixel has four surrounding entries. Entries are *not*
/// validity-tested at build time (a sentinel would wreck interpolation
/// across the valid/invalid boundary); far-outside coordinates saturate to
/// ±kCoordLimitPx and the remap kernel re-tests reconstructed coordinates
/// against the source bounds, matching pack_map's validity rule.
struct CompactMap {
  /// Saturation bound for stored coordinates, in source pixels. Fits int32
  /// at frac_bits <= 16 and keeps the int64 interpolation accumulator far
  /// from overflow, while staying comfortably outside any real image.
  static constexpr double kCoordLimitPx = 30000.0;

  int width = 0;   ///< full-resolution output dims the map reconstructs
  int height = 0;
  int stride = 8;     ///< grid pitch in output pixels; power of two
  int frac_bits = 14; ///< fractional bits per stored coordinate
  int grid_w = 0;  ///< (width - 1) / stride + 2; last column extrapolated
  int grid_h = 0;
  int src_width = 0;  ///< source bounds the reconstruction is tested against
  int src_height = 0;
  std::vector<std::int32_t> gx;  ///< grid_w*grid_h, row-major
  std::vector<std::int32_t> gy;
  /// Max / mean per-axis reconstruction error vs the full WarpMap, in
  /// source pixels, measured over source-valid output pixels at build time.
  float max_error = 0.0f;
  float mean_error = 0.0f;
  std::uint64_t generation = detail::next_map_generation();

  [[nodiscard]] std::size_t index(int cx, int cy) const noexcept {
    return static_cast<std::size_t>(cy) * grid_w + cx;
  }
  [[nodiscard]] std::size_t pixel_count() const noexcept {
    return static_cast<std::size_t>(width) * height;
  }
  /// Bytes the remap kernel actually streams: the grid, not the frame.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return static_cast<std::size_t>(grid_w) * grid_h * 2 *
           sizeof(std::int32_t);
  }
  /// log2(stride); stride is validated to be a power of two at build.
  [[nodiscard]] int shift() const noexcept {
    int s = 0;
    while ((1 << s) < stride) ++s;
    return s;
  }
};

/// Reconstruct the fixed-point source coordinate of output pixel (x, y) by
/// integer bilinear interpolation of the four surrounding grid entries.
/// Exact (returns the stored entry) when stride == 1.
struct CompactEntry {
  std::int32_t fx = 0;
  std::int32_t fy = 0;
};
[[nodiscard]] inline CompactEntry reconstruct_entry(const CompactMap& m,
                                                    int x, int y) noexcept {
  const int shift = m.shift();
  const int mask = m.stride - 1;
  const int cx = x >> shift, tx = x & mask;
  const int cy = y >> shift, ty = y & mask;
  const std::size_t i00 = m.index(cx, cy);
  const std::size_t i10 = i00 + 1;
  const std::size_t i01 = i00 + m.grid_w;
  const std::size_t i11 = i01 + 1;
  const std::int64_t s = m.stride;
  const std::int64_t w00 = (s - tx) * (s - ty), w10 = tx * (s - ty);
  const std::int64_t w01 = (s - tx) * ty, w11 = std::int64_t{tx} * ty;
  const int rshift = 2 * shift;
  const std::int64_t half = rshift > 0 ? (std::int64_t{1} << (rshift - 1)) : 0;
  CompactEntry e;
  e.fx = static_cast<std::int32_t>(
      (m.gx[i00] * w00 + m.gx[i10] * w10 + m.gx[i01] * w01 + m.gx[i11] * w11 +
       half) >> rshift);
  e.fy = static_cast<std::int32_t>(
      (m.gy[i00] * w00 + m.gy[i10] * w10 + m.gy[i01] * w01 + m.gy[i11] * w11 +
       half) >> rshift);
  return e;
}

/// True when the reconstructed coordinate's bilinear footprint intersects
/// the source image — the same rule pack_map applies before quantization.
[[nodiscard]] inline bool compact_entry_valid(const CompactMap& m,
                                              CompactEntry e) noexcept {
  const std::int32_t one = std::int32_t{1} << m.frac_bits;
  return e.fx > -one && e.fy > -one &&
         e.fx < (static_cast<std::int32_t>(m.src_width) << m.frac_bits) &&
         e.fy < (static_cast<std::int32_t>(m.src_height) << m.frac_bits);
}

/// Build the inverse map for correcting `camera`'s distortion into `view`.
/// For every output pixel: ray_for_pixel -> camera.project.
WarpMap build_map(const FisheyeCamera& camera, const ViewProjection& view);

/// Windowed build: the map for output pixels [x0,x1) x [y0,y1) of `view`,
/// bit-exact equal to the corresponding region of build_map(camera, view)
/// (per-pixel evaluation is position-independent, so a window is a crop).
/// The window may extend past the view's nominal dims — the serving layer
/// pads compact-mode windows one stride right/bottom so every grid line the
/// kernels read is sampled rather than extrapolated.
WarpMap build_map_window(const FisheyeCamera& camera,
                         const ViewProjection& view, par::Rect window);

/// Build the *synthesis* map that renders a fisheye image from an ideal
/// pinhole scene: for every fisheye pixel, the scene pixel it sees. Scene
/// camera: focal `scene_focal_px`, principal point at the scene centre.
/// Fisheye rays with theta >= pi/2 (behind the scene plane) are mapped far
/// out of bounds so the border policy blanks them.
WarpMap build_synthesis_map(const FisheyeCamera& camera, int scene_width,
                            int scene_height, double scene_focal_px,
                            int fisheye_width, int fisheye_height);

/// Build the inverse map the *classical baseline* produces: undistortion via
/// a Brown-Conrady polynomial (T3). Output geometry matches build_map with a
/// PerspectiveView of the same size/focal, but source coordinates come from
/// the polynomial forward model instead of the exact lens equations.
WarpMap build_brown_conrady_map(const BrownConrady& model, double src_cx,
                                double src_cy, const PerspectiveView& view);

/// Quantize a float map into the packed fixed-point form. Coordinates whose
/// bilinear footprint lies fully outside [0,src_w)x[0,src_h) become
/// kInvalid; the remaining ones are clamped into the valid footprint.
PackedMap pack_map(MapView map, int src_width, int src_height,
                   int frac_bits = 14);

/// Subsample a float map onto a stride×stride fixed-point grid. `stride`
/// must be a power of two in [1, 64]. Measures max/mean reconstruction
/// error against `map` over source-valid pixels and stores them in the
/// result. stride == 1 stores every pixel exactly (no reconstruction loss).
CompactMap compact_map(MapView map, int src_width, int src_height,
                       int stride, int frac_bits = 14);

/// Source-space bounding box (in whole pixels, inclusive of the bilinear
/// footprint) touched by output rect `r`; empty() when no valid pixel maps
/// inside the source. Drives accelerator tile DMA.
par::Rect source_bbox(MapView map, par::Rect r, int src_width,
                      int src_height);

/// Compact-map overload: the bbox of *reconstructed* coordinates, so DMA
/// windows match exactly what remap_compact_rect will sample.
par::Rect source_bbox(const CompactMap& map, par::Rect r);

/// Fraction of map entries whose bilinear footprint intersects the source.
double valid_fraction(MapView map, int src_width, int src_height);

/// Compact-map overload, evaluated on reconstructed coordinates.
double valid_fraction(const CompactMap& map);

}  // namespace fisheye::core

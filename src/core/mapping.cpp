#include "core/mapping.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/brown_conrady.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye::core {

namespace detail {

std::uint64_t next_map_generation() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

MapView MapView::window(par::Rect r) const {
  FE_EXPECTS(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width && r.y1 <= height);
  MapView v = *this;
  v.src_x += index(r.x0, r.y0);
  v.src_y += index(r.x0, r.y0);
  v.width = r.width();
  v.height = r.height();
  return v;
}

namespace {

WarpMap alloc_map(int width, int height) {
  FE_EXPECTS(width > 0 && height > 0);
  WarpMap map;
  map.width = width;
  map.height = height;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  return map;
}

// Coordinate far outside any realistic source image; keeps packed-map
// sentinel handling and float bounds tests on a single code path.
constexpr float kFarOutside = -1.0e9f;

}  // namespace

WarpMap build_map(const FisheyeCamera& camera, const ViewProjection& view) {
  WarpMap map = alloc_map(view.width(), view.height());
  for (int y = 0; y < map.height; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.width;
    for (int x = 0; x < map.width; ++x) {
      const util::Vec3 ray = view.ray_for_pixel(
          {static_cast<double>(x), static_cast<double>(y)});
      const util::Vec2 src = camera.project(ray);
      map.src_x[row + x] = static_cast<float>(src.x);
      map.src_y[row + x] = static_cast<float>(src.y);
    }
  }
  return map;
}

WarpMap build_map_window(const FisheyeCamera& camera,
                         const ViewProjection& view, par::Rect window) {
  WarpMap map = alloc_map(window.width(), window.height());
  for (int y = 0; y < map.height; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.width;
    const int vy = window.y0 + y;
    for (int x = 0; x < map.width; ++x) {
      // Absolute view coordinates, cast exactly as build_map casts them, so
      // the window is a bit-exact crop of the full map.
      const util::Vec3 ray = view.ray_for_pixel(
          {static_cast<double>(window.x0 + x), static_cast<double>(vy)});
      const util::Vec2 src = camera.project(ray);
      map.src_x[row + x] = static_cast<float>(src.x);
      map.src_y[row + x] = static_cast<float>(src.y);
    }
  }
  return map;
}

WarpMap build_synthesis_map(const FisheyeCamera& camera, int scene_width,
                            int scene_height, double scene_focal_px,
                            int fisheye_width, int fisheye_height) {
  FE_EXPECTS(scene_width > 0 && scene_height > 0 && scene_focal_px > 0.0);
  WarpMap map = alloc_map(fisheye_width, fisheye_height);
  const double scx = 0.5 * (scene_width - 1);
  const double scy = 0.5 * (scene_height - 1);
  for (int y = 0; y < fisheye_height; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * fisheye_width;
    for (int x = 0; x < fisheye_width; ++x) {
      const util::Vec3 ray = camera.unproject(
          {static_cast<double>(x), static_cast<double>(y)});
      if (ray.z <= 1e-6) {  // at or behind the scene plane
        map.src_x[row + x] = kFarOutside;
        map.src_y[row + x] = kFarOutside;
        continue;
      }
      map.src_x[row + x] =
          static_cast<float>(scx + scene_focal_px * ray.x / ray.z);
      map.src_y[row + x] =
          static_cast<float>(scy + scene_focal_px * ray.y / ray.z);
    }
  }
  return map;
}

WarpMap build_brown_conrady_map(const BrownConrady& model, double src_cx,
                                double src_cy, const PerspectiveView& view) {
  WarpMap map = alloc_map(view.width(), view.height());
  const util::Vec2 centre{src_cx, src_cy};
  const double ocx = 0.5 * (view.width() - 1);
  const double ocy = 0.5 * (view.height() - 1);
  // The classical pipeline treats the output as undistorted pixel
  // coordinates (normalized by the model focal) and pushes them through the
  // polynomial forward model to find where to sample.
  const double scale = model.focal() / view.focal();
  for (int y = 0; y < map.height; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.width;
    for (int x = 0; x < map.width; ++x) {
      const util::Vec2 undist_px{src_cx + (x - ocx) * scale,
                                 src_cy + (y - ocy) * scale};
      const util::Vec2 src = model.distort_pixel(undist_px, centre);
      map.src_x[row + x] = static_cast<float>(src.x);
      map.src_y[row + x] = static_cast<float>(src.y);
    }
  }
  return map;
}

PackedMap pack_map(MapView map, int src_width, int src_height,
                   int frac_bits) {
  FE_EXPECTS(src_width > 0 && src_height > 0);
  FE_EXPECTS(frac_bits >= 1 && frac_bits <= 22);
  PackedMap packed;
  packed.width = map.width;
  packed.height = map.height;
  packed.frac_bits = frac_bits;
  packed.fx.resize(map.pixel_count());
  packed.fy.resize(map.pixel_count());

  const double scale = static_cast<double>(std::int64_t{1} << frac_bits);
  // The packed kernel clamps the bilinear footprint instead of testing it,
  // so coordinates are clamped into [0, dim-1] with the fractional part of
  // edge pixels zeroed; fully-outside pixels become the sentinel.
  for (int y = 0; y < map.height; ++y) {
    for (int x = 0; x < map.width; ++x) {
      const std::size_t i = packed.index(x, y);
      const double sx = map.src_x[map.index(x, y)];
      const double sy = map.src_y[map.index(x, y)];
      const bool outside = sx <= -1.0 || sy <= -1.0 ||
                           sx >= static_cast<double>(src_width) ||
                           sy >= static_cast<double>(src_height);
      if (outside) {
        packed.fx[i] = PackedMap::kInvalid;
        packed.fy[i] = PackedMap::kInvalid;
        continue;
      }
      const double cx = util::clamp(sx, 0.0, src_width - 1.0);
      const double cy = util::clamp(sy, 0.0, src_height - 1.0);
      packed.fx[i] = static_cast<std::int32_t>(std::lround(cx * scale));
      packed.fy[i] = static_cast<std::int32_t>(std::lround(cy * scale));
      // lround can land exactly on (dim-1).0; the kernel's x0+1 access is
      // then clamped there, so no further adjustment is needed.
    }
  }
  return packed;
}

namespace {

// Map value at (px, py) for grid building, clamped to the coordinate
// saturation range. Positions up to one stride past the image edge are
// linearly extrapolated from the last in-range sample and its neighbour,
// so the trailing grid line continues the warp instead of flattening it.
double sample_extrapolated(MapView map, const float* v, int px, int py) {
  const auto clamped = [](double x) {
    return util::clamp(x, -CompactMap::kCoordLimitPx,
                       CompactMap::kCoordLimitPx);
  };
  const int cx = std::min(px, map.width - 1);
  const int cy = std::min(py, map.height - 1);
  double val = clamped(v[map.index(cx, cy)]);
  if (px > cx && map.width > 1)
    val += (px - cx) *
           (clamped(v[map.index(cx, cy)]) - clamped(v[map.index(cx - 1, cy)]));
  if (py > cy && map.height > 1)
    val += (py - cy) *
           (clamped(v[map.index(cx, cy)]) - clamped(v[map.index(cx, cy - 1)]));
  return clamped(val);
}

}  // namespace

CompactMap compact_map(MapView map, int src_width, int src_height,
                       int stride, int frac_bits) {
  FE_EXPECTS(src_width > 0 && src_height > 0);
  FE_EXPECTS(stride >= 1 && stride <= 64 && (stride & (stride - 1)) == 0);
  // frac_bits is capped at 16 (not pack_map's 22) so saturated coordinates
  // still fit int32: kCoordLimitPx << 16 < 2^31.
  FE_EXPECTS(frac_bits >= 1 && frac_bits <= 16);
  CompactMap cm;
  cm.width = map.width;
  cm.height = map.height;
  cm.stride = stride;
  cm.frac_bits = frac_bits;
  cm.grid_w = (map.width - 1) / stride + 2;
  cm.grid_h = (map.height - 1) / stride + 2;
  cm.src_width = src_width;
  cm.src_height = src_height;
  cm.gx.resize(static_cast<std::size_t>(cm.grid_w) * cm.grid_h);
  cm.gy.resize(cm.gx.size());

  const double scale = static_cast<double>(std::int64_t{1} << frac_bits);
  for (int cy = 0; cy < cm.grid_h; ++cy) {
    for (int cx = 0; cx < cm.grid_w; ++cx) {
      const int px = cx * stride;
      const int py = cy * stride;
      cm.gx[cm.index(cx, cy)] = static_cast<std::int32_t>(
          std::lround(sample_extrapolated(map, map.src_x, px, py) * scale));
      cm.gy[cm.index(cx, cy)] = static_cast<std::int32_t>(
          std::lround(sample_extrapolated(map, map.src_y, px, py) * scale));
    }
  }

  // Measure reconstruction error over source-valid pixels (pack_map's
  // validity rule); per-pixel error is the worse of the two axes.
  double max_err = 0.0, sum_err = 0.0;
  std::size_t valid = 0;
  for (int y = 0; y < map.height; ++y) {
    for (int x = 0; x < map.width; ++x) {
      const double sx = map.src_x[map.index(x, y)];
      const double sy = map.src_y[map.index(x, y)];
      if (sx <= -1.0 || sy <= -1.0 || sx >= static_cast<double>(src_width) ||
          sy >= static_cast<double>(src_height))
        continue;
      const CompactEntry e = reconstruct_entry(cm, x, y);
      const double err = std::max(std::abs(e.fx / scale - sx),
                                  std::abs(e.fy / scale - sy));
      max_err = std::max(max_err, err);
      sum_err += err;
      ++valid;
    }
  }
  cm.max_error = static_cast<float>(max_err);
  cm.mean_error =
      valid > 0 ? static_cast<float>(sum_err / static_cast<double>(valid))
                : 0.0f;
  return cm;
}

par::Rect source_bbox(MapView map, par::Rect r, int src_width,
                      int src_height) {
  FE_EXPECTS(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= map.width &&
             r.y1 <= map.height);
  float min_x = std::numeric_limits<float>::max();
  float min_y = std::numeric_limits<float>::max();
  float max_x = std::numeric_limits<float>::lowest();
  float max_y = std::numeric_limits<float>::lowest();
  bool any = false;
  for (int y = r.y0; y < r.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.pitch;
    for (int x = r.x0; x < r.x1; ++x) {
      const float sx = map.src_x[row + x];
      const float sy = map.src_y[row + x];
      if (sx <= -1.0f || sy <= -1.0f || sx >= static_cast<float>(src_width) ||
          sy >= static_cast<float>(src_height))
        continue;
      any = true;
      min_x = std::min(min_x, sx);
      min_y = std::min(min_y, sy);
      max_x = std::max(max_x, sx);
      max_y = std::max(max_y, sy);
    }
  }
  if (!any) return {};
  // Expand to the bilinear footprint and clamp to the source.
  par::Rect box;
  box.x0 = std::max(0, static_cast<int>(std::floor(min_x)));
  box.y0 = std::max(0, static_cast<int>(std::floor(min_y)));
  box.x1 = std::min(src_width, static_cast<int>(std::floor(max_x)) + 2);
  box.y1 = std::min(src_height, static_cast<int>(std::floor(max_y)) + 2);
  return box;
}

double valid_fraction(MapView map, int src_width, int src_height) {
  std::size_t valid = 0;
  for (int y = 0; y < map.height; ++y) {
    for (int x = 0; x < map.width; ++x) {
      const float sx = map.src_x[map.index(x, y)];
      const float sy = map.src_y[map.index(x, y)];
      if (sx > -1.0f && sy > -1.0f && sx < static_cast<float>(src_width) &&
          sy < static_cast<float>(src_height))
        ++valid;
    }
  }
  return static_cast<double>(valid) / static_cast<double>(map.pixel_count());
}

par::Rect source_bbox(const CompactMap& map, par::Rect r) {
  FE_EXPECTS(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= map.width &&
             r.y1 <= map.height);
  if (r.empty()) return {};
  // Reconstruction is a convex combination (plus <=1 fixed-point quantum of
  // rounding) of the grid entries adjacent to the rect, so the entry range
  // bounds every reconstructed coordinate — no per-pixel pass needed.
  const int shift = map.shift();
  const int cx0 = r.x0 >> shift, cx1 = ((r.x1 - 1) >> shift) + 1;
  const int cy0 = r.y0 >> shift, cy1 = ((r.y1 - 1) >> shift) + 1;
  std::int32_t min_gx = std::numeric_limits<std::int32_t>::max();
  std::int32_t min_gy = min_gx;
  std::int32_t max_gx = std::numeric_limits<std::int32_t>::min();
  std::int32_t max_gy = max_gx;
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      const std::size_t i = map.index(cx, cy);
      min_gx = std::min(min_gx, map.gx[i]);
      max_gx = std::max(max_gx, map.gx[i]);
      min_gy = std::min(min_gy, map.gy[i]);
      max_gy = std::max(max_gy, map.gy[i]);
    }
  }
  const double scale = static_cast<double>(std::int64_t{1} << map.frac_bits);
  const double min_x = (min_gx - 1) / scale, max_x = (max_gx + 1) / scale;
  const double min_y = (min_gy - 1) / scale, max_y = (max_gy + 1) / scale;
  // Entirely outside on either axis => no pixel can reconstruct as valid.
  if (max_x <= -1.0 || min_x >= static_cast<double>(map.src_width) ||
      max_y <= -1.0 || min_y >= static_cast<double>(map.src_height))
    return {};
  // The kernel clamps valid coordinates into [0, dim-1] before sampling, so
  // the window of touched source pixels is the clamped range's footprint.
  par::Rect box;
  box.x0 = std::max(0, static_cast<int>(std::floor(min_x)));
  box.y0 = std::max(0, static_cast<int>(std::floor(min_y)));
  box.x1 = std::min(map.src_width,
                    static_cast<int>(std::floor(
                        std::min(max_x, map.src_width - 1.0))) + 2);
  box.y1 = std::min(map.src_height,
                    static_cast<int>(std::floor(
                        std::min(max_y, map.src_height - 1.0))) + 2);
  return box;
}

double valid_fraction(const CompactMap& map) {
  std::size_t valid = 0;
  for (int y = 0; y < map.height; ++y)
    for (int x = 0; x < map.width; ++x)
      if (compact_entry_valid(map, reconstruct_entry(map, x, y))) ++valid;
  return static_cast<double>(valid) / static_cast<double>(map.pixel_count());
}

}  // namespace fisheye::core

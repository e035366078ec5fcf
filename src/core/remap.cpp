#include "core/remap.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye::core {

namespace {

void expect_rect_in(const par::Rect& r, int width, int height) {
  FE_EXPECTS(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width && r.y1 <= height);
  FE_EXPECTS(!r.empty());
}

template <class SampleFn>
void remap_rect_generic(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst, MapView map,
                        par::Rect rect, int src_off_x, int src_off_y,
                        const RemapOptions& opts, SampleFn&& sample_fn) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  expect_rect_in(rect, dst.width, dst.height);

  const auto off_x = static_cast<float>(src_off_x);
  const auto off_y = static_cast<float>(src_off_y);
  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.pitch;
    std::uint8_t* out_row = dst.row(y);
    for (int x = rect.x0; x < rect.x1; ++x) {
      const float sx = map.src_x[row + x] - off_x;
      const float sy = map.src_y[row + x] - off_y;
      sample_fn(src, sx, sy, opts.border, opts.fill,
                out_row + static_cast<std::size_t>(x) * dst.channels);
    }
  }
}

}  // namespace

namespace detail {

void remap_rect_nearest(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst, MapView map,
                        par::Rect rect, int src_off_x, int src_off_y,
                        const RemapOptions& opts) {
  remap_rect_generic(src, dst, map, rect, src_off_x, src_off_y, opts,
                     [](auto&&... args) { sample_nearest(args...); });
}

void remap_rect_bilinear(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst, MapView map,
                         par::Rect rect, int src_off_x, int src_off_y,
                         const RemapOptions& opts) {
  remap_rect_generic(src, dst, map, rect, src_off_x, src_off_y, opts,
                     [](auto&&... args) { sample_bilinear(args...); });
}

void remap_rect_bicubic(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst, MapView map,
                        par::Rect rect, int src_off_x, int src_off_y,
                        const RemapOptions& opts) {
  remap_rect_generic(src, dst, map, rect, src_off_x, src_off_y, opts,
                     [](auto&&... args) { sample_bicubic(args...); });
}

void remap_rect_lanczos3(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst, MapView map,
                         par::Rect rect, int src_off_x, int src_off_y,
                         const RemapOptions& opts) {
  remap_rect_generic(src, dst, map, rect, src_off_x, src_off_y, opts,
                     [](auto&&... args) { sample_lanczos3(args...); });
}

}  // namespace detail

void remap_packed_rect_offset(img::ConstImageView<std::uint8_t> src,
                              img::ImageView<std::uint8_t> dst,
                              const PackedMap& map, par::Rect rect,
                              int src_off_x, int src_off_y, int src_width,
                              int src_height, std::uint8_t fill) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  expect_rect_in(rect, dst.width, dst.height);

  const int frac = map.frac_bits;
  // 8-bit blend weights: top 8 fractional bits (shift up if narrower).
  const int wshift = frac >= 8 ? frac - 8 : 0;
  const int wscale_up = frac >= 8 ? 0 : 8 - frac;
  const std::int32_t frac_mask = (std::int32_t{1} << frac) - 1;
  const int ch = src.channels;

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.width;
    std::uint8_t* out_row = dst.row(y);
    for (int x = rect.x0; x < rect.x1; ++x) {
      const std::int32_t fx = map.fx[row + x];
      std::uint8_t* out = out_row + static_cast<std::size_t>(x) * ch;
      if (fx == PackedMap::kInvalid) {
        for (int c = 0; c < ch; ++c) out[c] = fill;
        continue;
      }
      const std::int32_t fy = map.fy[row + x];
      const int x0 = fx >> frac;
      const int y0 = fy >> frac;
      const int ax = ((fx & frac_mask) >> wshift) << wscale_up;  // 0..256
      const int ay = ((fy & frac_mask) >> wshift) << wscale_up;
      // The +1 taps clamp against the FULL-frame dims the map was packed
      // for, not the window: the edge-pixel behaviour must not depend on
      // how the frame was tiled.
      const int x1 = x0 + 1 < src_width ? x0 + 1 : x0;
      const int y1 = y0 + 1 < src_height ? y0 + 1 : y0;
      const std::uint8_t* r0 = src.row(y0 - src_off_y);
      const std::uint8_t* r1 = src.row(y1 - src_off_y);
      const int lx0 = (x0 - src_off_x) * ch;
      const int lx1 = (x1 - src_off_x) * ch;
      const int w00 = (256 - ax) * (256 - ay);
      const int w10 = ax * (256 - ay);
      const int w01 = (256 - ax) * ay;
      const int w11 = ax * ay;
      for (int c = 0; c < ch; ++c) {
        const int v = w00 * r0[lx0 + c] + w10 * r0[lx1 + c] +
                      w01 * r1[lx0 + c] + w11 * r1[lx1 + c];
        out[c] = static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
      }
    }
  }
}

void remap_packed_rect(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst, const PackedMap& map,
                       par::Rect rect, std::uint8_t fill) {
  remap_packed_rect_offset(src, dst, map, rect, 0, 0, src.width, src.height,
                           fill);
}

void remap_compact_rect_offset(img::ConstImageView<std::uint8_t> src,
                               img::ImageView<std::uint8_t> dst,
                               const CompactMap& map, par::Rect rect,
                               int src_off_x, int src_off_y,
                               std::uint8_t fill) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  expect_rect_in(rect, dst.width, dst.height);

  const int frac = map.frac_bits;
  const int wshift = frac >= 8 ? frac - 8 : 0;
  const int wscale_up = frac >= 8 ? 0 : 8 - frac;
  const std::int32_t frac_mask = (std::int32_t{1} << frac) - 1;
  const int ch = src.channels;

  const int shift = map.shift();
  const int smask = map.stride - 1;
  const std::int64_t s = map.stride;
  const int rshift = 2 * shift;
  const std::int64_t half =
      rshift > 0 ? (std::int64_t{1} << (rshift - 1)) : 0;
  const std::int32_t one = std::int32_t{1} << frac;
  const std::int32_t lim_x = static_cast<std::int32_t>(map.src_width) << frac;
  const std::int32_t lim_y = static_cast<std::int32_t>(map.src_height) << frac;
  const std::int32_t max_fx = lim_x - one;  // (src_width - 1) << frac
  const std::int32_t max_fy = lim_y - one;

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::int64_t ty = y & smask;
    const std::size_t g0 = static_cast<std::size_t>(y >> shift) * map.grid_w;
    const std::size_t g1 = g0 + map.grid_w;
    std::uint8_t* out_row = dst.row(y);
    int x = rect.x0;
    while (x < rect.x1) {
      const int cx = x >> shift;
      const int cell_end = std::min(rect.x1, (cx + 1) << shift);
      // Vertically interpolate the cell's two grid columns (scaled by
      // stride), then walk the row incrementally: each pixel is one add.
      const std::int64_t lx = map.gx[g0 + cx] * (s - ty) + map.gx[g1 + cx] * ty;
      const std::int64_t rx =
          map.gx[g0 + cx + 1] * (s - ty) + map.gx[g1 + cx + 1] * ty;
      const std::int64_t ly = map.gy[g0 + cx] * (s - ty) + map.gy[g1 + cx] * ty;
      const std::int64_t ry =
          map.gy[g0 + cx + 1] * (s - ty) + map.gy[g1 + cx + 1] * ty;
      const std::int64_t step_x = rx - lx;
      const std::int64_t step_y = ry - ly;
      std::int64_t acc_x = lx * s + (x & smask) * step_x;
      std::int64_t acc_y = ly * s + (x & smask) * step_y;
      for (; x < cell_end; ++x, acc_x += step_x, acc_y += step_y) {
        std::int32_t fx = static_cast<std::int32_t>((acc_x + half) >> rshift);
        std::int32_t fy = static_cast<std::int32_t>((acc_y + half) >> rshift);
        std::uint8_t* out = out_row + static_cast<std::size_t>(x) * ch;
        if (fx <= -one || fy <= -one || fx >= lim_x || fy >= lim_y) {
          for (int c = 0; c < ch; ++c) out[c] = fill;
          continue;
        }
        // Clamp into the sampling footprint, as pack_map does at build.
        fx = fx < 0 ? 0 : (fx > max_fx ? max_fx : fx);
        fy = fy < 0 ? 0 : (fy > max_fy ? max_fy : fy);
        const int x0 = fx >> frac;
        const int y0 = fy >> frac;
        const int ax = ((fx & frac_mask) >> wshift) << wscale_up;  // 0..256
        const int ay = ((fy & frac_mask) >> wshift) << wscale_up;
        const int x1 = x0 + 1 < map.src_width ? x0 + 1 : x0;
        const int y1 = y0 + 1 < map.src_height ? y0 + 1 : y0;
        const std::uint8_t* r0 = src.row(y0 - src_off_y);
        const std::uint8_t* r1 = src.row(y1 - src_off_y);
        const int lx0 = (x0 - src_off_x) * ch;
        const int lx1 = (x1 - src_off_x) * ch;
        const int w00 = (256 - ax) * (256 - ay);
        const int w10 = ax * (256 - ay);
        const int w01 = (256 - ax) * ay;
        const int w11 = ax * ay;
        for (int c = 0; c < ch; ++c) {
          const int v = w00 * r0[lx0 + c] + w10 * r0[lx1 + c] +
                        w01 * r1[lx0 + c] + w11 * r1[lx1 + c];
          out[c] = static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
        }
      }
    }
  }
}

void remap_compact_rect(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        const CompactMap& map, par::Rect rect,
                        std::uint8_t fill) {
  FE_EXPECTS(src.width == map.src_width && src.height == map.src_height);
  remap_compact_rect_offset(src, dst, map, rect, 0, 0, fill);
}

namespace {

/// Exact per-pixel inverse mapping (double precision, libm).
util::Vec2 project_exact(const FisheyeCamera& camera,
                         const ViewProjection& view, double x, double y) {
  return camera.project(view.ray_for_pixel({x, y}));
}

/// Fast-math variant: atan2/sin replaced by polynomial approximations.
util::Vec2 project_fast(const FisheyeCamera& camera,
                        const ViewProjection& view, double x, double y) {
  const util::Vec3 ray = view.ray_for_pixel({x, y});
  const double rxy = std::sqrt(ray.x * ray.x + ray.y * ray.y);
  if (rxy == 0.0) return {camera.cx(), camera.cy()};
  double theta = util::fast_atan2(rxy, ray.z);
  const LensModel& lens = camera.lens();
  const double tmax = lens.max_theta();
  double r;
  if (theta <= tmax) {
    r = lens.radius_from_theta(theta);
  } else {
    r = lens.radius_from_theta(tmax) + lens.focal() * (theta - tmax);
  }
  const double inv = r / rxy;
  return {camera.cx() + ray.x * inv, camera.cy() + ray.y * inv};
}

template <class SampleFn>
void remap_otf_generic(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const FisheyeCamera& camera, const ViewProjection& view,
                       par::Rect rect, const RemapOptions& opts,
                       bool fast_math, SampleFn&& sample_fn) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(view.width() == dst.width && view.height() == dst.height);
  expect_rect_in(rect, dst.width, dst.height);

  for (int y = rect.y0; y < rect.y1; ++y) {
    std::uint8_t* out_row = dst.row(y);
    for (int x = rect.x0; x < rect.x1; ++x) {
      const util::Vec2 s =
          fast_math ? project_fast(camera, view, x, y)
                    : project_exact(camera, view, x, y);
      sample_fn(src, static_cast<float>(s.x), static_cast<float>(s.y),
                opts.border, opts.fill,
                out_row + static_cast<std::size_t>(x) * dst.channels);
    }
  }
}

}  // namespace

namespace detail {

void remap_otf_nearest(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const FisheyeCamera& camera, const ViewProjection& view,
                       par::Rect rect, const RemapOptions& opts,
                       bool fast_math) {
  remap_otf_generic(src, dst, camera, view, rect, opts, fast_math,
                    [](auto&&... args) { sample_nearest(args...); });
}

void remap_otf_bilinear(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        const FisheyeCamera& camera,
                        const ViewProjection& view, par::Rect rect,
                        const RemapOptions& opts, bool fast_math) {
  remap_otf_generic(src, dst, camera, view, rect, opts, fast_math,
                    [](auto&&... args) { sample_bilinear(args...); });
}

void remap_otf_bicubic(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const FisheyeCamera& camera, const ViewProjection& view,
                       par::Rect rect, const RemapOptions& opts,
                       bool fast_math) {
  remap_otf_generic(src, dst, camera, view, rect, opts, fast_math,
                    [](auto&&... args) { sample_bicubic(args...); });
}

void remap_otf_lanczos3(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        const FisheyeCamera& camera,
                        const ViewProjection& view, par::Rect rect,
                        const RemapOptions& opts, bool fast_math) {
  remap_otf_generic(src, dst, camera, view, rect, opts, fast_math,
                    [](auto&&... args) { sample_lanczos3(args...); });
}

}  // namespace detail

}  // namespace fisheye::core

#include "core/aa_remap.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye::core {

namespace {

/// Bilinear fetch from one pyramid level in level-0 coordinates; constant
/// fill outside. Writes all channels to out[].
void fetch_level(const img::Image8& level, float sx0, float sy0, int lod,
                 std::uint8_t fill, float* out) {
  // Level-L texel grid: x_L = (x0 + 0.5) / 2^L - 0.5.
  const float scale = 1.0f / static_cast<float>(1 << lod);
  const float sx = (sx0 + 0.5f) * scale - 0.5f;
  const float sy = (sy0 + 0.5f) * scale - 0.5f;
  const float fx = std::floor(sx);
  const float fy = std::floor(sy);
  const int x0 = static_cast<int>(fx);
  const int y0 = static_cast<int>(fy);
  const float ax = sx - fx;
  const float ay = sy - fy;
  const int ch = level.channels();
  auto tap = [&](int xi, int yi, int c) -> float {
    if (xi < 0 || yi < 0 || xi >= level.width() || yi >= level.height())
      return static_cast<float>(fill);
    return static_cast<float>(level.at(xi, yi, c));
  };
  for (int c = 0; c < ch; ++c) {
    out[c] = (1.0f - ax) * (1.0f - ay) * tap(x0, y0, c) +
             ax * (1.0f - ay) * tap(x0 + 1, y0, c) +
             (1.0f - ax) * ay * tap(x0, y0 + 1, c) +
             ax * ay * tap(x0 + 1, y0 + 1, c);
  }
}

inline std::uint8_t round_u8(float v) noexcept {
  const int r = static_cast<int>(v + 0.5f);
  return static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
}

}  // namespace

float map_lod(MapView map, int x, int y, float max_lod) noexcept {
  // Central differences where possible, one-sided at the frame edge.
  const int xm = x > 0 ? x - 1 : x;
  const int xp = x + 1 < map.width ? x + 1 : x;
  const int ym = y > 0 ? y - 1 : y;
  const int yp = y + 1 < map.height ? y + 1 : y;
  const float dx_den = static_cast<float>(xp - xm);
  const float dy_den = static_cast<float>(yp - ym);
  if (dx_den == 0.0f || dy_den == 0.0f) return 0.0f;

  const std::size_t ixm = map.index(xm, y), ixp = map.index(xp, y);
  const std::size_t iym = map.index(x, ym), iyp = map.index(x, yp);
  const float dsx_dx = (map.src_x[ixp] - map.src_x[ixm]) / dx_den;
  const float dsy_dx = (map.src_y[ixp] - map.src_y[ixm]) / dx_den;
  const float dsx_dy = (map.src_x[iyp] - map.src_x[iym]) / dy_den;
  const float dsy_dy = (map.src_y[iyp] - map.src_y[iym]) / dy_den;

  const float fx2 = dsx_dx * dsx_dx + dsy_dx * dsy_dx;
  const float fy2 = dsx_dy * dsx_dy + dsy_dy * dsy_dy;
  const float footprint2 = fx2 > fy2 ? fx2 : fy2;
  if (!(footprint2 > 1.0f)) return 0.0f;  // magnifying or NaN: full res
  const float lod = 0.5f * std::log2(footprint2);
  return lod > max_lod ? max_lod : lod;
}

void remap_aa_rect(const img::Pyramid& pyramid,
                   img::ImageView<std::uint8_t> dst, MapView map,
                   par::Rect rect, std::uint8_t fill) {
  FE_EXPECTS(pyramid.channels() == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  const img::Image8& base = pyramid.level(0);
  const auto max_lod = static_cast<float>(pyramid.levels() - 1);
  const int ch = dst.channels;
  float lo[4], hi[4];

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.pitch;
    std::uint8_t* out_row = dst.row(y);
    for (int x = rect.x0; x < rect.x1; ++x) {
      const float sx = map.src_x[row + x];
      const float sy = map.src_y[row + x];
      std::uint8_t* out = out_row + static_cast<std::size_t>(x) * ch;
      if (sx <= -1.0f || sy <= -1.0f ||
          sx >= static_cast<float>(base.width()) ||
          sy >= static_cast<float>(base.height())) {
        for (int c = 0; c < ch; ++c) out[c] = fill;
        continue;
      }
      const float lod = map_lod(map, x, y, max_lod);
      const int l0 = static_cast<int>(lod);
      const float frac = lod - static_cast<float>(l0);
      fetch_level(pyramid.level(l0), sx, sy, l0, fill, lo);
      if (frac > 0.0f && l0 + 1 < pyramid.levels()) {
        fetch_level(pyramid.level(l0 + 1), sx, sy, l0 + 1, fill, hi);
        for (int c = 0; c < ch; ++c)
          out[c] = round_u8(lo[c] + frac * (hi[c] - lo[c]));
      } else {
        for (int c = 0; c < ch; ++c) out[c] = round_u8(lo[c]);
      }
    }
  }
}

}  // namespace fisheye::core

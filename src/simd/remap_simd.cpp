#include "simd/remap_simd.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace fisheye::simd {

namespace {

inline std::uint8_t round_clamp_u8(float v) noexcept {
  const int r = static_cast<int>(v + 0.5f);
  return static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
}

}  // namespace

void remap_bilinear_soa(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        core::MapView map, par::Rect rect,
                        std::uint8_t fill, SoaScratch& scratch) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  SoaScratch& s = scratch;
  const int ch = src.channels;
  const auto src_w = static_cast<float>(src.width);
  const auto src_h = static_cast<float>(src.height);
  const std::size_t pitch = src.pitch;

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.pitch;
    std::uint8_t* __restrict out_row = dst.row(y);

    for (int xb = rect.x0; xb < rect.x1; xb += kSoaStrip) {
      const int n = std::min(kSoaStrip, rect.x1 - xb);
      const float* __restrict mx = map.src_x + row + xb;
      const float* __restrict my = map.src_y + row + xb;

      // Pass 1: SoA coordinate/weight computation. Branch-free; the
      // interior test folds into a mask, so the loop vectorizes wherever
      // the target has a vector floor (-fno-trapping-math lets GCC convert
      // float to int32 in vector lanes; see src/simd/CMakeLists.txt).
      for (int i = 0; i < n; ++i) {
        const float sx = mx[i];
        const float sy = my[i];
        const float fx = std::floor(sx);
        const float fy = std::floor(sy);
        const float ax = sx - fx;
        const float ay = sy - fy;
        s.x0[i] = static_cast<std::int32_t>(fx);
        s.y0[i] = static_cast<std::int32_t>(fy);
        s.w00[i] = (1.0f - ax) * (1.0f - ay);
        s.w10[i] = ax * (1.0f - ay);
        s.w01[i] = (1.0f - ax) * ay;
        s.w11[i] = ax * ay;
        // Interior-only fast validity: a 1-pixel frame falls back to fill,
        // an acceptable trade the hand-SIMDized kernels of the era made
        // (the image circle never touches the frame for real maps).
        s.valid[i] =
            (fx >= 0.0f) & (fy >= 0.0f) & (fx < src_w - 1.0f) &
            (fy < src_h - 1.0f);
      }

      // Pass 2: gather + blend.
      std::uint8_t* __restrict out = out_row + static_cast<std::size_t>(xb) * ch;
      if (ch == 1) {
        for (int i = 0; i < n; ++i) {
          if (!s.valid[i]) {
            out[i] = fill;
            continue;
          }
          const std::uint8_t* __restrict p =
              src.data + static_cast<std::size_t>(s.y0[i]) * pitch + s.x0[i];
          const float v = s.w00[i] * p[0] + s.w10[i] * p[1] +
                          s.w01[i] * p[pitch] + s.w11[i] * p[pitch + 1];
          out[i] = round_clamp_u8(v);
        }
      } else {
        for (int i = 0; i < n; ++i) {
          std::uint8_t* __restrict o = out + static_cast<std::size_t>(i) * ch;
          if (!s.valid[i]) {
            for (int c = 0; c < ch; ++c) o[c] = fill;
            continue;
          }
          const std::uint8_t* __restrict p =
              src.data + static_cast<std::size_t>(s.y0[i]) * pitch +
              static_cast<std::size_t>(s.x0[i]) * ch;
          for (int c = 0; c < ch; ++c) {
            const float v = s.w00[i] * p[c] + s.w10[i] * p[ch + c] +
                            s.w01[i] * p[pitch + c] +
                            s.w11[i] * p[pitch + ch + c];
            o[c] = round_clamp_u8(v);
          }
        }
      }
    }
  }
}

void remap_compact_soa(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const core::CompactMap& map, par::Rect rect,
                       std::uint8_t fill, SoaScratch& scratch) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(src.width == map.src_width && src.height == map.src_height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  SoaScratch& s = scratch;
  const int ch = src.channels;
  const std::size_t pitch = src.pitch;

  const int frac = map.frac_bits;
  const int wshift = frac >= 8 ? frac - 8 : 0;
  const int wscale_up = frac >= 8 ? 0 : 8 - frac;
  const std::int32_t frac_mask = (std::int32_t{1} << frac) - 1;
  const int shift = map.shift();
  const int smask = map.stride - 1;
  const std::int64_t gs = map.stride;
  const int rshift = 2 * shift;
  const std::int64_t half =
      rshift > 0 ? (std::int64_t{1} << (rshift - 1)) : 0;
  const std::int32_t one = std::int32_t{1} << frac;
  const std::int32_t lim_x = static_cast<std::int32_t>(map.src_width) << frac;
  const std::int32_t lim_y = static_cast<std::int32_t>(map.src_height) << frac;
  const std::int32_t max_fx = lim_x - one;
  const std::int32_t max_fy = lim_y - one;

  const std::int32_t* __restrict grid_x = map.gx.data();
  const std::int32_t* __restrict grid_y = map.gy.data();

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::int64_t ty = y & smask;
    const std::size_t g0 = static_cast<std::size_t>(y >> shift) * map.grid_w;
    const std::size_t g1 = g0 + map.grid_w;
    std::uint8_t* __restrict out_row = dst.row(y);

    for (int xb = rect.x0; xb < rect.x1; xb += kSoaStrip) {
      const int n = std::min(kSoaStrip, rect.x1 - xb);

      // Pass 1: reconstruct + tap/weight computation, SoA. Same integer
      // expressions as the scalar kernel, so outputs match bit-for-bit.
      for (int i = 0; i < n; ++i) {
        const int x = xb + i;
        const int cx = x >> shift;
        const std::int64_t tx = x & smask;
        const std::int64_t lx =
            grid_x[g0 + cx] * (gs - ty) + grid_x[g1 + cx] * ty;
        const std::int64_t rx =
            grid_x[g0 + cx + 1] * (gs - ty) + grid_x[g1 + cx + 1] * ty;
        const std::int64_t ly =
            grid_y[g0 + cx] * (gs - ty) + grid_y[g1 + cx] * ty;
        const std::int64_t ry =
            grid_y[g0 + cx + 1] * (gs - ty) + grid_y[g1 + cx + 1] * ty;
        std::int32_t fx = static_cast<std::int32_t>(
            (lx * gs + tx * (rx - lx) + half) >> rshift);
        std::int32_t fy = static_cast<std::int32_t>(
            (ly * gs + tx * (ry - ly) + half) >> rshift);
        s.valid[i] = (fx > -one) & (fy > -one) & (fx < lim_x) & (fy < lim_y);
        fx = fx < 0 ? 0 : (fx > max_fx ? max_fx : fx);
        fy = fy < 0 ? 0 : (fy > max_fy ? max_fy : fy);
        const std::int32_t ix = fx >> frac;
        const std::int32_t iy = fy >> frac;
        s.x0[i] = ix;
        s.y0[i] = iy;
        s.x1[i] = ix + 1 < map.src_width ? ix + 1 : ix;
        s.y1[i] = iy + 1 < map.src_height ? iy + 1 : iy;
        s.ax[i] = ((fx & frac_mask) >> wshift) << wscale_up;  // 0..256
        s.ay[i] = ((fy & frac_mask) >> wshift) << wscale_up;
      }

      // Pass 2: gather + integer blend.
      std::uint8_t* __restrict out =
          out_row + static_cast<std::size_t>(xb) * ch;
      for (int i = 0; i < n; ++i) {
        std::uint8_t* __restrict o = out + static_cast<std::size_t>(i) * ch;
        if (!s.valid[i]) {
          for (int c = 0; c < ch; ++c) o[c] = fill;
          continue;
        }
        const std::uint8_t* __restrict r0 =
            src.data + static_cast<std::size_t>(s.y0[i]) * pitch;
        const std::uint8_t* __restrict r1 =
            src.data + static_cast<std::size_t>(s.y1[i]) * pitch;
        const int lx0 = s.x0[i] * ch;
        const int lx1 = s.x1[i] * ch;
        const int w00 = (256 - s.ax[i]) * (256 - s.ay[i]);
        const int w10 = s.ax[i] * (256 - s.ay[i]);
        const int w01 = (256 - s.ax[i]) * s.ay[i];
        const int w11 = s.ax[i] * s.ay[i];
        for (int c = 0; c < ch; ++c) {
          const int v = w00 * r0[lx0 + c] + w10 * r0[lx1 + c] +
                        w01 * r1[lx0 + c] + w11 * r1[lx1 + c];
          o[c] = static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
        }
      }
    }
  }
}

}  // namespace fisheye::simd

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

}  // namespace fisheye::simd

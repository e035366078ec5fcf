// AVX2 gather datapath — see remap_gather.hpp for the contract.
//
// Every kernel keeps the two-pass strip structure: pass 1 fills the shared
// SoaScratch, pass 2 gathers eight pixels' taps per iteration with two
// masked dword gathers (the (x0, x0+1) byte pairs of the top and bottom
// tap rows).
//
// Packed and compact maps: pass 1 writes clamped tap coordinates and 0..256
// integer weights, and pass 2 runs the factored 8.8 blend
//   v = (256-ay) * ((256-ax) p00 + ax p10) + ay * ((256-ax) p01 + ax p11)
// in int32 (max 2 * 256 * 255 * 256 < 2^25), rounds half-up and packs to
// bytes. Lanes excluded from the vector path — invalid samples,
// edge-clamped footprints, dword reads that would overrun the buffer's
// last padded row — are finished by the scalar fixup loop over the same
// scratch, so every lane runs the identical integer arithmetic.
//
// Float maps: pass 1 writes sample_bilinear's own floor, tap coordinates,
// float weights and interior test, and pass 2 blends interior lanes with
// its own expression. Every other lane calls core::sample_bilinear itself.
#include "simd/remap_gather.hpp"

#include <algorithm>
#include <cmath>

#include "core/interp.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

#if defined(__AVX2__) && !defined(FISHEYE_DISABLE_AVX2)
#define FISHEYE_HAVE_GATHER 1
#include <immintrin.h>
#else
#define FISHEYE_HAVE_GATHER 0
#endif

namespace fisheye::simd {

bool gather_compiled() noexcept { return FISHEYE_HAVE_GATHER != 0; }

bool gather_available() noexcept {
  return gather_compiled() && util::cpu_info().avx2 && !util::force_scalar();
}

namespace {

/// One pixel of the 8.8 integer blend from scratch slot `i` (ch == 1).
inline std::uint8_t blend_one(const SoaScratch& s, int i,
                              const std::uint8_t* __restrict base,
                              std::size_t pitch) noexcept {
  const std::uint8_t* __restrict r0 =
      base + static_cast<std::size_t>(s.y0[i]) * pitch;
  const std::uint8_t* __restrict r1 =
      base + static_cast<std::size_t>(s.y1[i]) * pitch;
  const int ax = s.ax[i], ay = s.ay[i];
  const int t0 = (256 - ax) * r0[s.x0[i]] + ax * r0[s.x1[i]];
  const int t1 = (256 - ax) * r1[s.x0[i]] + ax * r1[s.x1[i]];
  const int v = (256 - ay) * t0 + ay * t1;
  return static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
}

/// Scalar pass 2 over scratch slots [i0, i1): the fallback for non-AVX2
/// builds, vector-loop tails, and multi-channel frames.
void blend_span_scalar(const SoaScratch& s, int i0, int i1,
                       const std::uint8_t* __restrict base, std::size_t pitch,
                       int ch, std::uint8_t* __restrict out,
                       std::uint8_t fill) noexcept {
  if (ch == 1) {
    for (int i = i0; i < i1; ++i)
      out[i] = s.valid[i] ? blend_one(s, i, base, pitch) : fill;
    return;
  }
  for (int i = i0; i < i1; ++i) {
    std::uint8_t* __restrict o = out + static_cast<std::size_t>(i) * ch;
    if (!s.valid[i]) {
      for (int c = 0; c < ch; ++c) o[c] = fill;
      continue;
    }
    const std::uint8_t* __restrict r0 =
        base + static_cast<std::size_t>(s.y0[i]) * pitch;
    const std::uint8_t* __restrict r1 =
        base + static_cast<std::size_t>(s.y1[i]) * pitch;
    const int lx0 = s.x0[i] * ch;
    const int lx1 = s.x1[i] * ch;
    const int ax = s.ax[i], ay = s.ay[i];
    for (int c = 0; c < ch; ++c) {
      const int t0 = (256 - ax) * r0[lx0 + c] + ax * r0[lx1 + c];
      const int t1 = (256 - ax) * r1[lx0 + c] + ax * r1[lx1 + c];
      const int v = (256 - ay) * t0 + ay * t1;
      o[c] = static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
    }
  }
}

#if FISHEYE_HAVE_GATHER

/// AVX2 pass 2 for ch == 1 over scratch slots [0, n). `total` is the
/// source buffer size in bytes (pitch * height), bounding the dword reads.
void blend_span_avx2(const SoaScratch& s, int n,
                     const std::uint8_t* __restrict base, int pitch,
                     int total, std::uint8_t* __restrict out,
                     std::uint8_t fill) noexcept {
  const __m256i vpitch = _mm256_set1_epi32(pitch);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i v256 = _mm256_set1_epi32(256);
  const __m256i vff = _mm256_set1_epi32(0xFF);
  const __m256i vfill = _mm256_set1_epi32(fill);
  const __m256i vhalf = _mm256_set1_epi32(1 << 15);
  // Vector lanes read 4 bytes at `bot`; require bot + 4 <= total, i.e.
  // bot < total - 3 (the last padded row near the right edge can fail
  // this when pitch == width; those lanes take the fixup path).
  const __m256i vlim = _mm256_set1_epi32(total - 3);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const int* ibase = reinterpret_cast<const int*>(base);

  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.x0 + i));
    const __m256i y0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.y0 + i));
    const __m256i x1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.x1 + i));
    const __m256i y1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.y1 + i));
    const __m256i valid = _mm256_cmpgt_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.valid + i)),
        vzero);
    const __m256i top = _mm256_add_epi32(_mm256_mullo_epi32(y0, vpitch), x0);
    const __m256i bot = _mm256_add_epi32(top, vpitch);
    // Vector-eligible: valid, contiguous 2x2 footprint, in-bounds dwords.
    __m256i vec = _mm256_and_si256(
        _mm256_cmpeq_epi32(x1, _mm256_add_epi32(x0, vone)),
        _mm256_cmpeq_epi32(y1, _mm256_add_epi32(y0, vone)));
    vec = _mm256_and_si256(vec, _mm256_cmpgt_epi32(vlim, bot));
    vec = _mm256_and_si256(vec, valid);

    const __m256i topw = _mm256_mask_i32gather_epi32(vzero, ibase, top, vec, 1);
    const __m256i botw = _mm256_mask_i32gather_epi32(vzero, ibase, bot, vec, 1);

    const __m256i ax =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.ax + i));
    const __m256i ay =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.ay + i));
    const __m256i bx = _mm256_sub_epi32(v256, ax);
    const __m256i by = _mm256_sub_epi32(v256, ay);
    const __m256i p00 = _mm256_and_si256(topw, vff);
    const __m256i p10 = _mm256_and_si256(_mm256_srli_epi32(topw, 8), vff);
    const __m256i p01 = _mm256_and_si256(botw, vff);
    const __m256i p11 = _mm256_and_si256(_mm256_srli_epi32(botw, 8), vff);
    const __m256i t0 = _mm256_add_epi32(_mm256_mullo_epi32(p00, bx),
                                        _mm256_mullo_epi32(p10, ax));
    const __m256i t1 = _mm256_add_epi32(_mm256_mullo_epi32(p01, bx),
                                        _mm256_mullo_epi32(p11, ax));
    __m256i acc = _mm256_add_epi32(_mm256_mullo_epi32(t0, by),
                                   _mm256_mullo_epi32(t1, ay));
    acc = _mm256_srli_epi32(_mm256_add_epi32(acc, vhalf), 16);
    acc = _mm256_blendv_epi8(vfill, acc, valid);

    // 8 x int32 in 0..255 -> low 8 bytes.
    const __m256i p16 = _mm256_packs_epi32(acc, acc);
    const __m256i p8 = _mm256_packus_epi16(p16, p16);
    const __m256i lanes = _mm256_permutevar8x32_epi32(p8, perm);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(lanes));

    // Valid lanes the vector path skipped (clamped footprint or buffer
    // tail): redo scalar — identical integer math, so no seam.
    int fix = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_andnot_si256(vec, valid)));
    while (fix != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(fix));
      fix &= fix - 1;
      out[i + j] = blend_one(s, i + j, base, static_cast<std::size_t>(pitch));
    }
  }
  blend_span_scalar(s, i, n, base, static_cast<std::size_t>(pitch), 1, out,
                    fill);
}

#endif  // FISHEYE_HAVE_GATHER

/// Pass 2 dispatch for one strip: AVX2 when compiled in, the frame is
/// single-channel, and the byte offsets fit int32; scalar otherwise.
inline void blend_strip(const SoaScratch& s, int n,
                        const std::uint8_t* __restrict base, std::size_t pitch,
                        std::size_t total, int ch,
                        std::uint8_t* __restrict out,
                        std::uint8_t fill) noexcept {
#if FISHEYE_HAVE_GATHER
  if (ch == 1 && total + 4 <= static_cast<std::size_t>(INT32_MAX)) {
    blend_span_avx2(s, n, base, static_cast<int>(pitch),
                    static_cast<int>(total), out, fill);
    return;
  }
#else
  (void)total;
#endif
  blend_span_scalar(s, 0, n, base, pitch, ch, out, fill);
}

/// One float-LUT strip's pass-2 operands: the sampled view, where it sits
/// in the full frame, and the strip's map entries (for fallback lanes).
struct FloatStrip {
  img::ConstImageView<std::uint8_t> src;
  const float* mx;
  const float* my;
  float off_x;
  float off_y;
  img::BorderMode border;
  std::uint8_t fill;

  /// The per-pixel kernel on slot i: non-interior and guarded lanes. Kept
  /// out of line so its registers do not spill the vector loop's.
  [[gnu::noinline]] void sample(int i, std::uint8_t* out) const noexcept {
    core::sample_bilinear(src, mx[i] - off_x, my[i] - off_y, border, fill,
                          out);
  }
};

/// Scalar float pass 2 over scratch slots [i0, i1): interior slots blend
/// from the strip weights with sample_bilinear's interior expression;
/// every other slot runs sample_bilinear.
void blend_float_span_scalar(const SoaScratch& s, int i0, int i1,
                             const FloatStrip& f,
                             std::uint8_t* __restrict out) noexcept {
  const int ch = f.src.channels;
  for (int i = i0; i < i1; ++i) {
    std::uint8_t* o = out + static_cast<std::size_t>(i) * ch;
    if (!s.valid[i]) {
      f.sample(i, o);
      continue;
    }
    const std::uint8_t* r0 =
        f.src.row(s.y0[i]) + static_cast<std::size_t>(s.x0[i]) * ch;
    const std::uint8_t* r1 =
        f.src.row(s.y0[i] + 1) + static_cast<std::size_t>(s.x0[i]) * ch;
    const float w00 = s.w00[i], w10 = s.w10[i];
    const float w01 = s.w01[i], w11 = s.w11[i];
    for (int c = 0; c < ch; ++c) {
      const float v =
          w00 * r0[c] + w10 * r0[ch + c] + w01 * r1[c] + w11 * r1[ch + c];
      o[c] = core::detail::round_clamp_u8(v);
    }
  }
}

#if FISHEYE_HAVE_GATHER

/// AVX2 float pass 2 for ch == 1 over scratch slots [0, n). `total` is the
/// source buffer size in bytes, bounding the dword reads. The blend is
/// written with vector operators, not intrinsics, so the compiler contracts
/// it (FMA or not) exactly as it contracts sample_bilinear's.
void blend_float_span_avx2(const SoaScratch& s, int n, const FloatStrip& f,
                           int total, std::uint8_t* __restrict out) noexcept {
  const __m256i vpitch = _mm256_set1_epi32(static_cast<int>(f.src.pitch));
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vff = _mm256_set1_epi32(0xFF);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  // Vector lanes read 4 bytes at `bot`: require bot + 4 <= total.
  const __m256i vlim = _mm256_set1_epi32(total - 3);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const int* ibase = reinterpret_cast<const int*>(f.src.data);

  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.x0 + i));
    const __m256i y0 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.y0 + i));
    const __m256i interior = _mm256_cmpgt_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(s.valid + i)),
        vzero);
    const __m256i top = _mm256_add_epi32(_mm256_mullo_epi32(y0, vpitch), x0);
    const __m256i bot = _mm256_add_epi32(top, vpitch);
    const __m256i vec =
        _mm256_and_si256(interior, _mm256_cmpgt_epi32(vlim, bot));

    const __m256i topw = _mm256_mask_i32gather_epi32(vzero, ibase, top, vec, 1);
    const __m256i botw = _mm256_mask_i32gather_epi32(vzero, ibase, bot, vec, 1);
    const __m256 p00 = _mm256_cvtepi32_ps(_mm256_and_si256(topw, vff));
    const __m256 p10 = _mm256_cvtepi32_ps(
        _mm256_and_si256(_mm256_srli_epi32(topw, 8), vff));
    const __m256 p01 = _mm256_cvtepi32_ps(_mm256_and_si256(botw, vff));
    const __m256 p11 = _mm256_cvtepi32_ps(
        _mm256_and_si256(_mm256_srli_epi32(botw, 8), vff));
    const __m256 w00 = _mm256_load_ps(s.w00 + i);
    const __m256 w10 = _mm256_load_ps(s.w10 + i);
    const __m256 w01 = _mm256_load_ps(s.w01 + i);
    const __m256 w11 = _mm256_load_ps(s.w11 + i);
    const __m256 v = w00 * p00 + w10 * p10 + w01 * p01 + w11 * p11;
    // round_clamp_u8: truncate v + 0.5, then the two saturating packs
    // clamp to 0..255.
    const __m256i r = _mm256_cvttps_epi32(v + vhalf);
    const __m256i p16 = _mm256_packs_epi32(r, r);
    const __m256i p8 = _mm256_packus_epi16(p16, p16);
    const __m256i lanes = _mm256_permutevar8x32_epi32(p8, perm);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(lanes));

    int fix = ~_mm256_movemask_ps(_mm256_castsi256_ps(vec)) & 0xFF;
    while (fix != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(fix));
      fix &= fix - 1;
      f.sample(i + j, out + i + j);
    }
  }
  blend_float_span_scalar(s, i, n, f, out);
}

#endif  // FISHEYE_HAVE_GATHER

/// Float pass 2 dispatch for one strip: AVX2 when compiled in, the frame
/// is single-channel, and the byte offsets fit int32; scalar otherwise.
inline void blend_float_strip(const SoaScratch& s, int n, const FloatStrip& f,
                              std::uint8_t* __restrict out) noexcept {
#if FISHEYE_HAVE_GATHER
  const std::size_t total =
      f.src.pitch * static_cast<std::size_t>(f.src.height);
  if (f.src.channels == 1 &&
      total + 4 <= static_cast<std::size_t>(INT32_MAX)) {
    blend_float_span_avx2(s, n, f, static_cast<int>(total), out);
    return;
  }
#endif
  blend_float_span_scalar(s, 0, n, f, out);
}

/// Cache lines prefetched per strip, bounding the pass-1 overhead: a
/// 256-pixel strip of a smooth map typically spans a handful of source
/// rows, each a few lines wide (docs/modeling.md works the arithmetic).
constexpr int kMaxPrefetchLines = 64;

/// Software-prefetch the source rows the strip [xb, xe) of output row pair
/// (g0, g1) will gather from, using the subsampled grid's coarse bbox —
/// the CompactMap is the only representation whose footprint is knowable
/// this cheaply (two grid rows instead of a per-pixel scan).
inline void prefetch_strip_sources(const core::CompactMap& map,
                                   const std::uint8_t* base, std::size_t pitch,
                                   int ch, std::size_t g0, std::size_t g1,
                                   int xb, int xe) noexcept {
  if (xb >= xe) return;
  const int shift = map.shift();
  const int c0 = xb >> shift;
  const int c1 = std::min(((xe - 1) >> shift) + 1, map.grid_w - 1);
  std::int32_t min_x = INT32_MAX, max_x = INT32_MIN;
  std::int32_t min_y = INT32_MAX, max_y = INT32_MIN;
  for (int c = c0; c <= c1; ++c) {
    for (const std::size_t g : {g0 + c, g1 + c}) {
      min_x = std::min(min_x, map.gx[g]);
      max_x = std::max(max_x, map.gx[g]);
      min_y = std::min(min_y, map.gy[g]);
      max_y = std::max(max_y, map.gy[g]);
    }
  }
  const int frac = map.frac_bits;
  const int y_lo = std::clamp(min_y >> frac, 0, map.src_height - 1);
  const int y_hi = std::clamp((max_y >> frac) + 1, 0, map.src_height - 1);
  const int x_lo = std::clamp(min_x >> frac, 0, map.src_width - 1);
  const int x_hi = std::clamp((max_x >> frac) + 1, 0, map.src_width - 1);
  int lines = 0;
  for (int y = y_lo; y <= y_hi && lines < kMaxPrefetchLines; ++y) {
    const std::uint8_t* row = base + static_cast<std::size_t>(y) * pitch;
    const std::uint8_t* q = row + static_cast<std::size_t>(x_lo) * ch;
    const std::uint8_t* end = row + static_cast<std::size_t>(x_hi) * ch;
    for (; q <= end && lines < kMaxPrefetchLines; q += 64, ++lines)
      __builtin_prefetch(q, 0, 1);
  }
}

}  // namespace

void remap_bilinear_gather(img::ConstImageView<std::uint8_t> src,
                           img::ImageView<std::uint8_t> dst,
                           core::MapView map, par::Rect rect,
                           int src_off_x, int src_off_y,
                           const core::RemapOptions& opts,
                           SoaScratch& scratch) {
  // The per-pixel kernel's preconditions (core/remap.cpp), unchanged.
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);
  FE_EXPECTS(!rect.empty());

  SoaScratch& s = scratch;
  const int ch = src.channels;
  const int src_w = src.width;
  const int src_h = src.height;
  const auto off_x = static_cast<float>(src_off_x);
  const auto off_y = static_cast<float>(src_off_y);

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.pitch;
    std::uint8_t* __restrict out_row = dst.row(y);

    for (int xb = rect.x0; xb < rect.x1; xb += kSoaStrip) {
      const int n = std::min(kSoaStrip, rect.x1 - xb);
      const float* __restrict mx = map.src_x + row + xb;
      const float* __restrict my = map.src_y + row + xb;

      // Pass 1: core::sample_bilinear's own floor, taps, weights and
      // interior test, one scratch slot per pixel.
      for (int i = 0; i < n; ++i) {
        const float sx = mx[i] - off_x;
        const float sy = my[i] - off_y;
        const float fx = std::floor(sx);
        const float fy = std::floor(sy);
        const std::int32_t x0 = static_cast<std::int32_t>(fx);
        const std::int32_t y0 = static_cast<std::int32_t>(fy);
        const float ax = sx - fx;
        const float ay = sy - fy;
        s.x0[i] = x0;
        s.y0[i] = y0;
        s.w00[i] = (1.0f - ax) * (1.0f - ay);
        s.w10[i] = ax * (1.0f - ay);
        s.w01[i] = (1.0f - ax) * ay;
        s.w11[i] = ax * ay;
        s.valid[i] =
            (x0 >= 0) & (y0 >= 0) & (x0 + 1 < src_w) & (y0 + 1 < src_h);
      }

      const FloatStrip f{src, mx, my, off_x, off_y, opts.border, opts.fill};
      blend_float_strip(s, n, f, out_row + static_cast<std::size_t>(xb) * ch);
    }
  }
}

void remap_packed_gather(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst,
                         const core::PackedMap& map, par::Rect rect,
                         std::uint8_t fill, SoaScratch& scratch) {
  FE_EXPECTS(src.channels == dst.channels);
  FE_EXPECTS(map.width == dst.width && map.height == dst.height);
  FE_EXPECTS(rect.x0 >= 0 && rect.y0 >= 0 && rect.x1 <= dst.width &&
             rect.y1 <= dst.height);

  SoaScratch& s = scratch;
  const int ch = src.channels;
  const std::size_t pitch = src.pitch;
  const std::size_t total = pitch * static_cast<std::size_t>(src.height);
  const int frac = map.frac_bits;
  const int wshift = frac >= 8 ? frac - 8 : 0;
  const int wscale_up = frac >= 8 ? 0 : 8 - frac;
  const std::int32_t frac_mask = (std::int32_t{1} << frac) - 1;
  const int src_w = src.width;
  const int src_h = src.height;

  for (int y = rect.y0; y < rect.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * map.width;
    std::uint8_t* __restrict out_row = dst.row(y);

    for (int xb = rect.x0; xb < rect.x1; xb += kSoaStrip) {
      const int n = std::min(kSoaStrip, rect.x1 - xb);
      const std::int32_t* __restrict pfx = map.fx.data() + row + xb;
      const std::int32_t* __restrict pfy = map.fy.data() + row + xb;

      // Pass 1: identical integer expressions to the scalar packed kernel
      // (core/remap.cpp), so pass 2 reproduces it bit-for-bit. Invalid
      // lanes keep garbage coordinates; no path dereferences them.
      for (int i = 0; i < n; ++i) {
        const std::int32_t fx = pfx[i];
        const std::int32_t fy = pfy[i];
        const std::int32_t x0 = fx >> frac;
        const std::int32_t y0 = fy >> frac;
        s.x0[i] = x0;
        s.y0[i] = y0;
        s.x1[i] = x0 + 1 < src_w ? x0 + 1 : x0;
        s.y1[i] = y0 + 1 < src_h ? y0 + 1 : y0;
        s.ax[i] = ((fx & frac_mask) >> wshift) << wscale_up;  // 0..256
        s.ay[i] = ((fy & frac_mask) >> wshift) << wscale_up;
        s.valid[i] = fx != core::PackedMap::kInvalid;
      }

      std::uint8_t* __restrict out =
          out_row + static_cast<std::size_t>(xb) * ch;
      blend_strip(s, n, src.data, pitch, total, ch, out, fill);
    }
  }
}

void remap_compact_gather(img::ConstImageView<std::uint8_t> src,
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
  const std::size_t total = pitch * static_cast<std::size_t>(src.height);

  const int frac = map.frac_bits;
  const int wshift = frac >= 8 ? frac - 8 : 0;
  const int wscale_up = frac >= 8 ? 0 : 8 - frac;
  const std::int32_t frac_mask = (std::int32_t{1} << frac) - 1;
  const int shift = map.shift();
  const int smask = map.stride - 1;
  const std::int64_t gs = map.stride;
  const int rshift = 2 * shift;
  const std::int64_t half = rshift > 0 ? (std::int64_t{1} << (rshift - 1)) : 0;
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

      // Ahead of pass 1: warm the NEXT strip's source lines while this
      // strip's arithmetic hides the latency — by the time its gathers
      // issue, the lines are (at worst) in flight.
      if (xb + kSoaStrip < rect.x1)
        prefetch_strip_sources(map, src.data, pitch, ch, g0, g1,
                               xb + kSoaStrip,
                               std::min(rect.x1, xb + 2 * kSoaStrip));

      // Pass 1: grid reconstruction — identical integer expressions to the
      // scalar compact kernel, so pass 2 reproduces it bit-for-bit.
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

      std::uint8_t* __restrict out =
          out_row + static_cast<std::size_t>(xb) * ch;
      blend_strip(s, n, src.data, pitch, total, ch, out, fill);
    }
  }
}

}  // namespace fisheye::simd

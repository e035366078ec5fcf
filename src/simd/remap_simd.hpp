// SIMD-oriented remap kernel.
//
// The scalar kernel interleaves address math, weight math and gathers per
// pixel — a long dependence chain the vector units cannot chew on. This
// kernel restructures the loop the way the study's hand-SIMDized versions
// did:
//   pass 1 (vectorizable): for a strip of output pixels, compute integer
//           tap coordinates, validity mask and the four bilinear weights
//           into contiguous SoA scratch arrays;
//   pass 2 (gather-bound): fetch the four taps per pixel and blend with the
//           precomputed weights.
// Pass 1 vectorizes under -march=native because fisheye_simd builds with
// -fno-trapping-math: GCC's default -ftrapping-math keeps its float to
// int32 conversions scalar (src/simd/CMakeLists.txt). Portable SSE2 builds
// still run it scalar, having no vector floor. Pass 2 is the irreducible
// gather cost. The F-series "simd" backend is this kernel run on the
// thread pool.
#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"

namespace fisheye::simd {

/// Strip length processed per scratch refill. Long enough to amortize the
/// two-pass split, short enough that the scratch arrays stay inside L1.
inline constexpr int kSoaStrip = 256;

/// SoA strip scratch shared by both kernels: one slot per strip pixel.
/// The float kernel fills x0/y0 + the float weights; the compact kernel
/// fills the clamped tap coordinates + the 0..256 integer weights. Sized
/// ~11 KB; the tile kernels keep one on their own stack per call.
struct SoaScratch {
  alignas(64) std::int32_t x0[kSoaStrip];
  alignas(64) std::int32_t y0[kSoaStrip];
  alignas(64) std::int32_t x1[kSoaStrip];
  alignas(64) std::int32_t y1[kSoaStrip];
  alignas(64) float w00[kSoaStrip];
  alignas(64) float w10[kSoaStrip];
  alignas(64) float w01[kSoaStrip];
  alignas(64) float w11[kSoaStrip];
  alignas(64) std::int32_t ax[kSoaStrip];
  alignas(64) std::int32_t ay[kSoaStrip];
  alignas(64) std::int32_t valid[kSoaStrip];
};

/// Bilinear remap of `rect` with constant-fill border. Bit-exact against
/// core::remap_rect with Interp::Bilinear + BorderMode::Constant is NOT
/// guaranteed (float rounding order differs); agreement within +-1 level is
/// (tested property). `scratch` is caller storage, refilled once per
/// kSoaStrip-pixel strip.
void remap_bilinear_soa(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        core::MapView map, par::Rect rect,
                        std::uint8_t fill, SoaScratch& scratch);

/// Compact-map strip kernel, same two-pass scratch structure:
///   pass 1 (vectorizable): reconstruct each pixel's fixed-point source
///           coordinate from the stride grid, derive tap coordinates,
///           validity and the 0..256 integer weights into SoA scratch;
///   pass 2 (gather-bound): fetch taps and blend on the 8-bit integer
///           datapath.
/// Unlike the float kernel this one is bit-exact against its scalar
/// counterpart (core::remap_compact_rect): both run identical integer
/// arithmetic (tested property).
void remap_compact_soa(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const core::CompactMap& map, par::Rect rect,
                       std::uint8_t fill, SoaScratch& scratch);

}  // namespace fisheye::simd

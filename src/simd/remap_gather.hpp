// Explicit-intrinsics gather datapath (KernelVariant::SimdGather).
//
// The SoA kernels (remap_simd.hpp) leave pass 2 — the four taps per pixel —
// to scalar loads; the study's hand-SIMDized ports replaced exactly that
// with hardware gathers. These kernels keep the two-pass strip structure
// and vectorize pass 2 with AVX2 `_mm256_i32gather_epi32`: one dword gather
// per tap row fetches the (p0, p1) byte pair for eight output pixels per
// iteration.
//
// Contract vs the scalar kernels: bit-exact, all three.
//  * packed / compact: identical integer expressions and an 8.8 fixed-point
//    weight blend (the same property the SoA compact kernel has);
//  * float LUT: core::sample_bilinear's own arithmetic — floor, float
//    weights, interior test, and the blend w00*p00 + w10*p10 + w01*p01 +
//    w11*p11 written with vector operators, so the compiler contracts it
//    (FMA or not) as it contracts the scalar one. Lanes that are not
//    interior run sample_bilinear itself, under any border mode and window
//    offset. Kernel resolution therefore also binds this kernel for the
//    float bilinear Scalar entry wherever gather_available() holds.
//
// Lanes whose 2x2 footprint is not contiguous (edge-clamped taps) or whose
// dword read would overrun the last padded row take a scalar fixup path;
// multi-channel frames blend scalar from the SoA scratch.
//
// The compact kernel additionally issues software prefetches for the NEXT
// strip's source rows, derived from the block-subsampled grid's coarse
// source bbox, so pass 2's gathers hit warm lines (docs/modeling.md).
//
// This translation unit is compiled with -mavx2 when the toolchain allows
// (src/simd/CMakeLists.txt); on other targets — or under
// -DFISHEYE_DISABLE_AVX2=ON — the same entry points fall back to the scalar
// pass-2 loop and gather_compiled() reports false. Callers do not need to
// care: kernel resolution (core/kernel.cpp) consults gather_available()
// and degrades SimdGather to SimdSoa/Scalar before these run.
#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "core/remap.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"
#include "simd/remap_simd.hpp"

namespace fisheye::simd {

/// True when this library was compiled with the AVX2 gather path present
/// (the dedicated TU got -mavx2 and FISHEYE_DISABLE_AVX2 was off).
[[nodiscard]] bool gather_compiled() noexcept;

/// True when the gather datapath can run here and now: compiled in, the
/// executing CPU reports AVX2, and util::force_scalar() is not set.
/// Kernel resolution consults this to degrade SimdGather gracefully.
[[nodiscard]] bool gather_available() noexcept;

/// Bilinear remap of `rect` from a float map view, AVX2 gather pass 2.
/// Byte for byte core::remap_rect_offset with Interp::Bilinear under any
/// border mode in `opts` (its interp is not read): `src` is a window whose
/// top-left sits at (src_off_x, src_off_y) in full-frame coordinates, and
/// the preconditions are the per-pixel kernel's.
void remap_bilinear_gather(img::ConstImageView<std::uint8_t> src,
                           img::ImageView<std::uint8_t> dst,
                           core::MapView map, par::Rect rect,
                           int src_off_x, int src_off_y,
                           const core::RemapOptions& opts,
                           SoaScratch& scratch);

/// Fixed-point PackedMap remap, AVX2 gather pass 2. Bit-exact against
/// core::remap_packed_rect (same integer arithmetic).
void remap_packed_gather(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst,
                         const core::PackedMap& map, par::Rect rect,
                         std::uint8_t fill, SoaScratch& scratch);

/// CompactMap remap, AVX2 gather pass 2 plus grid-driven software prefetch
/// of the next strip's source rows. Bit-exact against
/// core::remap_compact_rect (same integer arithmetic).
void remap_compact_gather(img::ConstImageView<std::uint8_t> src,
                          img::ImageView<std::uint8_t> dst,
                          const core::CompactMap& map, par::Rect rect,
                          std::uint8_t fill, SoaScratch& scratch);

}  // namespace fisheye::simd

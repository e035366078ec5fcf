// Remap executors: produce a rectangle of output pixels from a source image
// plus a warp description. These are the serial building blocks every
// backend (CPU pool, SIMD, simulated accelerators) composes.
//
// Four strategies, matching the F3/F9/F20 comparisons:
//  * remap_rect         — float LUT (a MapView of a WarpMap or of a window
//                         of one) + any interpolation kernel.
//  * remap_packed_rect  — fixed-point LUT (PackedMap), integer bilinear;
//                         the hardware-datapath kernel.
//  * remap_compact_rect — block-subsampled LUT (CompactMap): per-pixel
//                         coordinates reconstructed by integer bilinear
//                         interpolation of grid entries, then the same
//                         integer sampling datapath as the packed kernel.
//  * remap_otf_rect     — no LUT: source coordinates recomputed per pixel
//                         from camera + view (trades FLOPs for bandwidth).
#pragma once

#include <cstdint>

#include "core/camera.hpp"
#include "core/interp.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "image/border.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"

namespace fisheye::core {

struct RemapOptions {
  Interp interp = Interp::Bilinear;
  img::BorderMode border = img::BorderMode::Constant;
  std::uint8_t fill = 0;
};

/// Float-LUT remap of `rect` (a sub-rectangle of `dst`/`map` space).
/// `map` dimensions must equal `dst` dimensions; channels must match between
/// src and dst. Map rows are read at the view's pitch, so `map` may be a
/// window of a larger table.
void remap_rect(img::ConstImageView<std::uint8_t> src,
                img::ImageView<std::uint8_t> dst, MapView map,
                par::Rect rect, const RemapOptions& opts);

/// Same, but source coordinates are offset by (-src_off_x, -src_off_y)
/// before sampling: `src` is a copied sub-window of the real source whose
/// top-left corner sits at (src_off_x, src_off_y) in full-frame coordinates.
void remap_rect_offset(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst, MapView map,
                       par::Rect rect, int src_off_x, int src_off_y,
                       const RemapOptions& opts);

/// Fixed-point bilinear remap from a PackedMap. Invalid entries produce
/// `fill`. Weights use the top 8 fractional bits (or all of them when
/// frac_bits < 8), mirroring an 8-bit blending datapath.
void remap_packed_rect(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst, const PackedMap& map,
                       par::Rect rect, std::uint8_t fill);

/// Windowed variant: `src` is a copied sub-window of the real source whose
/// top-left corner sits at (src_off_x, src_off_y) in full-frame
/// coordinates. The +1-tap clamp needs the full-frame source dimensions
/// the map was packed against — a PackedMap does not record them (its
/// serialized format predates windowed execution), so they are passed
/// explicitly. The window must cover every valid entry's 2x2 footprint.
void remap_packed_rect_offset(img::ConstImageView<std::uint8_t> src,
                              img::ImageView<std::uint8_t> dst,
                              const PackedMap& map, par::Rect rect,
                              int src_off_x, int src_off_y, int src_width,
                              int src_height, std::uint8_t fill);

/// Compact-map remap: reconstructs each pixel's fixed-point source
/// coordinate from the stride×stride grid (integer bilinear interpolation,
/// incremental per row), re-tests it against the source bounds, then runs
/// the packed kernel's 8-bit blending datapath. At stride == 1 the
/// reconstruction is exact and the output matches remap_packed_rect.
/// `src` must have the full source dimensions recorded in the map.
void remap_compact_rect(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        const CompactMap& map, par::Rect rect,
                        std::uint8_t fill);

/// Windowed variant for accelerator local stores: `src` is a copied
/// sub-window of the real source whose top-left corner sits at
/// (src_off_x, src_off_y) in full-frame coordinates. Validity and clamping
/// still use the full-frame bounds; the window must cover the rect's
/// source_bbox (it does when sized via source_bbox(CompactMap, rect)).
void remap_compact_rect_offset(img::ConstImageView<std::uint8_t> src,
                               img::ImageView<std::uint8_t> dst,
                               const CompactMap& map, par::Rect rect,
                               int src_off_x, int src_off_y,
                               std::uint8_t fill);

/// On-the-fly remap: recomputes the inverse mapping per pixel.
/// `fast_math` swaps libm atan/sin for the polynomial approximations in
/// util/mathx.hpp (the accuracy cost is measured in F3).
void remap_otf_rect(img::ConstImageView<std::uint8_t> src,
                    img::ImageView<std::uint8_t> dst,
                    const FisheyeCamera& camera, const ViewProjection& view,
                    par::Rect rect, const RemapOptions& opts,
                    bool fast_math = false);

namespace detail {

/// Monomorphized executors, one per interpolation kernel. The public
/// remap_rect/remap_otf_rect entry points and the tile-kernel catalogue
/// (core/kernel.cpp — the library's ONLY runtime interpolation dispatch)
/// resolve onto these; nothing below this layer branches on Interp.
void remap_rect_nearest(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst, MapView map,
                        par::Rect rect, int src_off_x, int src_off_y,
                        const RemapOptions& opts);
void remap_rect_bilinear(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst, MapView map,
                         par::Rect rect, int src_off_x, int src_off_y,
                         const RemapOptions& opts);
void remap_rect_bicubic(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst, MapView map,
                        par::Rect rect, int src_off_x, int src_off_y,
                        const RemapOptions& opts);
void remap_rect_lanczos3(img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst, MapView map,
                         par::Rect rect, int src_off_x, int src_off_y,
                         const RemapOptions& opts);

void remap_otf_nearest(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const FisheyeCamera& camera, const ViewProjection& view,
                       par::Rect rect, const RemapOptions& opts,
                       bool fast_math);
void remap_otf_bilinear(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        const FisheyeCamera& camera,
                        const ViewProjection& view, par::Rect rect,
                        const RemapOptions& opts, bool fast_math);
void remap_otf_bicubic(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst,
                       const FisheyeCamera& camera, const ViewProjection& view,
                       par::Rect rect, const RemapOptions& opts,
                       bool fast_math);
void remap_otf_lanczos3(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        const FisheyeCamera& camera,
                        const ViewProjection& view, par::Rect rect,
                        const RemapOptions& opts, bool fast_math);

}  // namespace detail

}  // namespace fisheye::core

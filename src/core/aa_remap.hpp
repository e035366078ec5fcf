// Anti-aliased remap: trilinear sampling from a mip pyramid with per-pixel
// level-of-detail derived from the warp map's local Jacobian.
//
// Where the map magnifies (LOD <= 0) this degenerates to plain bilinear;
// where it minifies, the sampler reads the pyramid level whose texel pitch
// matches the source footprint of one output pixel, removing the aliasing
// the point-sampled kernels exhibit (quantified by bench F12).
#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "image/pyramid.hpp"
#include "parallel/partition.hpp"

namespace fisheye::core {

/// Per-pixel LOD for output pixel (x, y): log2 of the larger axis of the
/// source-space footprint, from central differences of the map. Clamped to
/// [0, max_lod]. Exposed for tests and for precomputed-LOD pipelines.
float map_lod(MapView map, int x, int y, float max_lod) noexcept;

/// Remap `rect` sampling `pyramid` trilinearly (bilinear in-level, linear
/// across levels). Constant-fill border.
void remap_aa_rect(const img::Pyramid& pyramid,
                   img::ImageView<std::uint8_t> dst, MapView map,
                   par::Rect rect, std::uint8_t fill);

}  // namespace fisheye::core

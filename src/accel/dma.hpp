// Explicit DMA copies (Cell MFC style).
//
// Copies pixel rectangles between host frames and local-store buffers, so
// the simulated SPE kernel really does operate on a private copy (any
// indexing bug corrupts output and is caught by tests), with the
// alignment rule the MFC enforces. Transfer time is not counted here: the
// platform's cost model charges each transfer (SpeCostModel, tile_cost).
#pragma once

#include <cstddef>
#include <cstdint>

#include "image/image.hpp"
#include "parallel/partition.hpp"

namespace fisheye::accel {

/// Required alignment of local-store addresses (quadword).
inline constexpr std::size_t kDmaAlignment = 16;

/// GET: copy rect `box` of `src` (full-frame coordinates) into the local
/// buffer `local` laid out as box.width()*channels contiguous bytes per
/// row. `local_capacity` is checked. Returns bytes moved.
std::size_t dma_get_rect(img::ConstImageView<std::uint8_t> src, par::Rect box,
                         std::uint8_t* local, std::size_t local_capacity);

/// GET for raw arrays (map tiles): `bytes` from host `src` into `local`.
std::size_t dma_get_linear(const void* src, std::size_t bytes,
                           std::uint8_t* local, std::size_t local_capacity);

/// PUT: copy the local tile (tight rows of box.width()*channels) into
/// rect `box` of the destination frame. Returns bytes moved.
std::size_t dma_put_rect(const std::uint8_t* local,
                         img::ImageView<std::uint8_t> dst, par::Rect box);

}  // namespace fisheye::accel

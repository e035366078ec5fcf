#include "core/tile_order.hpp"

#include "core/mapping.hpp"
#include "util/error.hpp"

namespace fisheye::core {

// source_locality_keys lives in core/kernel.cpp: the per-representation
// source-extent query is part of the map-mode dispatch the kernel
// catalogue centralizes.

std::vector<par::Rect> order_tiles_by_keys(
    const std::vector<par::Rect>& tiles, const std::vector<par::Rect>& keys) {
  FE_EXPECTS(keys.size() == tiles.size());
  const std::vector<std::uint32_t> order = par::morton_order(keys);
  std::vector<par::Rect> out;
  out.reserve(tiles.size());
  for (const std::uint32_t i : order) out.push_back(tiles[i]);
  return out;
}

std::vector<par::Rect> order_tiles_by_source_locality(
    const ExecContext& ctx, std::vector<par::Rect> tiles) {
  return order_tiles_by_keys(tiles, source_locality_keys(ctx, tiles));
}

}  // namespace fisheye::core

// Plan-time tile ordering for locality-aware schedules.
//
// A tile's cost is paid in its *source* working set: the remap kernel
// gathers from the tile's source bounding box, so two tiles whose source
// boxes overlap share cache lines. Output-raster tile order ignores this —
// under a fisheye warp, horizontally adjacent output tiles near the frame
// edge pull source windows that are far apart. Sorting the plan's tiles by
// Morton (Z-order) code of their source-bbox centroid makes consecutive
// schedule positions source-adjacent, so a worker consuming a contiguous
// run of the schedule walks the source image coherently. This is the
// ordering the steal schedule pre-assigns as the lanes' initial runs (see
// parallel/work_stealing.hpp); steals then only repair imbalance.
#pragma once

#include <cstdint>
#include <vector>

#include "core/execution_plan.hpp"
#include "parallel/partition.hpp"

namespace fisheye::core {

/// Per-tile source-space sort keys for `tiles` under ctx's map
/// representation: the source bounding box (FloatLut and CompactLut, which
/// carry per-pixel/per-grid source tables), or the output tile itself for
/// representations without a cheap source-extent query (PackedLut,
/// OnTheFly) — output-space Morton order is still spatially coherent, it
/// just cannot see the warp.
[[nodiscard]] std::vector<par::Rect> source_locality_keys(
    const ExecContext& ctx, const std::vector<par::Rect>& tiles);

/// `tiles` reordered by Morton code of their keys' centroids (`keys[i]`
/// is the key of `tiles[i]`); tiles whose key is empty (pure fill) go
/// last. Every input tile appears exactly once — the partition coverage
/// property is permutation-invariant and pinned by tests.
[[nodiscard]] std::vector<par::Rect> order_tiles_by_keys(
    const std::vector<par::Rect>& tiles, const std::vector<par::Rect>& keys);

/// order_tiles_by_keys under ctx's source_locality_keys.
[[nodiscard]] std::vector<par::Rect> order_tiles_by_source_locality(
    const ExecContext& ctx, std::vector<par::Rect> tiles);

}  // namespace fisheye::core

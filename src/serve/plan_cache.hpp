// PlanCache: per-view execution plans for the serving layer.
//
// A cached view is everything the steady state needs to correct one
// coalesced PTZ region: a MapView window of the server's per-level LUT
// (read in place at the LUT's pitch, with a shared pin that keeps the LUT
// alive for the entry's lifetime), its packed/compact conversion when the
// server runs those representations, a service ExecutionPlan
// (Morton-ordered tiles, workspace arena, resolved kernel, instrumentation
// slots), and the shared output buffer client crops are copied from. A
// float-mode miss copies no map: it points the plan at the LUT window and
// keys each tile's source locality as the union of a few entries of the
// level's BlockTable, so planning costs O(tiles), not a scan of the
// window's map. Packed/compact misses convert straight from the window. No
// trigonometry runs on the serving path. A hit is a hash lookup plus an
// intrusive LRU splice, and from there the frame reaches steady-state
// correction with zero allocations.
//
// Keying: (calibration generation, level, quantized view rect). The
// backend spec is fixed per server, so it lives outside the key — lookups
// stay allocation-free POD compares. Eviction is LRU under a byte budget;
// entries pinned by the in-flight frame are never evicted (their plan and
// output are being written by workers).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/corrector.hpp"
#include "image/image.hpp"

namespace fisheye::serve {

/// Cache identity of one coalesced view region.
struct ViewKey {
  std::uint64_t generation = 0;  ///< server calibration generation
  int level = 0;                 ///< zoom level index
  par::Rect rect;                ///< quantized region, level output space
  bool operator==(const ViewKey&) const noexcept = default;
};

/// POD field mix (FNV-1a over the packed fields); no allocation.
struct ViewKeyHash {
  std::size_t operator()(const ViewKey& k) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) noexcept {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(k.generation);
    mix(static_cast<std::uint32_t>(k.level));
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.rect.x0))
         << 32) |
        static_cast<std::uint32_t>(k.rect.y0));
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.rect.x1))
         << 32) |
        static_cast<std::uint32_t>(k.rect.y1));
    return static_cast<std::size_t>(h);
  }
};

/// One cached view (see header comment). `pin` and the conversions live
/// here so the resolved kernel's bound view and pointers stay valid for the
/// entry's lifetime; `out` carries one-stride right/bottom padding in
/// compact mode (the plan tiles cover only [0,width)x[0,height) — see
/// build_cached_view).
struct CachedView {
  ViewKey key;
  /// Owner of the table `map` reads: the level LUT it was built from, or,
  /// built without one, the window map evaluated for this entry alone.
  std::shared_ptr<const core::WarpMap> pin;
  core::MapView map;  ///< the entry's (padded) window of `*pin`
  std::optional<core::PackedMap> packed;
  std::optional<core::CompactMap> compact;
  core::ExecutionPlan plan;
  img::Image<std::uint8_t> out;
  int width = 0;   ///< served (unpadded) region width
  int height = 0;  ///< served (unpadded) region height
  /// Accounted footprint: what the entry alone holds and what grows with
  /// its window (output pixels, plan tile slots, packed/compact
  /// conversion), never the float map, so a key costs the same whether its
  /// window came from a LUT or not. Per-entry constants (this struct, row
  /// padding) are left out, so a budget stays proportional to window area.
  std::size_t bytes = 0;
  std::uint64_t pinned_frame = 0; ///< frame id currently executing the entry
  CachedView* lru_prev = nullptr;
  CachedView* lru_next = nullptr;
};

/// Source boxes of a level LUT, one per block_w x block_h block (row-major;
/// the last column and row are truncated at the LUT edge): each entry is
/// core::source_bbox of that block, computed once per calibration. Floor,
/// min and max are monotone, so for a rect made of whole blocks the union
/// of its blocks' boxes IS its source_bbox — exact, not a bound. The
/// server sizes blocks gcd(quantum, tile) per axis: cluster origins sit on
/// the quantum grid and tiles start every tile_w/tile_h px from there and
/// end on a tile edge or the cluster's quantized edge, so every plan tile
/// is whole blocks (16x16 for the defaults, 3.8 KB per 320x192 level).
struct BlockTable {
  int block_w = 0;
  int block_h = 0;
  int width = 0;  ///< LUT dims the table covers
  int height = 0;
  int cols = 0;  ///< blocks per row
  std::vector<par::Rect> boxes;

  /// source_bbox(lut, r, src_width, src_height) of the table's LUT, from
  /// the table alone. `r` must lie in the LUT with every edge on a block
  /// boundary (or the LUT edge).
  [[nodiscard]] par::Rect bbox(par::Rect r) const;
};

/// Geometry + conversion parameters for building entries; fixed per server.
struct ViewBuildContext {
  const core::FisheyeCamera* camera = nullptr;
  const core::ViewProjection* view = nullptr;  ///< the key's level view
  /// The key's level LUT (see build_level_lut), or null to evaluate the
  /// window from camera + view instead. When set, the entry pins it and
  /// reads its window in place; camera and view are unused.
  std::shared_ptr<const core::WarpMap> lut;
  /// `lut`'s BlockTable, or null to key tiles by scanning the window's
  /// map. Float mode only (packed plans key on output tiles, compact plans
  /// on their grid); its blocks must tile every plan tile of the window.
  const BlockTable* blocks = nullptr;
  int src_width = 0;
  int src_height = 0;
  int channels = 1;
  core::RemapOptions remap;
  core::MapMode mode = core::MapMode::FloatLut;
  int compact_stride = 8;
  int frac_bits = 14;
  int tile_w = 32;
  int tile_h = 32;
};

/// Canonical PlanKey backend name of serving-layer plans.
inline constexpr const char* kServePlanName = "serve";

/// Build the entry for `key` under `build`: map window (padded one stride
/// right/bottom in compact mode so every grid line the kernel reads is
/// sampled, not extrapolated), representation conversion, service plan
/// and output buffer. The quantized rect origin must be stride-aligned in
/// compact mode (the server's quantum enforces it) — that alignment is
/// what makes the windowed compact grid coincide with the full level
/// grid, keeping served crops bit-exact vs a standalone correction. With
/// `build.lut` set the padded window must lie inside the LUT.
[[nodiscard]] std::unique_ptr<CachedView> build_cached_view(
    const ViewBuildContext& build, const ViewKey& key);

/// The float map of `build.view`'s quantized domain, whose windows
/// build_cached_view reads in place: the view's dims rounded up to
/// `quantum` (quantized rects of a 180-px-high level reach row 192), plus
/// one compact stride right/bottom in compact mode. Shared, so every entry
/// built from it can pin it.
[[nodiscard]] std::shared_ptr<const core::WarpMap> build_level_lut(
    const ViewBuildContext& build, int quantum);

/// The BlockTable of `*build.lut` whose blocks tile every plan tile of a
/// quantum-aligned window: gcd(quantum, build.tile_w) x gcd(quantum,
/// build.tile_h).
[[nodiscard]] BlockTable build_level_blocks(const ViewBuildContext& build,
                                            int quantum);

/// LRU + byte-budget cache of CachedViews. Single-writer: the server's
/// one-dispatch-at-a-time invariant serializes all access, so the cache
/// itself takes no lock.
class PlanCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  explicit PlanCache(std::size_t byte_budget) : budget_(byte_budget) {}

  /// The entry for `key`, bumped to LRU front and pinned to `frame`; null
  /// (a counted miss) when absent. Allocation-free.
  [[nodiscard]] CachedView* find(const ViewKey& key, std::uint64_t frame);

  /// Insert a freshly built entry (the resolution of a find() miss),
  /// pinned to `frame`; evicts unpinned LRU-tail entries over budget. The
  /// new entry itself always survives, even over budget — it is about to
  /// execute.
  CachedView& insert(std::unique_ptr<CachedView> entry, std::uint64_t frame);

  /// Evict over-budget LRU-tail entries, skipping those pinned to
  /// `active_frame` (0 = nothing pinned; the server trims on frame
  /// completion, which is what makes cache_budget=0 the cold-plan mode).
  void trim(std::uint64_t active_frame);

  /// Drop everything (recalibration); counted as evictions.
  void flush();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  void unlink_(CachedView* e) noexcept;
  void push_front_(CachedView* e) noexcept;

  std::size_t budget_;
  std::unordered_map<ViewKey, std::unique_ptr<CachedView>, ViewKeyHash> map_;
  CachedView* head_ = nullptr;  ///< most recently used
  CachedView* tail_ = nullptr;  ///< eviction end
  Stats stats_;
};

}  // namespace fisheye::serve

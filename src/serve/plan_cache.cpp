#include "serve/plan_cache.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace fisheye::serve {

namespace {

/// Compact mode pads windows one stride right/bottom (see
/// build_cached_view); the other representations need no padding.
[[nodiscard]] int window_pad(const ViewBuildContext& build) noexcept {
  return build.mode == core::MapMode::CompactLut ? build.compact_stride : 0;
}

}  // namespace

std::shared_ptr<const core::WarpMap> build_level_lut(
    const ViewBuildContext& build, int quantum) {
  FE_EXPECTS(build.camera != nullptr && build.view != nullptr);
  FE_EXPECTS(quantum > 0);
  const auto round_up = [quantum](int v) {
    return (v + quantum - 1) / quantum * quantum;
  };
  const int pad = window_pad(build);
  return std::make_shared<const core::WarpMap>(core::build_map_window(
      *build.camera, *build.view,
      {0, 0, round_up(build.view->width()) + pad,
       round_up(build.view->height()) + pad}));
}

BlockTable build_level_blocks(const ViewBuildContext& build, int quantum) {
  FE_EXPECTS(build.lut != nullptr && quantum > 0);
  const core::MapView lut = *build.lut;
  BlockTable t;
  t.block_w = std::gcd(quantum, build.tile_w);
  t.block_h = std::gcd(quantum, build.tile_h);
  t.width = lut.width;
  t.height = lut.height;
  t.cols = (lut.width + t.block_w - 1) / t.block_w;
  t.boxes.reserve(static_cast<std::size_t>(t.cols) *
                  ((lut.height + t.block_h - 1) / t.block_h));
  for (int y = 0; y < lut.height; y += t.block_h)
    for (int x = 0; x < lut.width; x += t.block_w)
      t.boxes.push_back(core::source_bbox(
          lut,
          {x, y, std::min(x + t.block_w, lut.width),
           std::min(y + t.block_h, lut.height)},
          build.src_width, build.src_height));
  return t;
}

par::Rect BlockTable::bbox(par::Rect r) const {
  const auto on_edge = [](int v, int block, int dim) {
    return v % block == 0 || v == dim;
  };
  FE_EXPECTS(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width && r.y1 <= height);
  FE_EXPECTS(on_edge(r.x0, block_w, width) && on_edge(r.x1, block_w, width) &&
             on_edge(r.y0, block_h, height) && on_edge(r.y1, block_h, height));
  // A block's box is empty exactly when none of its pixels maps inside the
  // source, so skipping empty boxes is source_bbox's validity rule.
  par::Rect box;
  const int bx1 = (r.x1 + block_w - 1) / block_w;
  const int by1 = (r.y1 + block_h - 1) / block_h;
  for (int by = r.y0 / block_h; by < by1; ++by) {
    for (int bx = r.x0 / block_w; bx < bx1; ++bx) {
      const par::Rect& b = boxes[static_cast<std::size_t>(by) * cols + bx];
      if (b.empty()) continue;
      if (box.empty()) {
        box = b;
        continue;
      }
      box.x0 = std::min(box.x0, b.x0);
      box.y0 = std::min(box.y0, b.y0);
      box.x1 = std::max(box.x1, b.x1);
      box.y1 = std::max(box.y1, b.y1);
    }
  }
  return box;
}

std::unique_ptr<CachedView> build_cached_view(const ViewBuildContext& build,
                                              const ViewKey& key) {
  FE_EXPECTS(build.lut != nullptr ||
             (build.camera != nullptr && build.view != nullptr));
  FE_EXPECTS(!key.rect.empty());
  FE_EXPECTS(build.mode != core::MapMode::OnTheFly);
  FE_EXPECTS(build.blocks == nullptr ||
             (build.lut != nullptr && build.mode == core::MapMode::FloatLut));

  auto entry = std::make_unique<CachedView>();
  entry->key = key;
  entry->width = key.rect.width();
  entry->height = key.rect.height();

  // Compact mode pads the window one stride right/bottom: the grid corners
  // serving pixel (width-1, height-1) then land on *sampled* positions, so
  // reconstruction matches the full level map (whose grid, thanks to the
  // stride-aligned window origin, samples the same absolute positions).
  const int pad = window_pad(build);
  if (pad != 0) FE_EXPECTS(key.rect.x0 % build.compact_stride == 0 &&
                           key.rect.y0 % build.compact_stride == 0);
  const par::Rect window{key.rect.x0, key.rect.y0, key.rect.x1 + pad,
                         key.rect.y1 + pad};
  if (build.lut != nullptr) {
    entry->pin = build.lut;
    entry->map = entry->pin->view().window(window);
  } else {
    entry->pin = std::make_shared<const core::WarpMap>(
        core::build_map_window(*build.camera, *build.view, window));
    entry->map = *entry->pin;
  }
  if (build.mode == core::MapMode::PackedLut)
    entry->packed = core::pack_map(entry->map, build.src_width,
                                   build.src_height, build.frac_bits);
  if (build.mode == core::MapMode::CompactLut)
    entry->compact =
        core::compact_map(entry->map, build.src_width, build.src_height,
                          build.compact_stride, build.frac_bits);

  entry->out = img::Image<std::uint8_t>(window.width(), window.height(),
                                        build.channels);

  // The plan's context: shape-only source (planning never reads pixels),
  // the entry's own output buffer, and the entry's maps — the pinned window
  // and the conversions, whose addresses are final here, so the resolved
  // kernel's bound view and pointers stay valid for the entry's lifetime.
  // Tiles cover only the served region; the pad rows and columns are never
  // written or read.
  core::ExecContext ctx;
  ctx.src = img::ConstImageView<std::uint8_t>(
      nullptr, build.src_width, build.src_height, build.channels,
      static_cast<std::size_t>(build.src_width) * build.channels);
  ctx.dst = entry->out.view();
  ctx.map = entry->map;
  ctx.packed = entry->packed ? &*entry->packed : nullptr;
  ctx.compact = entry->compact ? &*entry->compact : nullptr;
  ctx.opts = build.remap;
  ctx.mode = build.mode;
  // With the level's block table, a tile's key is the union of its
  // blocks' boxes: the tile shifted into level space, where the window is a
  // part of the LUT, so the key equals source_bbox of the entry's own map.
  core::TileKeyFn tile_key;
  if (build.blocks != nullptr)
    tile_key = [blocks = build.blocks, x0 = key.rect.x0,
                y0 = key.rect.y0](const par::Rect& t) {
      return blocks->bbox({t.x0 + x0, t.y0 + y0, t.x1 + x0, t.y1 + y0});
    };
  entry->plan = core::build_service_plan(ctx, build.tile_w, build.tile_h,
                                         kServePlanName, entry->width,
                                         entry->height, tile_key);

  // Charged: what grows with the window — output pixels, the plan's per-tile
  // slots (tile rect, seconds slot) and any packed/compact conversion. The
  // float map is the pin's, shared with the level or (built without a LUT)
  // standing in for it, so it is charged in neither case.
  std::size_t bytes = entry->out.payload_bytes() +
                      entry->plan.tiles().size() *
                          (sizeof(par::Rect) + sizeof(double));
  if (entry->packed) bytes += entry->packed->bytes();
  if (entry->compact) bytes += entry->compact->bytes();
  entry->bytes = bytes;
  return entry;
}

CachedView* PlanCache::find(const ViewKey& key, std::uint64_t frame) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  CachedView* e = it->second.get();
  e->pinned_frame = frame;
  if (head_ != e) {
    unlink_(e);
    push_front_(e);
  }
  return e;
}

CachedView& PlanCache::insert(std::unique_ptr<CachedView> entry,
                              std::uint64_t frame) {
  CachedView* e = entry.get();
  e->pinned_frame = frame;
  stats_.bytes += e->bytes;
  ++stats_.entries;
  map_[e->key] = std::move(entry);
  push_front_(e);
  trim(frame);
  return *e;
}

void PlanCache::trim(std::uint64_t active_frame) {
  CachedView* e = tail_;
  while (e != nullptr && stats_.bytes > budget_) {
    CachedView* prev = e->lru_prev;
    // Skip entries the in-flight frame is executing; their plan/output
    // must stay alive until the frame retires.
    if (active_frame == 0 || e->pinned_frame != active_frame) {
      stats_.bytes -= e->bytes;
      --stats_.entries;
      ++stats_.evictions;
      unlink_(e);
      map_.erase(e->key);
    }
    e = prev;
  }
}

void PlanCache::flush() {
  stats_.evictions += stats_.entries;
  stats_.entries = 0;
  stats_.bytes = 0;
  head_ = tail_ = nullptr;
  map_.clear();
}

void PlanCache::unlink_(CachedView* e) noexcept {
  if (e->lru_prev != nullptr)
    e->lru_prev->lru_next = e->lru_next;
  else
    head_ = e->lru_next;
  if (e->lru_next != nullptr)
    e->lru_next->lru_prev = e->lru_prev;
  else
    tail_ = e->lru_prev;
  e->lru_prev = e->lru_next = nullptr;
}

void PlanCache::push_front_(CachedView* e) noexcept {
  e->lru_prev = nullptr;
  e->lru_next = head_;
  if (head_ != nullptr) head_->lru_prev = e;
  head_ = e;
  if (tail_ == nullptr) tail_ = e;
}

}  // namespace fisheye::serve

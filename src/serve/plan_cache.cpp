#include "serve/plan_cache.hpp"

#include "util/error.hpp"

namespace fisheye::serve {

namespace {

/// Compact mode pads windows one stride right/bottom (see
/// build_cached_view); the other representations need no padding.
[[nodiscard]] int window_pad(const ViewBuildContext& build) noexcept {
  return build.mode == core::MapMode::CompactLut ? build.compact_stride : 0;
}

/// The `window` region of `lut`, copied row by row.
[[nodiscard]] core::WarpMap crop_map(const core::WarpMap& lut,
                                     par::Rect window) {
  FE_EXPECTS(window.x0 >= 0 && window.y0 >= 0 && window.x1 <= lut.width &&
             window.y1 <= lut.height);
  core::WarpMap map;
  map.width = window.width();
  map.height = window.height();
  map.src_x.reserve(map.pixel_count());
  map.src_y.reserve(map.pixel_count());
  for (int y = window.y0; y < window.y1; ++y) {
    const auto first = static_cast<std::ptrdiff_t>(lut.index(window.x0, y));
    const auto last = first + map.width;
    map.src_x.insert(map.src_x.end(), lut.src_x.begin() + first,
                     lut.src_x.begin() + last);
    map.src_y.insert(map.src_y.end(), lut.src_y.begin() + first,
                     lut.src_y.begin() + last);
  }
  return map;
}

}  // namespace

core::WarpMap build_level_lut(const ViewBuildContext& build, int quantum) {
  FE_EXPECTS(build.camera != nullptr && build.view != nullptr);
  FE_EXPECTS(quantum > 0);
  const auto round_up = [quantum](int v) {
    return (v + quantum - 1) / quantum * quantum;
  };
  const int pad = window_pad(build);
  return core::build_map_window(
      *build.camera, *build.view,
      {0, 0, round_up(build.view->width()) + pad,
       round_up(build.view->height()) + pad});
}

std::unique_ptr<CachedView> build_cached_view(const ViewBuildContext& build,
                                              const ViewKey& key) {
  FE_EXPECTS(build.lut != nullptr ||
             (build.camera != nullptr && build.view != nullptr));
  FE_EXPECTS(!key.rect.empty());
  FE_EXPECTS(build.mode != core::MapMode::OnTheFly);

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
  entry->map = build.lut != nullptr
                   ? crop_map(*build.lut, window)
                   : core::build_map_window(*build.camera, *build.view, window);
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
  // the entry's own output buffer, and the entry's maps — their addresses
  // are final here, so the resolved kernel's bound pointers stay valid for
  // the entry's lifetime. Tiles cover only the served region; the pad rows
  // and columns are never written or read.
  core::ExecContext ctx;
  ctx.src = img::ConstImageView<std::uint8_t>(
      nullptr, build.src_width, build.src_height, build.channels,
      static_cast<std::size_t>(build.src_width) * build.channels);
  ctx.dst = entry->out.view();
  ctx.map = &entry->map;
  ctx.packed = entry->packed ? &*entry->packed : nullptr;
  ctx.compact = entry->compact ? &*entry->compact : nullptr;
  ctx.opts = build.remap;
  ctx.mode = build.mode;
  entry->plan =
      core::build_service_plan(ctx, build.tile_w, build.tile_h,
                               kServePlanName, entry->width, entry->height);

  std::size_t bytes = sizeof(CachedView) + entry->map.bytes();
  if (entry->packed) bytes += entry->packed->bytes();
  if (entry->compact) bytes += entry->compact->bytes();
  bytes += static_cast<std::size_t>(entry->out.view().pitch) *
           entry->out.view().height;
  bytes += entry->plan.tiles().size() *
           (sizeof(par::Rect) + sizeof(std::uint32_t) + sizeof(double));
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

#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "core/backend_registry.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye::serve {

namespace {

[[nodiscard]] bool is_pow2(long long v) noexcept {
  return v > 0 && (v & (v - 1)) == 0;
}

/// Parse "<digits>[K|M|G]" (case-insensitive suffix) into bytes.
[[nodiscard]] std::size_t parse_bytes(const core::BackendSpec& spec,
                                      const std::string& key,
                                      const std::string& text) {
  std::size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits])) != 0)
    ++digits;
  std::size_t shift = 0;
  if (digits == text.size() - 1) {
    switch (std::tolower(static_cast<unsigned char>(text.back()))) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      default: digits = 0; break;  // unknown suffix -> malformed
    }
  } else if (digits != text.size()) {
    digits = 0;
  }
  if (digits == 0 || text.empty())
    throw InvalidArgument("spec '" + spec.text() + "': option '" + key + "=" +
                          text + "' is not <bytes>[K|M|G]");
  long long v = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    v = v * 10 + (text[i] - '0');
    if (v > (std::int64_t{1} << 40))
      throw InvalidArgument("spec '" + spec.text() + "': option '" + key +
                            "=" + text + "' is out of range");
  }
  core::require_spec_range(spec, key, v << shift, 0, std::int64_t{1} << 40);
  return static_cast<std::size_t>(v) << shift;
}

}  // namespace

ServeOptions ServeOptions::parse(const std::string& spec_text) {
  core::BackendSpec spec = core::BackendSpec::parse(spec_text);
  if (spec.kind() != "serve")
    throw InvalidArgument("serve spec '" + spec_text +
                          "': kind must be 'serve'");
  ServeOptions o;
  o.lanes = spec.value_int("lanes", o.lanes);
  core::require_spec_range(spec, "lanes", o.lanes, 1, 64);
  o.queue_depth = static_cast<std::size_t>(
      spec.value_int("queue_depth", static_cast<int>(o.queue_depth)));
  core::require_spec_range(spec, "queue_depth",
                           static_cast<long long>(o.queue_depth), 1, 64);
  o.max_pending = static_cast<std::size_t>(
      spec.value_int("pending", static_cast<int>(o.max_pending)));
  core::require_spec_range(spec, "pending",
                           static_cast<long long>(o.max_pending), 1, 1 << 20);
  if (const auto budget = spec.value("cache_budget"))
    o.cache_budget = parse_bytes(spec, "cache_budget", *budget);
  o.quantum = spec.value_int("quantum", o.quantum);
  core::require_spec_range(spec, "quantum", o.quantum, 1, 256);
  if (!is_pow2(o.quantum))
    throw InvalidArgument("spec '" + spec.text() + "': option 'quantum=" +
                          std::to_string(o.quantum) +
                          "' must be a power of two");
  if (const auto c = spec.value("coalesce")) {
    if (*c == "on")
      o.coalesce = true;
    else if (*c == "off")
      o.coalesce = false;
    else
      throw InvalidArgument("spec '" + spec.text() + "': option 'coalesce=" +
                            *c + "' must be on|off");
  }
  if (const auto m = spec.value("map")) {
    const core::MapChoice choice = core::MapChoice::parse(*m);
    o.map_mode = *choice.mode;
    o.compact_stride = choice.stride;
  }
  o.frac_bits = spec.value_int("frac", o.frac_bits);
  core::require_spec_range(spec, "frac", o.frac_bits, 1, 22);
  const auto [tw, th] = spec.value_dims("tile", o.tile_w, o.tile_h);
  o.tile_w = tw;
  o.tile_h = th;
  core::require_spec_range(spec, "tile", o.tile_w, 8, 512);
  core::require_spec_range(spec, "tile", o.tile_h, 8, 512);
  if (o.map_mode == core::MapMode::CompactLut &&
      o.quantum % o.compact_stride != 0)
    throw InvalidArgument(
        "spec '" + spec.text() + "': option 'quantum=" +
        std::to_string(o.quantum) +
        "' must be a multiple of the compact stride " +
        std::to_string(o.compact_stride) +
        " (windowed grids must stay aligned with the level grid)");
  spec.finish(
      "lanes=<n>, queue_depth=<n>, pending=<n>, cache_budget=<bytes[K|M|G]>, "
      "quantum=<pow2>, coalesce=on|off, map=float|packed|compact:<stride>, "
      "frac=<bits>, tile=<WxH>");
  return o;
}

std::string ServeOptions::spec() const {
  core::SpecBuilder b("serve");
  b.opt("lanes", lanes);
  b.opt("queue_depth", queue_depth);
  b.opt("pending", max_pending);
  b.opt("cache_budget", cache_budget);
  b.opt("quantum", quantum);
  b.opt("coalesce", coalesce ? "on" : "off");
  core::MapChoice map;
  map.mode = map_mode;
  map.stride = compact_stride;
  b.opt(map.spec_text());
  b.opt("frac", frac_bits);
  b.opt("tile",
        std::to_string(tile_w) + "x" + std::to_string(tile_h));
  return b.str();
}

Server::Server(ServerConfig config, ServeOptions options,
               par::ThreadPool& pool)
    : config_(std::move(config)), options_(options), cache_(options.cache_budget) {
  FE_EXPECTS(config_.src_width > 0 && config_.src_height > 0);
  // Field-of-view resolution mirrors CorrectorConfig: an explicit fov_rad
  // overrides the lens spec, otherwise the spec's fov governs.
  if (config_.fov_rad == 0.0) {
    config_.fov_rad = config_.lens.fov_rad();
  } else {
    config_.lens.fov_deg = util::rad_to_deg(config_.fov_rad);
  }
  FE_EXPECTS(config_.fov_rad > 0.0);
  FE_EXPECTS(config_.channels >= 1);
  if (config_.levels.empty())
    throw InvalidArgument("serve::Server: at least one zoom level required");
  if (options_.map_mode != core::MapMode::FloatLut &&
      config_.remap.interp != core::Interp::Bilinear)
    throw InvalidArgument(
        "serve::Server: packed/compact maps require bilinear interpolation");

  camera_ = std::make_unique<core::FisheyeCamera>(core::FisheyeCamera::centered(
      config_.lens, config_.src_width, config_.src_height));
  for (LevelSpec& level : config_.levels) {
    if (level.width <= 0 || level.height <= 0)
      throw InvalidArgument("serve::Server: level dims must be positive");
    if (level.focal == 0.0) level.focal = camera_->lens().dradius_dtheta(0.0);
    level_views_.push_back(std::make_unique<core::PerspectiveView>(
        level.width, level.height, level.focal));
  }
  build_level_luts_();

  // Slot count: one open (accumulating), one active, queue_depth parked.
  slots_.resize(options_.queue_depth + 2);
  for (FrameSlot& s : slots_) {
    s.requests.reserve(options_.max_pending);
    s.views.reserve(options_.max_pending);
  }
  slots_[open_].state = SlotState::Open;
  cluster_entries_.reserve(options_.max_pending);

  // The lanes' frame rings are sized to the per-frame request bound: even
  // if every cluster of a frame hashes to one lane, submits from the
  // dispatch path never block inside a worker's retire callback.
  stream::StreamExecutorOptions exec_opts;
  exec_opts.max_streams = static_cast<std::size_t>(options_.lanes);
  lanes_.resize(static_cast<std::size_t>(options_.lanes));
  exec_ = std::make_unique<stream::StreamExecutor>(pool, exec_opts);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].fifo.resize(options_.max_pending);
    lanes_[i].id = exec_->add_plan_stream(
        [this, i](stream::StreamId, std::uint64_t, double) {
          on_lane_retire_(i);
        },
        options_.max_pending);
  }
}

Server::~Server() {
  // exec_ (declared last) is destroyed first and waits for in-flight
  // frames; everything its retire callbacks touch is still alive then.
}

par::Rect Server::quantize_(par::Rect r) const noexcept {
  const int q = options_.quantum;
  return {(r.x0 / q) * q, (r.y0 / q) * q, ((r.x1 + q - 1) / q) * q,
          ((r.y1 + q - 1) / q) * q};
}

std::size_t Server::tile_count_(par::Rect r) const noexcept {
  const auto div_up = [](int v, int d) { return (v + d - 1) / d; };
  return static_cast<std::size_t>(div_up(r.width(), options_.tile_w)) *
         static_cast<std::size_t>(div_up(r.height(), options_.tile_h));
}

ViewBuildContext Server::build_context_(std::size_t level) const {
  ViewBuildContext build;
  build.camera = camera_.get();
  build.view = level_views_[level].get();
  build.src_width = config_.src_width;
  build.src_height = config_.src_height;
  build.channels = config_.channels;
  build.remap = config_.remap;
  build.mode = options_.map_mode;
  build.compact_stride = options_.compact_stride;
  build.frac_bits = options_.frac_bits;
  build.tile_w = options_.tile_w;
  build.tile_h = options_.tile_h;
  return build;
}

void Server::build_level_luts_() {
  level_luts_.clear();
  level_blocks_.clear();
  for (std::size_t level = 0; level < level_views_.size(); ++level) {
    ViewBuildContext build = build_context_(level);
    level_luts_.push_back(build_level_lut(build, options_.quantum));
    if (options_.map_mode != core::MapMode::FloatLut) continue;
    build.lut = level_luts_.back();
    level_blocks_.push_back(build_level_blocks(build, options_.quantum));
  }
}

std::uint64_t Server::request(int level, par::Rect rect,
                              img::ImageView<std::uint8_t> dst,
                              std::uint64_t tag) {
  if (level < 0 || level >= static_cast<int>(config_.levels.size()))
    throw InvalidArgument("serve::Server: unknown level " +
                          std::to_string(level));
  const LevelSpec& spec = config_.levels[static_cast<std::size_t>(level)];
  if (rect.empty() || rect.x0 < 0 || rect.y0 < 0 || rect.x1 > spec.width ||
      rect.y1 > spec.height)
    throw InvalidArgument("serve::Server: view rect outside level " +
                          std::to_string(level) + " (" +
                          std::to_string(spec.width) + "x" +
                          std::to_string(spec.height) + ")");
  if (dst.width != rect.width() || dst.height != rect.height() ||
      dst.channels != config_.channels)
    throw InvalidArgument(
        "serve::Server: dst must be rect-sized with the server's channels");

  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return slots_[open_].requests.size() < options_.max_pending;
  });
  FrameSlot& slot = slots_[open_];
  Request r;
  r.level = level;
  r.rect = rect;
  r.qrect = quantize_(rect);
  r.dst = dst;
  r.seq = ++req_seq_;
  r.tag = tag;
  r.submit_time = epoch_.elapsed_seconds();
  slot.requests.push_back(r);
  slot.views.push_back({level, r.qrect});
  ++stats_.requests;
  return r.seq;
}

std::uint64_t Server::submit_frame(img::ConstImageView<std::uint8_t> src) {
  FE_EXPECTS(src.width == config_.src_width &&
             src.height == config_.src_height &&
             src.channels == config_.channels);
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t submitted = open_;
  FrameSlot& slot = slots_[submitted];
  slot.src = src;
  slot.frame_id = ++frame_seq_;
  const std::uint64_t fid = slot.frame_id;
  // Claim the dispatcher role NOW, before the free-slot wait drops the
  // lock: if the frame merely went Queued, a worker's complete_frame_
  // could dispatch AND complete it during that wait, and a post-wait
  // `!active_` check would dispatch the same slot a second time.
  bool start = false;
  if (active_)
    slot.state = SlotState::Queued;
  else
    start = activate_locked_(submitted);
  // Reopen: wait for a free slot to accumulate the next frame's requests
  // (backpressure — all slots busy means queue_depth frames are parked).
  cv_.wait(lock, [this] {
    return std::any_of(slots_.begin(), slots_.end(), [](const FrameSlot& s) {
      return s.state == SlotState::Free;
    });
  });
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == SlotState::Free) {
      slots_[i].state = SlotState::Open;
      open_ = i;
      break;
    }
  }
  cv_.notify_all();  // request() waiters now see the fresh open slot
  lock.unlock();
  if (start) dispatch_(submitted);
  return fid;
}

bool Server::activate_locked_(std::size_t slot_index) {
  slots_[slot_index].state = SlotState::Active;
  active_slot_ = slot_index;
  active_ = true;
  // A dispatch_ still returning from the previous frame's submit loop takes
  // this frame over: a second dispatch_ would refill the lane fifos and the
  // cluster table while the first may still be reading them.
  if (dispatching_) {
    handoff_ = true;
    return false;
  }
  dispatching_ = true;
  return true;
}

void Server::dispatch_(std::size_t slot_index) {
  for (;;) {
    submit_clusters_(slot_index);
    const std::scoped_lock lock(mu_);
    if (!handoff_) {
      dispatching_ = false;
      cv_.notify_all();
      return;
    }
    handoff_ = false;
    slot_index = active_slot_;
  }
}

void Server::submit_clusters_(std::size_t slot_index) {
  FrameSlot& slot = slots_[slot_index];
  const std::uint64_t fid = slot.frame_id;

  coalescer_.coalesce(slot.views, options_.coalesce);
  const std::vector<ViewCluster>& clusters = coalescer_.clusters();
  const std::size_t n = clusters.size();
  std::size_t tiles_exec = 0;
  std::size_t tiles_indep = 0;
  for (const QuantizedView& v : slot.views) tiles_indep += tile_count_(v.rect);
  // Hit/miss/eviction counts come from cache_.stats() at frame completion.
  const auto count_frame = [&] {
    const std::scoped_lock lock(mu_);
    ++stats_.frames;
    stats_.clusters += n;
    stats_.tiles_executed += tiles_exec;
    stats_.tiles_requested += tiles_indep;
  };
  if (n == 0) {
    count_frame();
    complete_frame_();
    return;
  }

  // Resolve each cluster through the cache and submit it at once, so the
  // workers execute cluster k while this thread builds the miss of cluster
  // k+1. Three invariants make that safe:
  //  * an entry is pinned to the frame when it is resolved, so the
  //    evictions of later inserts skip every entry already submitted;
  //  * a cluster's lane fifo slot is written before its own submit, and a
  //    lane retires in submit order, so each retire callback reads a slot
  //    written before its cluster was submitted;
  //  * remaining_clusters_ counts the whole frame before the first submit,
  //    so complete_frame_ cannot run before the last one.
  for (Lane& lane : lanes_) {
    lane.tail = 0;
    lane.head = 0;
  }
  cluster_entries_.resize(n);
  remaining_clusters_.store(n, std::memory_order_relaxed);
  for (std::uint32_t c = 0; c < n; ++c) {
    const ViewCluster& cl = clusters[c];
    const ViewKey key{generation_, cl.level, cl.bounds};
    CachedView* e = cache_.find(key, fid);
    if (e == nullptr) {
      const auto level = static_cast<std::size_t>(cl.level);
      ViewBuildContext build = build_context_(level);
      build.lut = level_luts_[level];
      if (!level_blocks_.empty()) build.blocks = &level_blocks_[level];
      e = &cache_.insert(build_cached_view(build, key), fid);
    }
    cluster_entries_[c] = e;
    tiles_exec += e->plan.tiles().size();
    // Coalesced frames round-robin (distinct clusters, any lane works);
    // uncoalesced frames key-hash so duplicate views — same cached plan —
    // serialize on one lane and never execute concurrently.
    Lane& lane =
        lanes_[options_.coalesce ? c % lanes_.size()
                                 : ViewKeyHash{}(key) % lanes_.size()];
    lane.fifo[lane.tail++] = c;
    // The last submit can complete the frame and recycle its slot: the
    // frame's counters go in before it, and nothing is read after it.
    if (c + 1 == n) count_frame();
    exec_->submit(lane.id, e->plan, slot.src, e->out.view());
  }
}

void Server::on_lane_retire_(std::size_t lane_index) {
  Lane& lane = lanes_[lane_index];
  const std::uint32_t c = lane.fifo[lane.head++];
  const FrameSlot& slot = slots_[active_slot_];
  const ViewCluster& cl = coalescer_.clusters()[c];
  const CachedView& e = *cluster_entries_[c];
  const std::vector<std::uint32_t>& members = coalescer_.members();

  const img::ConstImageView<std::uint8_t> out = e.out.cview();
  const int ch = config_.channels;
  double lat_sum = 0.0;
  double lat_max = 0.0;
  for (std::uint32_t m = cl.first; m < cl.first + cl.count; ++m) {
    const Request& r = slot.requests[members[m]];
    const int ox = r.rect.x0 - cl.bounds.x0;
    const int oy = r.rect.y0 - cl.bounds.y0;
    const std::size_t row_bytes =
        static_cast<std::size_t>(r.rect.width()) * ch;
    for (int y = 0; y < r.rect.height(); ++y)
      std::memcpy(r.dst.row(y),
                  out.row(oy + y) + static_cast<std::size_t>(ox) * ch,
                  row_bytes);
    const double lat = epoch_.elapsed_seconds() - r.submit_time;
    lat_sum += lat;
    lat_max = std::max(lat_max, lat);
    if (retire_) retire_(r.seq, r.tag, lat);
  }
  {
    const std::scoped_lock lock(retire_mu_);
    retired_ += cl.count;
    total_latency_ += lat_sum;
    max_latency_ = std::max(max_latency_, lat_max);
  }
  if (remaining_clusters_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    complete_frame_();
}

void Server::complete_frame_() {
  // No entry is executing now; release pins and enforce the byte budget
  // (with cache_budget=0 this is what makes every frame a cold plan).
  cache_.trim(0);

  std::unique_lock<std::mutex> lock(mu_);
  FrameSlot& done = slots_[active_slot_];
  done.requests.clear();
  done.views.clear();
  done.state = SlotState::Free;
  // Snapshot cache counters under mu_: stats() never touches cache_, which
  // only the (unsynchronized) dispatcher chain mutates.
  const PlanCache::Stats& cs = cache_.stats();
  stats_.plan_hits = cs.hits;
  stats_.plan_misses = cs.misses;
  stats_.plan_evictions = cs.evictions;
  stats_.cache_bytes = cs.bytes;
  stats_.cache_entries = cs.entries;

  // Oldest queued frame dispatches next, on this (worker) thread.
  std::size_t next = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state != SlotState::Queued) continue;
    if (next == slots_.size() ||
        slots_[i].frame_id < slots_[next].frame_id)
      next = i;
  }
  if (next == slots_.size()) {
    active_ = false;
    cv_.notify_all();
    return;
  }
  const bool start = activate_locked_(next);
  cv_.notify_all();
  lock.unlock();
  if (start) dispatch_(next);
}

void Server::drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    wait_idle_locked_(lock);
  }
  exec_->drain();  // rethrow the first kernel error, if any
}

void Server::wait_idle_locked_(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [this] {
    return !active_ && !dispatching_ &&
           std::none_of(slots_.begin(), slots_.end(), [](const FrameSlot& s) {
             return s.state == SlotState::Queued;
           });
  });
}

void Server::recalibrate(const core::LensSpec& lens) {
  std::unique_lock<std::mutex> lock(mu_);
  wait_idle_locked_(lock);
  config_.lens = lens;
  config_.fov_rad = lens.fov_rad();
  camera_ = std::make_unique<core::FisheyeCamera>(core::FisheyeCamera::centered(
      lens, config_.src_width, config_.src_height));
  // Flush first, so the rebuild drops the last handles to the old LUTs
  // instead of keeping two calibrations' tables alive.
  cache_.flush();
  build_level_luts_();
  ++generation_;  // old cached views are invalid by key from here on
  stats_.plan_evictions = cache_.stats().evictions;
  stats_.cache_bytes = 0;
  stats_.cache_entries = 0;
}

void Server::recalibrate(core::LensKind lens, double fov_rad) {
  FE_EXPECTS(fov_rad > 0.0);
  core::LensSpec spec(lens);
  spec.fov_deg = util::rad_to_deg(fov_rad);
  recalibrate(spec);
}

rt::ServeStats Server::stats() const {
  rt::ServeStats out;
  {
    const std::scoped_lock lock(mu_);
    out = stats_;
  }
  {
    const std::scoped_lock lock(retire_mu_);
    out.retired = retired_;
    out.total_latency_seconds = total_latency_;
    out.max_latency_seconds = max_latency_;
  }
  return out;
}

}  // namespace fisheye::serve

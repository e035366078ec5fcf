// serve::Server contract tests.
//
// The load-bearing property is crop exactness: whatever the server does
// internally — rect quantization, duplicate collapsing, overlap merging,
// plan caching, lane fan-out — every client crop must be bit-exact equal
// to the corresponding region of an independently corrected full view of
// the same level, in the same map representation. The suite checks that
// across all three representations with randomized overlapping PTZ rects,
// plus the cache (LRU, byte budget, counters), the coalescing benefit
// counters, spec parsing, recalibration, and pipeline bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/corrector.hpp"
#include "image/image.hpp"
#include "serve/coalesce.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye {
namespace {

using serve::ServeOptions;
using serve::Server;
using serve::ServerConfig;

constexpr int kSrcW = 320;
constexpr int kSrcH = 240;

img::Image8 make_src(int w = kSrcW, int h = kSrcH, int ch = 1) {
  img::Image8 src(w, h, ch);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* row = src.row(y);
    for (int x = 0; x < w * ch; ++x)
      row[x] = static_cast<std::uint8_t>((x * 7 + y * 13 + x * y / 9) & 0xFF);
  }
  return src;
}

ServerConfig base_config() {
  ServerConfig cfg;
  cfg.src_width = kSrcW;
  cfg.src_height = kSrcH;
  cfg.lens = core::LensKind::Equidistant;
  cfg.fov_rad = util::deg_to_rad(180.0);
  cfg.levels = {{256, 192, 0.0}, {256, 192, 140.0}};
  return cfg;
}

/// Independently corrected full view of one level, through the same
/// representation the server runs — the ground truth server crops must
/// match bit-exactly.
img::Image8 reference_level(const ServerConfig& cfg, const ServeOptions& opt,
                            int level, img::ConstImageView<std::uint8_t> src) {
  core::LensSpec lens = cfg.lens;
  if (cfg.fov_rad != 0.0) lens.fov_deg = util::rad_to_deg(cfg.fov_rad);
  const auto cam =
      core::FisheyeCamera::centered(lens, cfg.src_width, cfg.src_height);
  const serve::LevelSpec& spec = cfg.levels[static_cast<std::size_t>(level)];
  const double focal =
      spec.focal == 0.0 ? cam.lens().dradius_dtheta(0.0) : spec.focal;
  const core::PerspectiveView view(spec.width, spec.height, focal);
  const core::WarpMap map = core::build_map(cam, view);
  std::optional<core::PackedMap> packed;
  std::optional<core::CompactMap> compact;
  if (opt.map_mode == core::MapMode::PackedLut)
    packed = core::pack_map(map, cfg.src_width, cfg.src_height, opt.frac_bits);
  if (opt.map_mode == core::MapMode::CompactLut)
    compact = core::compact_map(map, cfg.src_width, cfg.src_height,
                                opt.compact_stride, opt.frac_bits);

  img::Image8 out(spec.width, spec.height, cfg.channels);
  core::ExecContext ctx;
  ctx.src = src;
  ctx.dst = out.view();
  ctx.map = map;
  ctx.packed = packed ? &*packed : nullptr;
  ctx.compact = compact ? &*compact : nullptr;
  ctx.opts = cfg.remap;
  ctx.mode = opt.map_mode;
  const core::ExecutionPlan plan =
      core::build_service_plan(ctx, opt.tile_w, opt.tile_h, "ref");
  for (const par::Rect& tile : plan.tiles()) plan.kernel()(ctx.src, ctx.dst, tile);
  return out;
}

int mismatches(img::ConstImageView<std::uint8_t> full, par::Rect rect,
               img::ConstImageView<std::uint8_t> crop, int ch) {
  int bad = 0;
  for (int y = 0; y < rect.height(); ++y) {
    const std::uint8_t* a =
        full.row(rect.y0 + y) + static_cast<std::size_t>(rect.x0) * ch;
    const std::uint8_t* b = crop.row(y);
    for (int x = 0; x < rect.width() * ch; ++x)
      if (a[x] != b[x]) ++bad;
  }
  return bad;
}

/// Random PTZ rects kept clear of the level's right/bottom edges: the full
/// level's compact grid extrapolates its trailing line there while a
/// windowed grid samples it, so only the interior is representation-exact.
par::Rect random_rect(std::mt19937& rng, const serve::LevelSpec& level,
                      int margin) {
  std::uniform_int_distribution<int> wd(24, 100);
  std::uniform_int_distribution<int> hd(20, 80);
  const int w = wd(rng), h = hd(rng);
  std::uniform_int_distribution<int> xd(0, level.width - w - margin);
  std::uniform_int_distribution<int> yd(0, level.height - h - margin);
  const int x = xd(rng), y = yd(rng);
  return {x, y, x + w, y + h};
}

void check_random_views_exact(const std::string& spec_text) {
  const img::Image8 src = make_src();
  const ServerConfig cfg = base_config();
  const ServeOptions opt = ServeOptions::parse(spec_text);
  par::ThreadPool pool(4);
  Server server(cfg, opt, pool);

  std::vector<img::Image8> refs;
  for (int l = 0; l < static_cast<int>(cfg.levels.size()); ++l)
    refs.push_back(reference_level(cfg, opt, l, src.cview()));

  std::mt19937 rng(1234);
  const int margin = 2 * opt.quantum;
  struct Pending {
    int level;
    par::Rect rect;
    img::Image8 crop;
  };
  for (int frame = 0; frame < 3; ++frame) {
    std::vector<Pending> pending;
    pending.reserve(24);
    for (int i = 0; i < 24; ++i) {
      const int level = i % static_cast<int>(cfg.levels.size());
      const par::Rect r =
          random_rect(rng, cfg.levels[static_cast<std::size_t>(level)], margin);
      pending.push_back({level, r, img::Image8(r.width(), r.height(), 1)});
    }
    // A couple of exact duplicates and contained rects per frame.
    pending.push_back({pending[0].level, pending[0].rect,
                       img::Image8(pending[0].rect.width(),
                                   pending[0].rect.height(), 1)});
    for (Pending& p : pending) server.request(p.level, p.rect, p.crop.view());
    server.submit_frame(src.cview());
    server.drain();
    for (const Pending& p : pending)
      EXPECT_EQ(0, mismatches(refs[static_cast<std::size_t>(p.level)].cview(),
                              p.rect, p.crop.cview(), 1))
          << spec_text << " level " << p.level << " frame " << frame;
  }
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3u * 25u);
  EXPECT_EQ(stats.retired, 3u * 25u);
  EXPECT_EQ(stats.frames, 3u);
}

TEST(ServeExactness, FloatMapRandomOverlappingViews) {
  check_random_views_exact("serve:lanes=2,quantum=16,map=float");
}

TEST(ServeExactness, PackedMapRandomOverlappingViews) {
  check_random_views_exact("serve:lanes=2,quantum=16,map=packed");
}

TEST(ServeExactness, CompactMapRandomOverlappingViews) {
  check_random_views_exact("serve:lanes=2,quantum=16,map=compact:8");
}

/// Windows that touch a level's right and bottom edges, on levels whose
/// dims are not multiples of the quantum: quantized rects then reach past
/// the level (250 -> 256, 180 -> 192), and compact windows one stride
/// further, so the level LUT must cover the whole quantized domain.
void check_edge_windows_exact(const std::string& spec_text) {
  const img::Image8 src = make_src();
  ServerConfig cfg = base_config();
  cfg.levels = {{250, 180, 0.0}, {250, 180, 140.0}};
  const ServeOptions opt = ServeOptions::parse(spec_text);
  const int w = 250, h = 180;
  const std::vector<par::Rect> rects = {
      {w - 72, h - 56, w, h},  // bottom-right corner
      {0, h - 40, 88, h},      // bottom edge
      {w - 40, 8, w, 70},      // right edge
      {0, 0, w, h}};           // the whole level
  const auto quantize = [q = opt.quantum](par::Rect r) {
    return par::Rect{(r.x0 / q) * q, (r.y0 / q) * q,
                     ((r.x1 + q - 1) / q) * q, ((r.y1 + q - 1) / q) * q};
  };

  // Entries reading their window of the level LUT see the same entries as
  // entries evaluated from the camera math, row by row.
  core::LensSpec lens = cfg.lens;
  lens.fov_deg = util::rad_to_deg(cfg.fov_rad);
  const auto cam = core::FisheyeCamera::centered(lens, kSrcW, kSrcH);
  for (int l = 0; l < 2; ++l) {
    const serve::LevelSpec& spec = cfg.levels[static_cast<std::size_t>(l)];
    const core::PerspectiveView view(
        w, h, spec.focal == 0.0 ? cam.lens().dradius_dtheta(0.0) : spec.focal);
    serve::ViewBuildContext scratch;
    scratch.camera = &cam;
    scratch.view = &view;
    scratch.src_width = kSrcW;
    scratch.src_height = kSrcH;
    scratch.mode = opt.map_mode;
    scratch.compact_stride = opt.compact_stride;
    scratch.frac_bits = opt.frac_bits;
    serve::ViewBuildContext from_lut = scratch;
    from_lut.lut = serve::build_level_lut(scratch, opt.quantum);
    for (const par::Rect& r : rects) {
      const serve::ViewKey key{1, l, quantize(r)};
      const auto a = serve::build_cached_view(scratch, key);
      const auto b = serve::build_cached_view(from_lut, key);
      ASSERT_EQ(a->map.width, b->map.width);
      ASSERT_EQ(a->map.height, b->map.height);
      EXPECT_EQ(b->pin, from_lut.lut);
      const std::size_t row_bytes =
          static_cast<std::size_t>(a->map.width) * sizeof(float);
      for (int y = 0; y < a->map.height; ++y) {
        EXPECT_EQ(0, std::memcmp(a->map.src_x + a->map.index(0, y),
                                 b->map.src_x + b->map.index(0, y), row_bytes))
            << spec_text << " level " << l << " row " << y;
        EXPECT_EQ(0, std::memcmp(a->map.src_y + a->map.index(0, y),
                                 b->map.src_y + b->map.index(0, y), row_bytes))
            << spec_text << " level " << l << " row " << y;
      }
      ASSERT_EQ(a->packed.has_value(), b->packed.has_value());
      if (a->packed) {
        EXPECT_EQ(a->packed->fx, b->packed->fx) << spec_text;
        EXPECT_EQ(a->packed->fy, b->packed->fy) << spec_text;
      }
      ASSERT_EQ(a->compact.has_value(), b->compact.has_value());
      if (a->compact) {
        EXPECT_EQ(a->compact->gx, b->compact->gx) << spec_text;
        EXPECT_EQ(a->compact->gy, b->compact->gy) << spec_text;
      }
    }
  }

  // Served crops match the full level, one frame per rect so that each
  // is served from its own cluster (the whole level would absorb the
  // others). The full level's compact grid extrapolates its trailing line
  // where a window samples it, so in compact mode only the part of each
  // crop clear of that margin compares.
  par::ThreadPool pool(2);
  Server server(cfg, opt, pool);
  const int margin =
      opt.map_mode == core::MapMode::CompactLut ? 2 * opt.quantum : 0;
  const img::Image8 refs[] = {reference_level(cfg, opt, 0, src.cview()),
                              reference_level(cfg, opt, 1, src.cview())};
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const par::Rect r = rects[i];
    std::vector<img::Image8> crops;
    crops.reserve(2);
    for (int l = 0; l < 2; ++l) {
      crops.emplace_back(r.width(), r.height(), 1);
      server.request(l, r, crops.back().view());
    }
    server.submit_frame(src.cview());
    server.drain();
    const par::Rect exact{r.x0, r.y0, std::min(r.x1, w - margin),
                          std::min(r.y1, h - margin)};
    for (int l = 0; l < 2; ++l) {
      const img::ConstImageView<std::uint8_t> crop =
          crops[static_cast<std::size_t>(l)].cview();
      const img::ConstImageView<std::uint8_t> part(
          crop.row(0), exact.width(), exact.height(), 1, crop.pitch);
      EXPECT_EQ(0, mismatches(refs[l].cview(), exact, part, 1))
          << spec_text << " level " << l << " rect " << i;
    }
  }
}

TEST(ServeExactness, FloatMapEdgeWindows) {
  check_edge_windows_exact("serve:lanes=2,quantum=16,map=float");
}

TEST(ServeExactness, PackedMapEdgeWindows) {
  check_edge_windows_exact("serve:lanes=2,quantum=16,map=packed");
}

TEST(ServeExactness, CompactMapEdgeWindows) {
  check_edge_windows_exact("serve:lanes=2,quantum=16,map=compact:8");
}

TEST(ServeExactness, CoalescedAndUncoalescedServeIdenticalCrops) {
  const img::Image8 src = make_src();
  const ServerConfig cfg = base_config();
  // One pool per server: a server's executor takes every lane of its pool.
  par::ThreadPool pool_on(2), pool_off(2);
  Server on(cfg, ServeOptions::parse("serve:coalesce=on"), pool_on);
  Server off(cfg, ServeOptions::parse("serve:coalesce=off"), pool_off);

  std::mt19937 rng(77);
  std::vector<par::Rect> rects;
  for (int i = 0; i < 16; ++i)
    rects.push_back(random_rect(rng, cfg.levels[0], 32));
  rects.push_back(rects[2]);  // duplicate
  rects.push_back(rects[5]);

  std::vector<img::Image8> crops_on, crops_off;
  for (const par::Rect& r : rects) {
    crops_on.emplace_back(r.width(), r.height(), 1);
    crops_off.emplace_back(r.width(), r.height(), 1);
  }
  for (std::size_t i = 0; i < rects.size(); ++i) {
    on.request(0, rects[i], crops_on[i].view());
    off.request(0, rects[i], crops_off[i].view());
  }
  on.submit_frame(src.cview());
  off.submit_frame(src.cview());
  on.drain();
  off.drain();

  for (std::size_t i = 0; i < rects.size(); ++i) {
    const par::Rect local{0, 0, rects[i].width(), rects[i].height()};
    EXPECT_EQ(0, mismatches(crops_on[i].cview(), local, crops_off[i].cview(),
                            1))
        << "rect " << i;
  }
  // The coalesced server did strictly less kernel work for the same crops.
  const rt::ServeStats a = on.stats(), b = off.stats();
  EXPECT_LT(a.clusters, b.clusters);
  EXPECT_LT(a.tiles_executed, b.tiles_executed);
  EXPECT_EQ(a.tiles_requested, b.tiles_requested);
}

// --- coalescing bookkeeping -------------------------------------------------

TEST(ServeCoalescing, DuplicatesCollapseToOneClusterAndOnePlan) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(2);
  Server server(base_config(), ServeOptions::parse("serve:lanes=2"), pool);

  const par::Rect r{32, 32, 128, 112};
  std::vector<img::Image8> crops;
  for (int i = 0; i < 8; ++i) crops.emplace_back(r.width(), r.height(), 1);
  for (img::Image8& c : crops) server.request(0, r, c.view());
  server.submit_frame(src.cview());
  server.drain();

  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.retired, 8u);
  EXPECT_EQ(stats.clusters, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 0u);
  // The saved-work counter: 8 requests' worth of tiles asked, one ran.
  EXPECT_EQ(stats.tiles_requested, 8u * stats.tiles_executed);
  for (std::size_t i = 1; i < crops.size(); ++i) {
    const par::Rect local{0, 0, r.width(), r.height()};
    EXPECT_EQ(0,
              mismatches(crops[0].cview(), local, crops[i].cview(), 1));
  }
}

TEST(ServeCoalescing, OverlapMergeNeverInflatesWork) {
  // Two heavily overlapping rects merge (union area <= sum); two disjoint
  // far-apart rects do not.
  serve::Coalescer co;
  const std::vector<serve::QuantizedView> overlapping = {
      {0, {0, 0, 64, 64}}, {0, {16, 16, 80, 80}}};
  co.coalesce(overlapping, true);
  ASSERT_EQ(co.clusters().size(), 1u);
  EXPECT_EQ(co.clusters()[0].bounds, (par::Rect{0, 0, 80, 80}));
  EXPECT_EQ(co.clusters()[0].count, 2u);

  const std::vector<serve::QuantizedView> disjoint = {
      {0, {0, 0, 32, 32}}, {0, {128, 128, 160, 160}}};
  co.coalesce(disjoint, true);
  EXPECT_EQ(co.clusters().size(), 2u);

  // Barely-touching rects whose union bbox would inflate the pixel count
  // stay separate (the no-extra-work guard).
  const std::vector<serve::QuantizedView> corner = {
      {0, {0, 0, 32, 32}}, {0, {31, 31, 96, 96}}};
  co.coalesce(corner, true);
  EXPECT_EQ(co.clusters().size(), 2u);
}

TEST(ServeCoalescing, MembersPartitionTheRequests) {
  serve::Coalescer co;
  std::vector<serve::QuantizedView> views;
  std::mt19937 rng(9);
  std::uniform_int_distribution<int> pos(0, 12);
  for (int i = 0; i < 40; ++i) {
    const int x = pos(rng) * 16, y = pos(rng) * 16;
    views.push_back({i % 2, {x, y, x + 48, y + 48}});
  }
  co.coalesce(views, true);
  std::vector<int> seen(views.size(), 0);
  std::uint32_t total = 0;
  for (const serve::ViewCluster& cl : co.clusters()) {
    total += cl.count;
    for (std::uint32_t m = cl.first; m < cl.first + cl.count; ++m) {
      const std::uint32_t req = co.members()[m];
      ++seen[req];
      // Every member's rect lies inside its cluster bounds, same level.
      EXPECT_EQ(views[req].level, cl.level);
      EXPECT_GE(views[req].rect.x0, cl.bounds.x0);
      EXPECT_GE(views[req].rect.y0, cl.bounds.y0);
      EXPECT_LE(views[req].rect.x1, cl.bounds.x1);
      EXPECT_LE(views[req].rect.y1, cl.bounds.y1);
    }
  }
  EXPECT_EQ(total, views.size());
  for (const int s : seen) EXPECT_EQ(s, 1);
}

// --- plan cache -------------------------------------------------------------

TEST(ServePlanCache, WarmFramesHitAndStayWithinBudget) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(2);
  Server server(base_config(),
                ServeOptions::parse("serve:cache_budget=128M"), pool);

  const par::Rect r{16, 16, 144, 128};
  img::Image8 crop(r.width(), r.height(), 1);
  for (int frame = 0; frame < 5; ++frame) {
    server.request(0, r, crop.view());
    server.submit_frame(src.cview());
  }
  server.drain();
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.plan_misses, 1u);  // cold on frame 0 only
  EXPECT_EQ(stats.plan_hits, 4u);
  EXPECT_EQ(stats.plan_evictions, 0u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GT(stats.cache_bytes, 0u);
}

TEST(ServePlanCache, ByteBudgetEvictsLeastRecentlyUsed) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(2);
  // 32 KB budget: a 128x96 float-map view costs ~12.6 KB (output pixels +
  // plan tiles; its map is a window of the level LUT), so only two entries
  // ever fit and older ones must evict.
  Server server(base_config(),
                ServeOptions::parse("serve:cache_budget=32K"), pool);

  img::Image8 crop(128, 96, 1);
  for (int i = 0; i < 4; ++i) {
    const int x = 16 * i;
    server.request(0, {x, 0, x + 128, 96}, crop.view());
    server.submit_frame(src.cview());
  }
  server.drain();
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.plan_misses, 4u);
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_GE(stats.plan_evictions, 2u);
  EXPECT_LE(stats.cache_bytes, std::size_t{32} << 10);
}

TEST(ServePlanCache, ZeroBudgetServesColdButCorrect) {
  const img::Image8 src = make_src();
  const ServerConfig cfg = base_config();
  const ServeOptions opt = ServeOptions::parse("serve:cache_budget=0");
  par::ThreadPool pool(2);
  Server server(cfg, opt, pool);
  const img::Image8 ref = reference_level(cfg, opt, 0, src.cview());

  const par::Rect r{32, 16, 160, 112};
  img::Image8 crop(r.width(), r.height(), 1);
  for (int frame = 0; frame < 3; ++frame) {
    server.request(0, r, crop.view());
    server.submit_frame(src.cview());
    server.drain();
    EXPECT_EQ(0, mismatches(ref.cview(), r, crop.cview(), 1));
  }
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.plan_misses, 3u);  // nothing survives a zero budget
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(ServePlanCache, RecalibrateBumpsGenerationAndFlushes) {
  const img::Image8 src = make_src();
  const ServerConfig cfg = base_config();
  par::ThreadPool pool(2);
  Server server(cfg, ServeOptions::parse("serve"), pool);
  EXPECT_EQ(server.generation(), 1u);

  const par::Rect r{32, 32, 160, 128};
  img::Image8 before(r.width(), r.height(), 1);
  img::Image8 after(r.width(), r.height(), 1);
  server.request(0, r, before.view());
  server.submit_frame(src.cview());
  server.drain();

  server.recalibrate(core::LensKind::Equisolid, cfg.fov_rad);
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_EQ(server.stats().cache_entries, 0u);

  server.request(0, r, after.view());
  server.submit_frame(src.cview());
  server.drain();
  EXPECT_EQ(server.stats().plan_misses, 2u);  // old entry unusable by key

  // The level's focal was resolved against the original lens at
  // construction and stays fixed across recalibration; server.config()
  // carries both the resolved focal and the new lens.
  const img::Image8 ref =
      reference_level(server.config(), server.options(), 0, src.cview());
  EXPECT_EQ(0, mismatches(ref.cview(), r, after.cview(), 1));
  const par::Rect local{0, 0, r.width(), r.height()};
  EXPECT_NE(0, mismatches(before.cview(), local, after.cview(), 1));
}

TEST(ServePlanCache, EntryKeepsItsLevelLutAlive) {
  // An entry reads its window of the level LUT in place, so it must own a
  // share of that LUT: with every other handle dropped (as recalibrate()
  // drops the server's), the entry holds the last one and its plan still
  // executes exactly; under ASan, a read of a freed table fails here.
  const img::Image8 src = make_src();
  const ServerConfig cfg = base_config();
  const ServeOptions opt = ServeOptions::parse("serve");
  const img::Image8 ref = reference_level(cfg, opt, 0, src.cview());

  core::LensSpec lens = cfg.lens;
  lens.fov_deg = util::rad_to_deg(cfg.fov_rad);
  const auto cam = core::FisheyeCamera::centered(lens, kSrcW, kSrcH);
  const serve::LevelSpec& level = cfg.levels[0];
  const core::PerspectiveView view(level.width, level.height,
                                   cam.lens().dradius_dtheta(0.0));
  serve::ViewBuildContext build;
  build.camera = &cam;
  build.view = &view;
  build.src_width = kSrcW;
  build.src_height = kSrcH;
  build.lut = serve::build_level_lut(build, opt.quantum);
  const std::weak_ptr<const core::WarpMap> lut = build.lut;

  const serve::ViewKey key{1, 0, {32, 16, 160, 112}};
  auto entry = serve::build_cached_view(build, key);
  build.lut.reset();
  ASSERT_EQ(lut.use_count(), 1);  // the entry's pin is the last handle

  for (const par::Rect& tile : entry->plan.tiles())
    entry->plan.kernel()(src.cview(), entry->out.view(), tile);
  EXPECT_EQ(0, mismatches(ref.cview(), key.rect, entry->out.cview(), 1));
  entry.reset();
  EXPECT_TRUE(lut.expired());
}

/// Plans keyed through the level's BlockTable order their tiles exactly as
/// plans keyed by scanning the window's map: same rects, same order. Levels
/// are 250x180, so windows touching the right/bottom edges end past the
/// level (on the quantized LUT edge), and tile widths that are not
/// multiples of the quantum (24x16, 48x48 at quantum 32) need blocks finer
/// than the quantum.
TEST(ServePlanCache, BlockTableTileOrderMatchesPerPixelKeys) {
  constexpr int kW = 250, kH = 180;
  core::LensSpec lens(core::LensKind::Equidistant);
  lens.fov_deg = 180.0;
  const auto cam = core::FisheyeCamera::centered(lens, kSrcW, kSrcH);
  std::mt19937 rng(4242);
  std::size_t compared = 0, reordered = 0;
  for (const double focal : {cam.lens().dradius_dtheta(0.0), 140.0}) {
    const core::PerspectiveView view(kW, kH, focal);
    for (const int q : {8, 16, 32}) {
      const auto quantize = [q](par::Rect r) {
        return par::Rect{(r.x0 / q) * q, (r.y0 / q) * q,
                         ((r.x1 + q - 1) / q) * q, ((r.y1 + q - 1) / q) * q};
      };
      std::vector<par::Rect> windows = {{kW - 72, kH - 56, kW, kH},
                                        {0, kH - 40, 88, kH},
                                        {kW - 40, 8, kW, 70},
                                        {0, 0, kW, kH}};
      for (int i = 0; i < 16; ++i) {
        std::uniform_int_distribution<int> wd(8, 160), hd(8, 120);
        const int w = wd(rng), h = hd(rng);
        const int x = std::uniform_int_distribution<int>(0, kW - w)(rng);
        const int y = std::uniform_int_distribution<int>(0, kH - h)(rng);
        windows.push_back({x, y, x + w, y + h});
      }
      for (const auto& [tw, th] : {std::pair{32, 32}, std::pair{24, 16},
                                   std::pair{48, 48}, std::pair{16, 40}}) {
        serve::ViewBuildContext scan;
        scan.camera = &cam;
        scan.view = &view;
        scan.src_width = kSrcW;
        scan.src_height = kSrcH;
        scan.tile_w = tw;
        scan.tile_h = th;
        scan.lut = serve::build_level_lut(scan, q);
        const serve::BlockTable blocks = serve::build_level_blocks(scan, q);
        serve::ViewBuildContext keyed = scan;
        keyed.blocks = &blocks;
        for (const par::Rect& w : windows) {
          const serve::ViewKey key{1, 0, quantize(w)};
          const auto a = serve::build_cached_view(scan, key);
          const auto b = serve::build_cached_view(keyed, key);
          ASSERT_EQ(a->plan.tiles(), b->plan.tiles())
              << "quantum " << q << " tile " << tw << "x" << th << " focal "
              << focal << " rect " << key.rect.x0 << "," << key.rect.y0
              << "-" << key.rect.x1 << "," << key.rect.y1;
          ++compared;
          const std::vector<par::Rect> raster =
              par::partition(key.rect.width(), key.rect.height(),
                             par::PartitionKind::Tiles, 0, tw, th);
          if (raster != b->plan.tiles()) ++reordered;
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 3u * 4u * 20u);
  // The comparison means something only if ordering moved tiles.
  EXPECT_GT(reordered, compared / 4);
}

// --- pipeline ---------------------------------------------------------------

TEST(ServePipeline, EmptyFrameCompletes) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(2);
  Server server(base_config(), ServeOptions::parse("serve"), pool);
  server.submit_frame(src.cview());
  server.submit_frame(src.cview());
  server.drain();
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.frames, 2u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST(ServePipeline, RetireCallbackSeesEveryRequestWithLatency) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(4);
  Server server(base_config(), ServeOptions::parse("serve:lanes=4"), pool);

  std::mutex mu;
  std::vector<std::uint64_t> tags;
  server.set_retire([&](std::uint64_t seq, std::uint64_t tag, double lat) {
    const std::scoped_lock lock(mu);
    EXPECT_GT(seq, 0u);
    EXPECT_GE(lat, 0.0);
    tags.push_back(tag);
  });

  std::vector<img::Image8> crops;
  for (int i = 0; i < 12; ++i) crops.emplace_back(64, 48, 1);
  for (int frame = 0; frame < 2; ++frame) {
    for (int i = 0; i < 6; ++i) {
      const int x = 16 * i, tag = frame * 6 + i;
      server.request(0, {x, 0, x + 64, 48},
                     crops[static_cast<std::size_t>(tag)].view(),
                     static_cast<std::uint64_t>(tag) + 100);
    }
    server.submit_frame(src.cview());
  }
  server.drain();
  std::sort(tags.begin(), tags.end());
  ASSERT_EQ(tags.size(), 12u);
  for (std::size_t i = 0; i < tags.size(); ++i) EXPECT_EQ(tags[i], i + 100);
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.retired, 12u);
  EXPECT_GT(stats.total_latency_seconds, 0.0);
  EXPECT_GE(stats.max_latency_seconds,
            stats.total_latency_seconds / static_cast<double>(stats.retired));
}

TEST(ServePipeline, ManyQueuedFramesRetireInOrderUnderBackpressure) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(4);
  Server server(base_config(),
                ServeOptions::parse("serve:queue_depth=2,lanes=2"), pool);

  img::Image8 crop(96, 80, 1);
  for (int frame = 0; frame < 12; ++frame) {
    const int x = 16 * (frame % 5);
    server.request(0, {x, 16, x + 96, 96}, crop.view(),
                   static_cast<std::uint64_t>(frame));
    server.submit_frame(src.cview());
  }
  server.drain();
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.frames, 12u);
  EXPECT_EQ(stats.retired, 12u);
  EXPECT_EQ(stats.plan_misses, 5u);
  EXPECT_EQ(stats.plan_hits, 7u);
}

TEST(ServePipeline, BackToBackFramesRetireEveryRequestOnce) {
  // Frames of one or two one-tile views, submitted without draining, so
  // queued frames dispatch from the worker that completes the previous
  // frame while that frame's dispatcher may still be returning from its
  // submit loop. Each tag must retire exactly once.
  const img::Image8 src = make_src();
  par::ThreadPool pool(4);
  Server server(base_config(),
                ServeOptions::parse("serve:lanes=4,queue_depth=4,tile=16x16"),
                pool);
  constexpr int kFrames = 3000;
  std::vector<std::atomic<int>> retired(2 * kFrames);
  server.set_retire([&retired](std::uint64_t, std::uint64_t tag, double) {
    retired[tag].fetch_add(1, std::memory_order_relaxed);
  });

  img::Image8 crop_a(16, 16, 1), crop_b(16, 16, 1);
  std::size_t requests = 0;
  for (int f = 0; f < kFrames; ++f) {
    const auto tag = static_cast<std::uint64_t>(2 * f);
    server.request(0, {0, 0, 16, 16}, crop_a.view(), tag);
    ++requests;
    if (f % 2 == 1) {
      server.request(0, {128, 96, 144, 112}, crop_b.view(), tag + 1);
      ++requests;
    }
    server.submit_frame(src.cview());
  }
  server.drain();

  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(retired[static_cast<std::size_t>(2 * f)].load(), 1)
        << "frame " << f;
    EXPECT_EQ(retired[static_cast<std::size_t>(2 * f + 1)].load(),
              f % 2 == 1 ? 1 : 0)
        << "frame " << f;
  }
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.frames, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(stats.requests, requests);
  EXPECT_EQ(stats.retired, requests);
}

TEST(ServePipeline, OverlappedMissesUnderEvictionRetireOnceAndExact) {
  // Five 40x36 views on two levels, shifted every frame, 400 frames back
  // to back without drain(). No entry fits the 2 KB budget (the smallest,
  // a 48x48 quantized window, holds 2.3 KB of output pixels), so every
  // frame's clusters miss: each one is built, inserted and submitted while
  // the frame's earlier clusters execute, and each insert evicts whatever
  // is not pinned. Every tag must retire once with an exact crop.
  const img::Image8 src = make_src();
  const ServerConfig cfg = base_config();
  const ServeOptions opt = ServeOptions::parse(
      "serve:lanes=4,queue_depth=4,cache_budget=2K,tile=16x16");
  par::ThreadPool pool(4);
  Server server(cfg, opt, pool);
  const img::Image8 refs[] = {reference_level(cfg, opt, 0, src.cview()),
                              reference_level(cfg, opt, 1, src.cview())};

  constexpr int kFrames = 400, kViews = 5, kW = 40, kH = 36;
  std::vector<std::atomic<int>> retired(kFrames * kViews);
  server.set_retire([&retired](std::uint64_t, std::uint64_t tag, double) {
    retired[tag].fetch_add(1, std::memory_order_relaxed);
  });
  struct View {
    int level;
    par::Rect rect;
  };
  std::vector<View> views;
  std::vector<img::Image8> crops;
  views.reserve(kFrames * kViews);
  crops.reserve(kFrames * kViews);
  for (int f = 0; f < kFrames; ++f) {
    for (int v = 0; v < kViews; ++v) {
      const serve::LevelSpec& level =
          cfg.levels[static_cast<std::size_t>(v % 2)];
      const int x = (f * 7 + v * 53) % (level.width - kW);
      const int y = (f * 5 + v * 37) % (level.height - kH);
      views.push_back({v % 2, {x, y, x + kW, y + kH}});
      crops.emplace_back(kW, kH, 1);
      server.request(views.back().level, views.back().rect,
                     crops.back().view(),
                     static_cast<std::uint64_t>(f * kViews + v));
    }
    server.submit_frame(src.cview());
  }
  server.drain();

  for (std::size_t t = 0; t < views.size(); ++t) {
    EXPECT_EQ(retired[t].load(), 1) << "tag " << t;
    EXPECT_EQ(0, mismatches(refs[views[t].level].cview(), views[t].rect,
                            crops[t].cview(), 1))
        << "tag " << t;
  }
  const rt::ServeStats stats = server.stats();
  EXPECT_EQ(stats.frames, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(stats.retired, views.size());
  EXPECT_GT(stats.plan_misses, static_cast<std::size_t>(kFrames));
}

// --- request validation -----------------------------------------------------

TEST(ServeValidation, RejectsBadRequests) {
  const img::Image8 src = make_src();
  par::ThreadPool pool(2);
  Server server(base_config(), ServeOptions::parse("serve"), pool);
  img::Image8 crop(64, 48, 1);
  EXPECT_THROW(server.request(7, {0, 0, 64, 48}, crop.view()),
               InvalidArgument);
  EXPECT_THROW(server.request(0, {-16, 0, 48, 48}, crop.view()),
               InvalidArgument);
  EXPECT_THROW(server.request(0, {200, 160, 280, 208}, crop.view()),
               InvalidArgument);  // past the 256x192 level
  EXPECT_THROW(server.request(0, {0, 0, 32, 32}, crop.view()),
               InvalidArgument);  // dst dims != rect dims
}

TEST(ServeValidation, RejectsBadConfigs) {
  par::ThreadPool pool(2);
  ServerConfig no_levels = base_config();
  no_levels.levels.clear();
  EXPECT_THROW(Server(no_levels, ServeOptions::parse("serve"), pool),
               InvalidArgument);

  ServerConfig nearest = base_config();
  nearest.remap.interp = core::Interp::Nearest;
  EXPECT_THROW(Server(nearest, ServeOptions::parse("serve:map=packed"), pool),
               InvalidArgument);
}

// --- spec parsing -----------------------------------------------------------

TEST(ServeSpec, ParsesAndRoundTrips) {
  const ServeOptions o = ServeOptions::parse(
      "serve:lanes=4,queue_depth=8,pending=512,cache_budget=64M,quantum=32,"
      "coalesce=off,map=compact:16,frac=12,tile=48x24");
  EXPECT_EQ(o.lanes, 4);
  EXPECT_EQ(o.queue_depth, 8u);
  EXPECT_EQ(o.max_pending, 512u);
  EXPECT_EQ(o.cache_budget, std::size_t{64} << 20);
  EXPECT_EQ(o.quantum, 32);
  EXPECT_FALSE(o.coalesce);
  EXPECT_EQ(o.map_mode, core::MapMode::CompactLut);
  EXPECT_EQ(o.compact_stride, 16);
  EXPECT_EQ(o.frac_bits, 12);
  EXPECT_EQ(o.tile_w, 48);
  EXPECT_EQ(o.tile_h, 24);

  const ServeOptions again = ServeOptions::parse(o.spec());
  EXPECT_EQ(again.spec(), o.spec());
  const ServeOptions defaults = ServeOptions::parse("serve");
  EXPECT_EQ(ServeOptions::parse(defaults.spec()).spec(), defaults.spec());
}

TEST(ServeSpec, ParsesByteSuffixes) {
  EXPECT_EQ(ServeOptions::parse("serve:cache_budget=0").cache_budget, 0u);
  EXPECT_EQ(ServeOptions::parse("serve:cache_budget=4096").cache_budget,
            4096u);
  EXPECT_EQ(ServeOptions::parse("serve:cache_budget=16K").cache_budget,
            std::size_t{16} << 10);
  EXPECT_EQ(ServeOptions::parse("serve:cache_budget=2G").cache_budget,
            std::size_t{2} << 30);
}

void expect_parse_error_naming(const std::string& spec,
                               const std::string& token) {
  try {
    (void)ServeOptions::parse(spec);
    FAIL() << "expected InvalidArgument for '" << spec << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "'" << e.what() << "' does not name '" << token << "'";
  }
}

TEST(ServeSpec, RejectsUnknownAndOutOfRangeOptionsByName) {
  expect_parse_error_naming("pool:threads=4", "serve");
  expect_parse_error_naming("serve:bogus=1", "bogus");
  expect_parse_error_naming("serve:lanes=0", "lanes");
  expect_parse_error_naming("serve:lanes=65", "lanes");
  expect_parse_error_naming("serve:queue_depth=0", "queue_depth");
  expect_parse_error_naming("serve:pending=0", "pending");
  expect_parse_error_naming("serve:quantum=12", "quantum");
  expect_parse_error_naming("serve:quantum=512", "quantum");
  expect_parse_error_naming("serve:coalesce=maybe", "coalesce");
  expect_parse_error_naming("serve:map=warp9", "warp9");
  expect_parse_error_naming("serve:frac=0", "frac");
  expect_parse_error_naming("serve:frac=30", "frac");
  expect_parse_error_naming("serve:tile=4x4", "tile");
  expect_parse_error_naming("serve:cache_budget=12Q", "cache_budget");
  expect_parse_error_naming("serve:cache_budget=lots", "cache_budget");
  // quantum must stay a multiple of the compact stride.
  expect_parse_error_naming("serve:map=compact:16,quantum=8", "quantum");
}

}  // namespace
}  // namespace fisheye

// F23 — Virtual-PTZ serving: plan cache + view coalescing under load.
//
// N concurrent viewers each hold an independent pan/tilt/zoom view of one
// shared fisheye stream; per source frame every viewer requests its crop.
// View popularity is zipf-skewed over a fixed hotspot pool — a few popular
// views dominate, a long tail stays cold — which is exactly the regime the
// serving layer is built for: duplicates collapse in the coalescer, popular
// view plans stay resident in the PlanCache, and the per-frame cost decouples
// from the viewer count.
//
// Sweep: requests/s and p50/p99 request→crop latency vs viewer count
// (64 → 2048). Ablation at 512 viewers: warm cache vs cold plans
// (cache_budget=0 — every frame rebuilds its view entries: each window's
// plan over the level LUT, read in place, and its output) and coalesced
// vs uncoalesced (every request executes alone). The CI smoke job asserts
// the two ratios: 0.8x <= warm/cold <= 4x (the cache must not slow serving
// down; the upper bound catches misses recomputing their maps), coalesced
// >= 1.2x uncoalesced.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "serve/server.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace {

using namespace fisheye;

constexpr int kSrcW = 512;
constexpr int kSrcH = 288;
constexpr int kLevelW = 320;
constexpr int kLevelH = 180;
constexpr std::size_t kHotspots = 64;
constexpr double kZipfExponent = 1.1;
constexpr std::uint64_t kWarmTag = std::numeric_limits<std::uint64_t>::max();

/// The zoom pyramid: level 0 wide (focal auto-matched to the lens), levels
/// 1-2 progressively zoomed in.
std::vector<serve::LevelSpec> make_levels() {
  return {{kLevelW, kLevelH, 0.0},
          {kLevelW, kLevelH, 150.0},
          {kLevelW, kLevelH, 240.0}};
}

/// The fixed hotspot pool every rung samples from: deterministic rects of
/// assorted sizes spread across the pyramid. Popular hotspots overlap by
/// construction (positions are random over a level much smaller than
/// hotspots * view area), so coalescing has both duplicates and overlaps
/// to harvest.
std::vector<serve::QuantizedView> make_hotspots() {
  util::Rng rng(2301);
  const int widths[] = {96, 112, 128, 144, 160};
  const int heights[] = {64, 80, 96};
  std::vector<serve::QuantizedView> pool;
  pool.reserve(kHotspots);
  for (std::size_t k = 0; k < kHotspots; ++k) {
    const int level = static_cast<int>(k % 3);
    const int w = widths[rng.next_below(std::size(widths))];
    const int h = heights[rng.next_below(std::size(heights))];
    const int x = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(kLevelW - w + 1)));
    const int y = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(kLevelH - h + 1)));
    pool.push_back({level, {x, y, x + w, y + h}});
  }
  return pool;
}

/// Zipf-skewed viewer → hotspot assignment: viewer ranks follow
/// P(k) ~ 1/(k+1)^s, deterministic per rung.
std::vector<std::size_t> assign_viewers(std::size_t viewers) {
  std::vector<double> cdf(kHotspots);
  double total = 0.0;
  for (std::size_t k = 0; k < kHotspots; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  util::Rng rng(7001 + viewers);
  std::vector<std::size_t> assignment(viewers);
  for (std::size_t i = 0; i < viewers; ++i) {
    const double u = rng.next_double() * total;
    assignment[i] = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (assignment[i] >= kHotspots) assignment[i] = kHotspots - 1;
  }
  return assignment;
}

struct LoadResult {
  double wall_seconds = 0.0;
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double clusters_per_frame = 0.0;
  double hit_rate = 0.0;
  double tiles_saved = 0.0;  ///< tiles_requested / tiles_executed
  std::size_t requests = 0;
};

/// Drive `viewers` clients for `frames` source frames through one Server
/// configured by `spec`. Frames pipeline through the queue (requests for
/// frame f+1 accumulate while frame f is in flight); two warmup frames
/// populate the cache and arenas, then the measured frames are timed and
/// every request's retire latency recorded.
LoadResult run_load(par::ThreadPool& pool,
                    const std::vector<img::Image8>& inputs,
                    std::size_t viewers, int frames,
                    const std::string& spec) {
  const std::vector<serve::QuantizedView> hotspots = make_hotspots();
  const std::vector<std::size_t> assignment = assign_viewers(viewers);

  serve::ServerConfig cfg;
  cfg.src_width = kSrcW;
  cfg.src_height = kSrcH;
  cfg.fov_rad = util::kPi;
  cfg.levels = make_levels();
  serve::Server server(cfg, serve::ServeOptions::parse(spec), pool);

  // One crop buffer per viewer, reused across frames. With the frame queue
  // a viewer can have two requests in flight against the same buffer; the
  // bench measures throughput/latency, the exactness tests own content.
  std::vector<img::Image8> crops;
  crops.reserve(viewers);
  for (std::size_t i = 0; i < viewers; ++i) {
    const par::Rect r = hotspots[assignment[i]].rect;
    crops.emplace_back(r.width(), r.height(), 1);
  }

  std::vector<double> latencies(
      static_cast<std::size_t>(frames) * viewers, 0.0);
  server.set_retire(
      [&latencies](std::uint64_t, std::uint64_t tag, double latency) {
        if (tag != kWarmTag) latencies[tag] = latency;
      });

  const auto frame = [&](int f, bool measured) {
    for (std::size_t i = 0; i < viewers; ++i) {
      const serve::QuantizedView& v = hotspots[assignment[i]];
      const std::uint64_t tag =
          measured ? static_cast<std::uint64_t>(f) * viewers + i : kWarmTag;
      server.request(v.level, v.rect, crops[i].view(), tag);
    }
    server.submit_frame(inputs[static_cast<std::size_t>(f) % inputs.size()]
                            .cview());
  };

  for (int f = 0; f < 2; ++f) frame(f, false);
  server.drain();
  const rt::ServeStats warm = server.stats();

  const rt::Stopwatch wall;
  for (int f = 0; f < frames; ++f) frame(f, true);
  server.drain();

  LoadResult r;
  r.wall_seconds = wall.elapsed_seconds();
  r.requests = static_cast<std::size_t>(frames) * viewers;
  r.req_per_s = static_cast<double>(r.requests) / r.wall_seconds;
  r.p50_ms = rt::percentile(latencies, 50.0) * 1e3;
  r.p99_ms = rt::percentile(latencies, 99.0) * 1e3;
  const rt::ServeStats st = server.stats();
  const std::size_t frames_d = st.frames - warm.frames;
  const std::size_t clusters_d = st.clusters - warm.clusters;
  const std::size_t hits_d = st.plan_hits - warm.plan_hits;
  const std::size_t misses_d = st.plan_misses - warm.plan_misses;
  const std::size_t texec_d = st.tiles_executed - warm.tiles_executed;
  const std::size_t treq_d = st.tiles_requested - warm.tiles_requested;
  r.clusters_per_frame =
      frames_d ? static_cast<double>(clusters_d) / frames_d : 0.0;
  r.hit_rate = hits_d + misses_d
                   ? static_cast<double>(hits_d) / (hits_d + misses_d)
                   : 0.0;
  r.tiles_saved =
      texec_d ? static_cast<double>(treq_d) / texec_d : 0.0;
  return r;
}

/// Field-wise median of the rate, latency and cache columns over `runs`.
LoadResult median_load(const std::vector<LoadResult>& runs) {
  const auto median = [&runs](double LoadResult::*field) {
    std::vector<double> v;
    v.reserve(runs.size());
    for (const LoadResult& r : runs) v.push_back(r.*field);
    return rt::percentile(std::move(v), 50.0);
  };
  LoadResult m;
  m.req_per_s = median(&LoadResult::req_per_s);
  m.p50_ms = median(&LoadResult::p50_ms);
  m.p99_ms = median(&LoadResult::p99_ms);
  m.hit_rate = median(&LoadResult::hit_rate);
  m.tiles_saved = median(&LoadResult::tiles_saved);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fisheye;
  bench::init(argc, argv);
  rt::print_banner("F23",
                   "virtual-PTZ serving: plan cache + coalescing under load");

  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 2u, 8u);
  par::ThreadPool pool(workers);
  const int frames = bench::quick() ? 6 : 20;
  const std::string base_spec =
      "serve:lanes=4,queue_depth=4,pending=4096,quantum=16,tile=32x32";

  // Shared 3-frame source loop (rendering is not what F23 measures).
  const auto cam = core::FisheyeCamera::centered(core::LensKind::Equidistant,
                                                 util::kPi, kSrcW, kSrcH);
  const video::SyntheticVideoSource source(cam, kSrcW, kSrcH, 1);
  std::vector<img::Image8> inputs;
  for (int f = 0; f < 3; ++f) inputs.push_back(source.frame(f));

  const std::vector<std::size_t> sweep =
      bench::quick() ? std::vector<std::size_t>{64, 256, 512}
                     : std::vector<std::size_t>{64, 128, 256, 512, 1024, 2048};

  util::Table table({"viewers", "frames", "requests", "wall s", "req/s",
                     "p50 ms", "p99 ms", "clusters/frame", "hit rate",
                     "tiles saved"});
  for (const std::size_t viewers : sweep) {
    const LoadResult r = run_load(pool, inputs, viewers, frames, base_spec);
    table.row()
        .add(viewers)
        .add(frames)
        .add(r.requests)
        .add(r.wall_seconds, 3)
        .add(r.req_per_s, 0)
        .add(r.p50_ms, 3)
        .add(r.p99_ms, 3)
        .add(r.clusters_per_frame, 1)
        .add(r.hit_rate, 3)
        .add(r.tiles_saved, 2);
  }
  table.print(std::cout, "F23: serving throughput vs viewer count");

  // Ablation at 512 viewers: what the cache and the coalescer each buy.
  // The three modes run in alternating rounds and every column is the
  // mode's median, so a slow phase of a shared host hits all three alike:
  // CI asserts on the warm/x ratios.
  const std::size_t ablation_viewers = 512;
  constexpr int kAblationRounds = 7;
  struct Mode {
    const char* name;
    std::string spec;
    std::vector<LoadResult> runs;
  };
  std::vector<Mode> modes{{"warm", base_spec, {}},
                          {"cold", base_spec + ",cache_budget=0", {}},
                          {"uncoalesced", base_spec + ",coalesce=off", {}}};
  for (int round = 0; round < kAblationRounds; ++round)
    for (Mode& m : modes)
      m.runs.push_back(
          run_load(pool, inputs, ablation_viewers, frames, m.spec));

  util::Table ablation({"mode", "req/s", "p50 ms", "p99 ms", "hit rate",
                        "tiles saved", "warm/x"});
  const double warm_rps = median_load(modes.front().runs).req_per_s;
  for (const Mode& m : modes) {
    const LoadResult r = median_load(m.runs);
    ablation.row()
        .add(m.name)
        .add(r.req_per_s, 0)
        .add(r.p50_ms, 3)
        .add(r.p99_ms, 3)
        .add(r.hit_rate, 3)
        .add(r.tiles_saved, 2)
        .add(r.req_per_s > 0.0 ? warm_rps / r.req_per_s : 0.0, 2);
  }
  ablation.print(std::cout,
                 "F23: serving-layer ablation at 512 viewers (median of " +
                     std::to_string(kAblationRounds) +
                     " alternating rounds)");

  std::cout << "expected shape: req/s grows with viewers while clusters/frame "
               "collapses to a handful — zipf duplicates dedup outright and "
               "overlapping hotspots merge under the union-area guard, so "
               "added viewers cost crop copies, not kernel work. The ablation "
               "shows both mechanisms: cold plans (cache_budget=0) rebuild "
               "every view entry each frame, but read its window of the "
               "level LUT in place, key its tiles from the level's block "
               "table and build while earlier clusters execute, so cold "
               "plans run "
               "close to cached ones (0.8x <= warm/cold <= 4x, near 1x); "
               "uncoalesced serving re-executes every duplicate (coalesced "
               ">= 1.2x).\n";
  return 0;
}

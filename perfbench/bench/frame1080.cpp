// frame1080: one 1080p camera, five CPU execution specs in turn.
//
// The specs share one Corrector and take turns in short blocks, so slow
// phases of a shared host hit every spec alike; simd, whose frame-time tail
// is reported per layer, gets the longest blocks. Each block's first frame
// warms caches after the switch and is not timed. Every frame is compared
// with the serial reference for its input: bit-exact for the scalar-kernel
// specs (serial, pool, openmp, shard), within one gray level for the float
// gather datapath.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "shard/shard_backend.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace fisheye;

struct SpecDef {
  const char* key;   ///< metric suffix
  const char* spec;  ///< registry spec
  int tolerance;     ///< max gray-level difference vs the serial reference
  int threads;
  int share;         ///< relative block length in the rotation
};

// Shard forks its workers at plan time; it is planned before any thread
// pool exists so the fork copies a single-threaded process.
constexpr std::array<SpecDef, 5> kSpecs = {{
    {"serial", "serial", 0, 1, 1},
    {"shard", "shard:workers=4", 0, 4, 1},
    {"simd", "simd:threads=4,datapath=gather", 1, 4, 5},
    {"pool", "pool:steal,threads=4", 0, 4, 1},
    {"openmp", "openmp:threads=4", 0, 4, 1},
}};
constexpr std::size_t kSerial = 0;
constexpr std::size_t kShard = 1;
constexpr std::size_t kSimd = 2;
constexpr int kInputs = 3;
constexpr double kBlockSeconds = 0.05;

struct Stage {
  std::unique_ptr<core::Corrector> corrector;
  std::array<std::unique_ptr<core::Backend>, kSpecs.size()> backends;
  std::array<core::Corrector::Prepared, kSpecs.size()> prepared;
  std::array<double, kSpecs.size()> prepare_s{};
};

/// Construction, planning (shard: fork) and one warm frame per spec.
std::unique_ptr<Stage> set_up(const img::Image8& input, img::Image8& out) {
  auto st = std::make_unique<Stage>();
  st->corrector = std::make_unique<core::Corrector>(
      core::Corrector::builder(kFrameW, kFrameH).fov_degrees(180.0).config());
  for (std::size_t s = 0; s < kSpecs.size(); ++s) {
    const auto t0 = Clock::now();
    st->backends[s] = core::BackendRegistry::create(kSpecs[s].spec);
    st->prepared[s] = st->corrector->prepare(*st->backends[s], 1);
    st->prepare_s[s] = seconds_since(t0);
    st->corrector->correct(st->prepared[s], input.cview(), out.view());
  }
  return st;
}

struct TileTotals {
  double imbalance_sum = 0.0;
  std::size_t frames = 0;
  std::size_t local = 0;
  std::size_t stolen = 0;
};

}  // namespace

Result run_frame1080(const RunOptions& opt) {
  Result res;
  const std::vector<img::Image8> inputs =
      make_frames(kFrameW, kFrameH, 180.0, kInputs, opt.seed);
  img::Image8 out(kFrameW, kFrameH, 1);

  std::unique_ptr<Stage> st;
  std::vector<double> setup_samples;
  std::array<std::vector<double>, kSpecs.size()> prepare_samples;
  while (more_setups(opt, setup_samples)) {
    st.reset();  // tear the previous fleet and pools down first
    const auto t0 = Clock::now();
    st = set_up(inputs[0], out);
    setup_samples.push_back(seconds_since(t0));
    for (std::size_t s = 0; s < kSpecs.size(); ++s)
      prepare_samples[s].push_back(st->prepare_s[s]);
  }
  const core::Corrector& corr = *st->corrector;

  // Serial references, one per input.
  std::vector<img::Image8> refs;
  for (const img::Image8& in : inputs) {
    refs.emplace_back(kFrameW, kFrameH, 1);
    corr.correct(st->prepared[kSerial], in.cview(), refs.back().view());
  }

  auto& shard = dynamic_cast<shard::ShardBackend&>(*st->backends[kShard]);
  const rt::ShardStats shard0 = shard.last_stats();

  std::array<std::vector<double>, kSpecs.size()> times;
  const std::size_t n_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.seconds / kWindowSeconds));
  std::array<std::vector<std::vector<double>>, kSpecs.size()> windows;
  windows.fill(std::vector<std::vector<double>>(n_windows));
  std::array<TileTotals, kSpecs.size()> tiles{};
  std::size_t frame_no = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < opt.seconds) {
    for (std::size_t s = 0; s < kSpecs.size(); ++s) {
      const auto block0 = Clock::now();
      const double block_s = kBlockSeconds * kSpecs[s].share;
      for (int k = 0; k < 3 || seconds_since(block0) < block_s; ++k) {
        const std::size_t in = frame_no % kInputs;
        const std::uint64_t id = (std::uint64_t{s} << 32) | frame_no;
        ++frame_no;
        const auto t0 = Clock::now();
        {
          const trace::Scope span("frame", id);
          corr.correct(st->prepared[s], inputs[in].cview(), out.view());
        }
        const double dt = seconds_since(t0);
        ++res.attempted;
        if (max_abs_diff(out.cview(), refs[in].cview()) > kSpecs[s].tolerance)
          ++res.failed;
        if (k == 0) continue;  // cache warm-up after the spec switch
        times[s].push_back(dt);
        windows[s][std::min(n_windows - 1,
                            static_cast<std::size_t>(seconds_since(start) /
                                                     kWindowSeconds))]
            .push_back(dt);
        if (opt.traced) {
          const rt::TileStats ts = st->prepared[s].plan.tile_stats();
          tiles[s].imbalance_sum += ts.imbalance;
          tiles[s].frames += 1;
          tiles[s].local += ts.local_tiles;
          tiles[s].stolen += ts.stolen_tiles;
        }
      }
    }
  }

  std::array<double, kSpecs.size()> fps{};
  std::vector<double> all_fps;
  for (std::size_t s = 0; s < kSpecs.size(); ++s) {
    fps[s] = 1.0 / fast_windows(windows[s], 0.5);
    all_fps.push_back(fps[s]);
  }
  const double mpx = static_cast<double>(kFrameW) * kFrameH / 1e6;
  res.e2e.set("setup_s", median(setup_samples), "s");
  res.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.e2e.set("mpx_s", geomean(all_fps) * mpx, "Mpx/s");
  for (std::size_t s = 0; s < kSpecs.size(); ++s)
    res.plans.emplace_back(kSpecs[s].spec, st->prepared[s].plan.describe());
  if (!opt.traced) return res;

  // --- per-layer: scheduling, shard, plan times ---------------------------
  Metrics& L = res.layer;
  for (std::size_t s = 0; s < kSpecs.size(); ++s) {
    L.set(std::string("fps.") + kSpecs[s].key, fps[s], "1/s");
    L.set(std::string("core.prepare_ms.") + kSpecs[s].key,
          median(prepare_samples[s]) * 1e3, "ms");
  }
  // Frame times per spec come from the recorded frame spans; the kernel
  // each spec resolved is timed single-threaded over the whole frame.
  const std::vector<trace::Span> spans = trace::collect();
  for (std::size_t s = 0; s < kSpecs.size(); ++s) {
    if (s == kSerial) continue;
    std::vector<double> frame_ms;
    for (const trace::Span& sp : spans)
      if (std::string_view(sp.name) == "frame" && (sp.id >> 32) == s)
        frame_ms.push_back(static_cast<double>(sp.t1_ns - sp.t0_ns) / 1e6);
    std::vector<double> kernel_ms;
    const core::ResolvedKernel& kern = st->prepared[s].plan.kernel();
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = trace::now_ns();
      kern(inputs[0].cview(), out.view(), {0, 0, kFrameW, kFrameH});
      const std::int64_t t1 = trace::now_ns();
      trace::record("kernel", t0, t1, (std::uint64_t{s} << 32) | 0xffffffffu);
      kernel_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    const std::string key = kSpecs[s].key;
    L.set("sched.overhead_ms." + key,
          median(frame_ms) - median(kernel_ms) / kSpecs[s].threads, "ms");
    L.set("sched.frame_p99_ms." + key, quantile(frame_ms, 0.99), "ms");
    const TileTotals& t = tiles[s];
    L.set("sched.imbalance." + key,
          t.frames ? t.imbalance_sum / static_cast<double>(t.frames) : 0.0,
          "ratio");
    L.set("sched.stolen_frac." + key,
          t.local + t.stolen
              ? static_cast<double>(t.stolen) /
                    static_cast<double>(t.local + t.stolen)
              : 0.0,
          "ratio");
  }

  const rt::ShardStats shard1 = shard.last_stats();
  const double shard_frames =
      static_cast<double>(shard1.frames - shard0.frames);
  const double moved = static_cast<double>(
      (shard1.transport_in_bytes + shard1.transport_out_bytes) -
      (shard0.transport_in_bytes + shard0.transport_out_bytes));
  L.set("shard.transport_mb_frame", moved / shard_frames / 1e6, "MB");
  L.set("shard.wait_ms_frame",
        (shard1.wait_seconds - shard0.wait_seconds) / shard_frames * 1e3,
        "ms");
  L.set("shard.fallback_strips",
        static_cast<double>(shard1.fallback_strips - shard0.fallback_strips),
        "count");
  L.set("shard.respawns",
        static_cast<double>(shard1.respawns - shard0.respawns), "count");
  L.set("shard.speedup_vs_serial", fps[kShard] / fps[kSerial], "ratio");
  return res;
}

}  // namespace pb

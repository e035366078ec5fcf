// streams8: eight camera streams on one 4-worker pool, closed loop.
//
// Stream 0 is a heavy 768x432 180-degree camera; streams 1-7 are light PTZ
// views at the resolutions and fields of view of the fig22 mix. Each
// stream keeps one frame outstanding: its retire callback checks the
// output against the serial reference for that input, then submits the
// next frame. Per-frame kernel work is small, so scheduling, queue wait
// and cross-stream stealing dominate.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/corrector.hpp"
#include "stream/stream_executor.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace fisheye;

constexpr std::size_t kStreams = 8;
constexpr int kInputs = 3;
constexpr unsigned kWorkers = 4;
constexpr int kWarmFrames = 3;

struct CamSpec {
  int w = 0, h = 0;
  double fov_deg = 0.0;
};

CamSpec spec_for(std::size_t i) {
  if (i == 0) return {768, 432, 180.0};
  switch (i % 3) {
    case 1: return {96, 54, 120.0};
    case 2: return {128, 72, 140.0};
    default: return {96, 54, 160.0};
  }
}

/// Per-stream inputs and their serial references (built once per run).
struct Assets {
  CamSpec spec;
  std::unique_ptr<core::Corrector> corrector;
  std::vector<img::Image8> inputs;
  std::vector<img::Image8> refs;
};

bool same_pixels(img::ConstImageView<std::uint8_t> a,
                 img::ConstImageView<std::uint8_t> b) {
  const std::size_t n = static_cast<std::size_t>(a.width) * a.channels;
  for (int y = 0; y < a.height; ++y)
    if (std::memcmp(a.row(y), b.row(y), n) != 0) return false;
  return true;
}

/// One closed-loop stream. The executor serializes a stream's retires, so
/// the callback touches its own fields without locking.
struct StreamLoop {
  stream::StreamExecutor* exec = nullptr;
  stream::StreamId id = 0;
  const Assets* assets = nullptr;
  img::Image8 out;
  std::size_t index = 0;
  std::uint64_t next_input = 0;
  std::uint64_t in_flight_input = 0;
  std::uint64_t warm_target = 0;  ///< set-up: stop after this many frames
  const std::atomic<bool>* stop = nullptr;
  std::atomic<std::uint64_t>* failed = nullptr;
  bool recording = false;
  std::vector<double> latencies;
  // Retired frames per measured-phase window (see kWindowSeconds).
  Clock::time_point start;
  std::vector<std::uint64_t> window_frames;

  void submit() {
    in_flight_input = next_input++ % kInputs;
    exec->submit(id, assets->inputs[in_flight_input].cview(), out.view());
  }

  void on_retire(std::uint64_t seq, double latency) {
    if (!same_pixels(out.cview(), assets->refs[in_flight_input].cview()))
      failed->fetch_add(1, std::memory_order_relaxed);
    if (recording) {
      // Light-stream latencies feed only the traced per-layer p99; keeping
      // them out of untraced runs keeps peak RSS off the frame count.
      if (index == 0 || trace::enabled()) latencies.push_back(latency);
      const std::size_t w = std::min(
          window_frames.size() - 1,
          static_cast<std::size_t>(seconds_since(start) / kWindowSeconds));
      ++window_frames[w];
      // Every heavy frame and every 16th light frame leaves a span.
      if (index == 0 || seq % 16 == 0) {
        const std::int64_t t1 = trace::now_ns();
        trace::record("frame", t1 - static_cast<std::int64_t>(latency * 1e9),
                      t1, (std::uint64_t{index} << 32) | seq);
      }
    }
    if (seq < warm_target || (recording && !stop->load()))
      submit();
  }
};

struct Stage {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<stream::StreamExecutor> exec;
  std::vector<std::unique_ptr<StreamLoop>> loops;
};

std::unique_ptr<Stage> set_up(const std::vector<Assets>& assets,
                              const std::atomic<bool>& stop,
                              std::atomic<std::uint64_t>& failed) {
  auto st = std::make_unique<Stage>();
  st->pool = std::make_unique<par::ThreadPool>(kWorkers);
  stream::StreamExecutorOptions opts;
  opts.max_streams = kStreams;
  st->exec = std::make_unique<stream::StreamExecutor>(*st->pool, opts);
  for (std::size_t i = 0; i < kStreams; ++i) {
    auto d = std::make_unique<StreamLoop>();
    d->exec = st->exec.get();
    d->assets = &assets[i];
    d->out = img::Image8(assets[i].spec.w, assets[i].spec.h, 1);
    d->index = i;
    d->stop = &stop;
    d->failed = &failed;
    d->warm_target = kWarmFrames;
    d->latencies.reserve(std::size_t{1} << 16);
    StreamLoop* raw = d.get();
    d->id = st->exec->add_stream(
        *assets[i].corrector, 1,
        [raw](stream::StreamId, std::uint64_t seq, double latency) {
          raw->on_retire(seq, latency);
        });
    st->loops.push_back(std::move(d));
  }
  for (auto& d : st->loops) d->submit();
  st->exec->drain();
  return st;
}

}  // namespace

Result run_streams8(const RunOptions& opt) {
  Result res;
  std::vector<Assets> assets(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    Assets& a = assets[i];
    a.spec = spec_for(i);
    a.corrector = std::make_unique<core::Corrector>(
        core::Corrector::builder(a.spec.w, a.spec.h)
            .fov_degrees(a.spec.fov_deg)
            .config());
    a.inputs = make_frames(a.spec.w, a.spec.h, a.spec.fov_deg, kInputs,
                           opt.seed * 131 + i);
    core::SerialBackend serial;
    for (const img::Image8& in : a.inputs) {
      a.refs.emplace_back(a.spec.w, a.spec.h, 1);
      a.corrector->correct(in.cview(), a.refs.back().view(), serial);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failed{0};
  std::unique_ptr<Stage> st;
  std::vector<double> setup_samples;
  while (more_setups(opt, setup_samples)) {
    st.reset();
    const auto t0 = Clock::now();
    st = set_up(assets, stop, failed);
    setup_samples.push_back(seconds_since(t0));
  }
  std::vector<rt::StreamStats> before;
  for (const auto& d : st->loops) before.push_back(st->exec->stats(d->id));
  failed.store(0);

  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.seconds / kWindowSeconds));
  const auto start = Clock::now();
  for (auto& d : st->loops) {
    d->start = start;
    d->window_frames.assign(windows, 0);
    d->recording = true;
    d->submit();
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true);
  st->exec->drain();

  std::vector<double> light;
  rt::StreamStats sum;
  double max_wait = 0.0;
  for (std::size_t i = 0; i < kStreams; ++i) {
    const StreamLoop& d = *st->loops[i];
    const rt::StreamStats s = st->exec->stats(d.id);
    const rt::StreamStats& b = before[i];
    const std::size_t frames = s.frames - b.frames;
    res.attempted += frames;
    sum.frames += frames;
    sum.tiles_local += s.tiles_local - b.tiles_local;
    sum.tiles_stolen += s.tiles_stolen - b.tiles_stolen;
    sum.steals += s.steals - b.steals;
    sum.total_wait_seconds += s.total_wait_seconds - b.total_wait_seconds;
    sum.starvation_events += s.starvation_events - b.starvation_events;
    max_wait = std::max(max_wait, s.max_wait_seconds);
    if (i > 0) light.insert(light.end(), d.latencies.begin(), d.latencies.end());
  }
  res.failed = failed.load();
  const std::vector<double>& heavy = st->loops[0]->latencies;

  res.e2e.set("setup_s", median(setup_samples), "s");
  res.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::vector<double> window_mpx_s;
  for (std::size_t w = 0; w < windows; ++w) {
    double px = 0.0;
    for (const auto& d : st->loops)
      px += static_cast<double>(d->window_frames[w]) * d->out.width() *
            d->out.height();
    const double len = w + 1 < windows
                           ? kWindowSeconds
                           : opt.seconds - kWindowSeconds * (windows - 1);
    window_mpx_s.push_back(px / len / 1e6);
  }
  res.e2e.set("mpx_s", fast_rate(window_mpx_s), "Mpx/s");
  res.plans.emplace_back("stream:heavy",
                         st->exec->plan(st->loops[0]->id).describe());
  res.plans.emplace_back("stream:light",
                         st->exec->plan(st->loops[1]->id).describe());
  if (!opt.traced) return res;

  Metrics& L = res.layer;
  const double frames = static_cast<double>(sum.frames);
  const double tiles = static_cast<double>(sum.tiles_local + sum.tiles_stolen);
  L.set("streams.heavy_p50_ms", median(heavy) * 1e3, "ms");
  L.set("streams.heavy_p99_ms", quantile(heavy, 0.99) * 1e3, "ms");
  L.set("streams.light_p99_ms", quantile(light, 0.99) * 1e3, "ms");
  L.set("stream.wait_ms.mean", sum.total_wait_seconds / frames * 1e3, "ms");
  L.set("stream.wait_ms.max", max_wait * 1e3, "ms");
  L.set("stream.stolen_frac", static_cast<double>(sum.tiles_stolen) / tiles,
        "ratio");
  L.set("stream.steals_per_frame", static_cast<double>(sum.steals) / frames,
        "count");
  L.set("stream.starvation_events",
        static_cast<double>(sum.starvation_events), "count");
  return res;
}

}  // namespace pb

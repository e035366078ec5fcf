// ptz_zipf and ptz_pan: the virtual-PTZ server under an open-loop load.
//
// One 512x288 180-degree source with three 320x180 zoom levels, served by
// serve::Server on a 3-worker pool; the calling thread is the producer.
// Source frames are due at a fixed rate; at each due time the producer
// issues every viewer's crop request for that frame and submits it.
// Latency runs from the frame's due time to the crop being delivered, so a
// stalled producer or a backlog counts against it; the producer's own
// lateness is reported alongside. One extra probe request per frame is
// checked, when it retires, against the same crop of a standalone serial
// Corrector for that level.
//
// A run alternates two kinds of measured segment: the nominal rate (latency
// percentiles) and saturation (each frame submitted as soon as the previous
// one completed, its requests issued while that one executes), whose
// delivered crop pixels per second are the served throughput. Traced runs also time the serving layer's pieces standalone
// and climb a ladder of offered rates for the highest one meeting the
// latency limit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/corrector.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace fisheye;

constexpr int kSrcW = 512;
constexpr int kSrcH = 288;
constexpr int kLevelW = 320;
constexpr int kLevelH = 180;
constexpr int kLevels = 3;
constexpr int kQuantum = 16;
constexpr unsigned kWorkers = 3;
constexpr int kInputs = 3;
constexpr std::size_t kHotspots = 64;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kProbeSlots = 16;  ///< > frames that can be in flight
constexpr std::uint64_t kProbeTag = std::uint64_t{1} << 63;
constexpr std::uint64_t kUntimedTag = std::uint64_t{1} << 62;
constexpr int kViewerBits = 20;
constexpr std::uint64_t kSampleMask = 7;  ///< trace every 8th request

struct WorkloadDef {
  std::size_t viewers;
  double nominal_fps;
  bool pan;
  int warm_frames;
};

constexpr WorkloadDef kZipf{2048, 30.0, false, 2};
constexpr WorkloadDef kPan{16, 30.0, true, 8};

struct View {
  int level = 0;
  par::Rect rect;
};

/// A panning viewer: a fixed-size window moving one quantum every `every`
/// frames, bouncing off the level edges. `phase` staggers the viewers'
/// moves, so each frame sees a similar number of them, not periodic bursts.
struct Panner {
  View view;
  int dx = 0, dy = 0, every = 1;
  std::uint64_t phase = 0;

  void advance(std::uint64_t frame) {
    if ((frame + phase) % static_cast<std::uint64_t>(every) != 0) return;
    par::Rect& r = view.rect;
    if (r.x0 + dx < 0 || r.x1 + dx > kLevelW) dx = -dx;
    if (r.y0 + dy < 0 || r.y1 + dy > kLevelH) dy = -dy;
    r = {r.x0 + dx, r.y0 + dy, r.x1 + dx, r.y1 + dy};
  }
};

par::Rect quantize(par::Rect r) {
  const int q = kQuantum;
  return {(r.x0 / q) * q, (r.y0 / q) * q, ((r.x1 + q - 1) / q) * q,
          ((r.y1 + q - 1) / q) * q};
}

/// The `index`-th window size of a fixed cycle: sizes (and so the crop and
/// kernel work per frame) do not depend on the seed; positions do.
View sized_view(util::Rng& rng, std::size_t index) {
  const int widths[] = {96, 112, 128, 144, 160};
  const int heights[] = {64, 80, 96};
  const int w = widths[index % std::size(widths)];
  const int h = heights[index % std::size(heights)];
  const int x = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(kLevelW - w + 1)));
  const int y = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(kLevelH - h + 1)));
  return {static_cast<int>(index % kLevels), {x, y, x + w, y + h}};
}

std::vector<serve::LevelSpec> make_levels() {
  return {{kLevelW, kLevelH, 0.0},
          {kLevelW, kLevelH, 150.0},
          {kLevelW, kLevelH, 240.0}};
}

struct ProbeInfo {
  int input = 0;
  View view;
};

/// One workload's inputs, viewers, reference crops and measurement state.
class PtzRun {
 public:
  PtzRun(const WorkloadDef& def, std::uint64_t seed)
      : def_(def), rng_(seed * 0x2545F4914F6CDD1Dull + 7) {
    inputs_ = make_frames(kSrcW, kSrcH, 180.0, kInputs, seed);
    make_references_();
    make_viewers_();
    probe_bufs_.reserve(kProbeSlots);
    for (std::size_t i = 0; i < kProbeSlots; ++i)
      probe_bufs_.emplace_back(160, 96, 1);
  }

  Result run(const RunOptions& opt);

 private:
  struct Stage {
    std::unique_ptr<par::ThreadPool> pool;
    std::unique_ptr<serve::Server> server;
  };

  /// Results of one kind of segment (nominal or saturated) over a run.
  struct Phase {
    /// Per timed segment: every request's seconds from its frame's due
    /// time (-1 when the retire never recorded it).
    std::vector<std::vector<double>> latencies;
    std::vector<double> mpx_s;  ///< per untimed segment: crop Mpx/s served
    std::vector<double> late;   ///< producer lateness per timed frame
    std::uint64_t frames = 0;
    rt::ServeStats delta;  ///< server counters accumulated over the segments
  };

  void make_references_();
  void make_viewers_();
  [[nodiscard]] serve::ServeOptions serve_options_() const;
  std::unique_ptr<Stage> set_up_();
  /// Issue frame `f` of the current segment (every viewer + one probe)
  /// and submit it.
  void issue_frame_(serve::Server& server, std::uint64_t f, bool timed);
  /// One segment — open loop at `fps` for `seconds`, or back to back when
  /// `fps` is 0 — added to `ph`.
  void run_segment_(serve::Server& server, double fps, double seconds,
                    Phase& ph);
  void on_retire_(std::uint64_t tag);
  [[nodiscard]] double crop_pixels_per_frame_() const;
  void standalone_probes_(Metrics& L);

  WorkloadDef def_;
  util::Rng rng_;
  std::vector<img::Image8> inputs_;
  std::vector<std::vector<img::Image8>> refs_;  ///< [input][level]
  std::unique_ptr<core::FisheyeCamera> camera_;
  std::vector<std::unique_ptr<core::PerspectiveView>> level_views_;
  std::vector<View> hotspots_;
  std::vector<std::size_t> assignment_;  ///< zipf: viewer -> hotspot
  std::vector<Panner> panners_;
  std::vector<img::Image8> crops_;  ///< one per viewer
  std::vector<img::Image8> probe_bufs_;
  std::vector<ProbeInfo> probe_info_ = std::vector<ProbeInfo>(kProbeSlots);
  std::uint64_t probes_issued_ = 0;
  std::uint64_t frames_issued_ = 0;  ///< drives the pan paths
  std::size_t cache_budget_ = 0;
  /// Span the request/submit/retire calls (nominal phase of traced runs
  /// only: saturation and the rate ladder block on backpressure by design).
  bool trace_requests_ = false;

  // Shared with retire callbacks (worker threads).
  Clock::time_point epoch_;
  std::vector<double> due_;
  std::vector<double>* latencies_ = nullptr;
  std::atomic<std::uint64_t> probes_checked_{0};
  std::atomic<std::uint64_t> probes_failed_{0};
};

void PtzRun::make_references_() {
  camera_ = std::make_unique<core::FisheyeCamera>(core::FisheyeCamera::centered(
      core::LensKind::Equidistant, 3.14159265358979323846, kSrcW, kSrcH));
  core::SerialBackend serial;
  refs_.resize(inputs_.size());
  for (const serve::LevelSpec& level : make_levels()) {
    const double focal =
        level.focal == 0.0 ? camera_->lens().dradius_dtheta(0.0) : level.focal;
    level_views_.push_back(std::make_unique<core::PerspectiveView>(
        level.width, level.height, focal));
    const core::Corrector corr(core::Corrector::builder(kSrcW, kSrcH)
                                   .fov_degrees(180.0)
                                   .output_size(level.width, level.height)
                                   .output_focal(focal)
                                   .config());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      refs_[i].emplace_back(level.width, level.height, 1);
      corr.correct(inputs_[i].cview(), refs_[i].back().view(), serial);
    }
  }
}

void PtzRun::make_viewers_() {
  if (!def_.pan) {
    for (std::size_t k = 0; k < kHotspots; ++k)
      hotspots_.push_back(sized_view(rng_, k));
    std::vector<double> cdf(kHotspots);
    double total = 0.0;
    for (std::size_t k = 0; k < kHotspots; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf[k] = total;
    }
    for (std::size_t i = 0; i < def_.viewers; ++i) {
      const double u = rng_.next_double() * total;
      const auto k = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      assignment_.push_back(std::min(k, kHotspots - 1));
      const par::Rect r = hotspots_[assignment_.back()].rect;
      crops_.emplace_back(r.width(), r.height(), 1);
    }
    return;
  }
  for (std::size_t i = 0; i < def_.viewers; ++i) {
    Panner p;
    p.view = sized_view(rng_, i);
    p.dx = (static_cast<int>(rng_.next_below(2)) * 2 - 1) * kQuantum;
    p.dy = (static_cast<int>(rng_.next_below(2)) * 2 - 1) * kQuantum;
    // Speeds vary within each level (level = i % 3), so viewers sharing a
    // level drift relative to each other and overlaps average out over a
    // run instead of staying fixed by the seed.
    p.every = 4 + 2 * static_cast<int>((i / kLevels) % 3);
    p.phase = i;
    crops_.emplace_back(p.view.rect.width(), p.view.rect.height(), 1);
    panners_.push_back(p);
  }
  // Budget: half of what the viewers' own views occupy once built, so the
  // LRU cannot keep the working set and misses evict.
  serve::ViewBuildContext build;
  build.camera = camera_.get();
  build.src_width = kSrcW;
  build.src_height = kSrcH;
  std::size_t bytes = 0;
  for (const Panner& p : panners_) {
    build.view = level_views_[static_cast<std::size_t>(p.view.level)].get();
    bytes += serve::build_cached_view(
                 build, {1, p.view.level, quantize(p.view.rect)})
                 ->bytes;
  }
  cache_budget_ = bytes / 2;
}

serve::ServeOptions PtzRun::serve_options_() const {
  serve::ServeOptions o = serve::ServeOptions::parse(
      "serve:lanes=4,queue_depth=4,pending=4096,quantum=16,tile=32x32");
  if (def_.pan) o.cache_budget = cache_budget_;
  return o;
}

std::unique_ptr<PtzRun::Stage> PtzRun::set_up_() {
  auto st = std::make_unique<Stage>();
  st->pool = std::make_unique<par::ThreadPool>(kWorkers);
  serve::ServerConfig cfg;
  cfg.src_width = kSrcW;
  cfg.src_height = kSrcH;
  cfg.fov_rad = 3.14159265358979323846;
  cfg.levels = make_levels();
  st->server =
      std::make_unique<serve::Server>(cfg, serve_options_(), *st->pool);
  st->server->set_retire([this](std::uint64_t, std::uint64_t tag, double) {
    on_retire_(tag);
  });
  for (int f = 0; f < def_.warm_frames; ++f)
    issue_frame_(*st->server, static_cast<std::uint64_t>(f), false);
  st->server->drain();
  return st;
}

void PtzRun::issue_frame_(serve::Server& server, std::uint64_t f,
                          bool timed) {
  const bool traced = trace_requests_;
  for (std::size_t v = 0; v < def_.viewers; ++v) {
    View view;
    if (def_.pan) {
      panners_[v].advance(frames_issued_);
      view = panners_[v].view;
    } else {
      view = hotspots_[assignment_[v]];
    }
    const std::uint64_t tag =
        timed ? (f << kViewerBits) | v : kUntimedTag;
    if (traced && (v & kSampleMask) == 0) {
      const trace::Scope span("request", (f << kViewerBits) | v, f);
      server.request(view.level, view.rect, crops_[v].view(), tag);
    } else {
      server.request(view.level, view.rect, crops_[v].view(), tag);
    }
  }
  // The probe: a random viewer's view of this frame, into its own buffer.
  const std::uint64_t slot = probes_issued_ % kProbeSlots;
  const std::size_t v = rng_.next_below(def_.viewers);
  const View view = def_.pan ? panners_[v].view : hotspots_[assignment_[v]];
  probe_info_[slot] = {static_cast<int>(f % kInputs), view};
  img::ImageView<std::uint8_t> buf = probe_bufs_[slot].view();
  buf.width = view.rect.width();
  buf.height = view.rect.height();
  server.request(view.level, view.rect, buf, kProbeTag | probes_issued_);
  ++probes_issued_;
  ++frames_issued_;
  // Submit only once the previous frame has completed. The requests above
  // still accumulate while it executes, but no frame ever waits queued:
  // Server::complete_frame_ dispatching a queued frame from a worker can
  // overlap the previous dispatch_ still walking the lane fifos, and that
  // double-submits clusters and hangs drain(). Dispatching from this
  // thread alone keeps the benchmark off that path.
  server.drain();
  if (traced) {
    const trace::Scope span("submit_frame", f);
    server.submit_frame(inputs_[f % kInputs].cview());
  } else {
    server.submit_frame(inputs_[f % kInputs].cview());
  }
}

void PtzRun::on_retire_(std::uint64_t tag) {
  const double now = seconds_since(epoch_);
  if ((tag & kProbeTag) != 0) {
    const ProbeInfo& p = probe_info_[(tag & ~kProbeTag) % kProbeSlots];
    const img::Image8& ref = refs_[static_cast<std::size_t>(p.input)]
                                  [static_cast<std::size_t>(p.view.level)];
    const img::Image8& got = probe_bufs_[(tag & ~kProbeTag) % kProbeSlots];
    const par::Rect r = p.view.rect;
    bool same = true;
    for (int y = 0; y < r.height() && same; ++y)
      same = std::memcmp(got.row(y), ref.row(r.y0 + y) + r.x0,
                         static_cast<std::size_t>(r.width())) == 0;
    probes_checked_.fetch_add(1, std::memory_order_relaxed);
    if (!same) probes_failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if ((tag & kUntimedTag) != 0 || latencies_ == nullptr) return;
  const std::uint64_t f = tag >> kViewerBits;
  const std::uint64_t v = tag & ((std::uint64_t{1} << kViewerBits) - 1);
  const double latency = now - due_[f];
  (*latencies_)[f * def_.viewers + v] = latency;
  if ((v & kSampleMask) == 0 && trace_requests_) {
    // Due time to crop delivered, under the request span's id.
    const std::int64_t t1 = trace::now_ns();
    trace::record("crop.retire", t1 - static_cast<std::int64_t>(latency * 1e9),
                  t1, tag, f);
  }
}

void add_delta(rt::ServeStats& acc, const rt::ServeStats& after,
               const rt::ServeStats& before) {
  acc.requests += after.requests - before.requests;
  acc.retired += after.retired - before.retired;
  acc.frames += after.frames - before.frames;
  acc.clusters += after.clusters - before.clusters;
  acc.plan_hits += after.plan_hits - before.plan_hits;
  acc.plan_misses += after.plan_misses - before.plan_misses;
  acc.plan_evictions += after.plan_evictions - before.plan_evictions;
  acc.tiles_executed += after.tiles_executed - before.tiles_executed;
  acc.tiles_requested += after.tiles_requested - before.tiles_requested;
}

void PtzRun::run_segment_(serve::Server& server, double fps, double seconds,
                          Phase& ph) {
  const bool timed = fps > 0.0;
  const auto frames =
      static_cast<std::uint64_t>(std::max(1.0, std::ceil(seconds * fps)));
  std::vector<double> latencies;
  if (timed) {
    latencies.assign(frames * def_.viewers, -1.0);
    due_.assign(frames, 0.0);
    for (std::uint64_t f = 0; f < frames; ++f)
      due_[f] = static_cast<double>(f) / fps;
    latencies_ = &latencies;
  } else {
    latencies_ = nullptr;
  }
  const rt::ServeStats before = server.stats();
  epoch_ = Clock::now();
  std::uint64_t f = 0;
  for (;; ++f) {
    if (timed) {
      if (f == frames) break;
      std::this_thread::sleep_until(
          epoch_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_[f])));
      ph.late.push_back(seconds_since(epoch_) - due_[f]);
    } else if (seconds_since(epoch_) >= seconds) {
      break;
    }
    issue_frame_(server, f, timed);
  }
  server.drain();
  const double wall = seconds_since(epoch_);
  ph.frames += f;
  add_delta(ph.delta, server.stats(), before);
  latencies_ = nullptr;
  if (timed)
    ph.latencies.push_back(std::move(latencies));
  else
    ph.mpx_s.push_back(static_cast<double>(f) * crop_pixels_per_frame_() /
                       wall / 1e6);
}

double PtzRun::crop_pixels_per_frame_() const {
  double px = 0.0;
  for (const img::Image8& c : crops_)
    px += static_cast<double>(c.width()) * c.height();
  return px;
}

void PtzRun::standalone_probes_(Metrics& L) {
  // The frame's quantized views, as the server's coalescer sees them.
  std::vector<serve::QuantizedView> views;
  for (std::size_t v = 0; v < def_.viewers; ++v) {
    const View view = def_.pan ? panners_[v].view : hotspots_[assignment_[v]];
    views.push_back({view.level, quantize(view.rect)});
  }
  serve::Coalescer coalescer;
  coalescer.coalesce(views, true);
  std::vector<double> coalesce_us;
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t t0 = trace::now_ns();
    coalescer.coalesce(views, true);
    const std::int64_t t1 = trace::now_ns();
    trace::record("coalesce", t0, t1, static_cast<std::uint64_t>(rep));
    coalesce_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }

  // Build every cluster's view, then look each one up in a warm cache.
  serve::ViewBuildContext build;
  build.camera = camera_.get();
  build.src_width = kSrcW;
  build.src_height = kSrcH;
  serve::PlanCache cache(std::size_t{1} << 40);
  std::vector<serve::ViewKey> keys;
  std::vector<double> build_ms;
  for (const serve::ViewCluster& cl : coalescer.clusters()) {
    const serve::ViewKey key{1, cl.level, cl.bounds};
    build.view = level_views_[static_cast<std::size_t>(cl.level)].get();
    const std::int64_t t0 = trace::now_ns();
    auto entry = serve::build_cached_view(build, key);
    const std::int64_t t1 = trace::now_ns();
    trace::record("view.build", t0, t1, keys.size());
    build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    cache.insert(std::move(entry), 1);
    keys.push_back(key);
  }
  constexpr int kBatch = 4096;
  std::vector<double> find_ns;
  std::size_t found = 0;
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t t0 = trace::now_ns();
    for (int k = 0; k < kBatch; ++k)
      found += cache.find(keys[static_cast<std::size_t>(k) % keys.size()], 2) !=
               nullptr;
    const std::int64_t t1 = trace::now_ns();
    trace::record("cache.find", t0, t1, static_cast<std::uint64_t>(rep));
    find_ns.push_back(static_cast<double>(t1 - t0) / kBatch);
  }
  if (found != static_cast<std::size_t>(50) * kBatch)
    throw std::runtime_error("ptz: PlanCache::find missed a resident view");
  L.set("serve.coalesce_us", median(coalesce_us), "us");
  L.set("serve.view_build_ms", median(build_ms), "ms");
  L.set("serve.cache_find_ns", median(find_ns), "ns");
}

Result PtzRun::run(const RunOptions& opt) {
  Result res;
  std::unique_ptr<Stage> st;
  std::vector<double> setup_samples;
  while (more_setups(opt, setup_samples)) {
    st.reset();
    const auto t0 = Clock::now();
    st = set_up_();
    setup_samples.push_back(seconds_since(t0));
  }
  serve::Server& server = *st->server;
  const std::uint64_t probes0 = probes_checked_.load();

  // Nominal-rate and saturated segments alternate through the run; each
  // segment is one window of the windowed end-to-end statistics.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(opt.seconds / (1.5 * kWindowSeconds))));
  Phase nominal, saturated;
  for (int r = 0; r < rounds; ++r) {
    trace_requests_ = trace::enabled();
    run_segment_(server, def_.nominal_fps, opt.seconds / 1.5 / rounds,
                 nominal);
    trace_requests_ = false;
    run_segment_(server, 0.0, opt.seconds / 3 / rounds, saturated);
  }

  const std::uint64_t frames_run = nominal.frames + saturated.frames;
  const std::uint64_t probes_run = probes_checked_.load() - probes0;
  res.attempted = nominal.delta.requests + saturated.delta.requests;
  res.failed = res.attempted - nominal.delta.retired -
               saturated.delta.retired + probes_failed_.load() +
               (frames_run - std::min(frames_run, probes_run));
  std::vector<double> lat;
  for (const std::vector<double>& seg : nominal.latencies) {
    for (const double l : seg) {
      if (l < 0.0) {
        ++res.failed;  // retired without its latency being recorded
        continue;
      }
      lat.push_back(l);
    }
  }
  res.e2e.set("setup_s", median(setup_samples), "s");
  res.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.e2e.set("mpx_s", fast_rate(saturated.mpx_s), "Mpx/s");
  res.plans.emplace_back(server.options().spec(), "serve::Server, " +
                                                      std::to_string(kWorkers) +
                                                      " workers");
  if (!opt.traced) return res;

  Metrics& L = res.layer;
  const std::vector<trace::Span> spans = trace::collect();
  L.set("serve.request_us", median(trace::durations_ns(spans, "request")) / 1e3,
        "us");
  L.set("serve.submit_us",
        median(trace::durations_ns(spans, "submit_frame")) / 1e3, "us");
  const rt::ServeStats& d = nominal.delta;
  const double lookups = static_cast<double>(d.plan_hits + d.plan_misses);
  const double frames = static_cast<double>(d.frames);
  L.set("serve.p50_ms", median(lat) * 1e3, "ms");
  L.set("serve.p90_ms", quantile(lat, 0.9) * 1e3, "ms");
  L.set("serve.p99_ms", quantile(lat, 0.99) * 1e3, "ms");
  L.set("serve.hit_rate", static_cast<double>(d.plan_hits) / lookups,
        "ratio");
  L.set("serve.miss_share", static_cast<double>(d.plan_misses) / lookups,
        "ratio");
  L.set("serve.clusters_per_frame", static_cast<double>(d.clusters) / frames,
        "count");
  L.set("serve.tiles_saved",
        static_cast<double>(d.tiles_requested) /
            static_cast<double>(d.tiles_executed),
        "ratio");
  L.set("serve.evictions_per_frame",
        static_cast<double>(d.plan_evictions) / frames, "count");
  L.set("serve.gen_late_ms", quantile(nominal.late, 0.99) * 1e3, "ms");
  standalone_probes_(L);

  // Offered-rate ladder: the highest rate whose p99 stays within one
  // nominal frame period and whose producer never falls a period behind.
  const double limit = 1.0 / def_.nominal_fps;
  double max_rps = 0.0;
  for (double fps = def_.nominal_fps; fps <= def_.nominal_fps * 64;
       fps *= 2.0) {
    Phase rung;
    run_segment_(server, fps, 0.4, rung);
    std::vector<double> rl;
    for (const double l : rung.latencies.front())
      if (l >= 0.0) rl.push_back(l);
    const bool ok = rl.size() == rung.latencies.front().size() &&
                    quantile(rl, 0.99) <= limit &&
                    *std::max_element(rung.late.begin(), rung.late.end()) <=
                        limit;
    if (!ok) break;
    max_rps = fps * static_cast<double>(def_.viewers);
  }
  L.set("serve.max_rps", max_rps, "1/s");
  return res;
}

}  // namespace

Result run_ptz_zipf(const RunOptions& opt) {
  PtzRun run(kZipf, opt.seed);
  return run.run(opt);
}

Result run_ptz_pan(const RunOptions& opt) {
  PtzRun run(kPan, opt.seed);
  return run.run(opt);
}

}  // namespace pb

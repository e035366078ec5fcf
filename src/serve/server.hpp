// serve::Server — the virtual-PTZ serving layer.
//
// One fisheye source, N concurrent viewers, each with an independent
// pan/tilt/zoom view. The server exposes a discrete zoom pyramid (each
// LevelSpec is a PerspectiveView of its own focal); a client request is
// (level, rect in level output space, destination crop). Pan/tilt is the
// rect position, zoom is the level index. Like the paper's corrector, the
// server computes each level's warp map once per calibration: one float
// LUT per level over its quantized domain, plus (in float mode) its
// BlockTable of per-block source boxes, built at construction and again
// by recalibrate() (Σ quantized level area × 8 B plus ~4 KB per level,
// held outside cache_budget). Serving never copies the LUT: cached plans
// read their windows of it in place, each entry holding a shared pin on
// its level's LUT, and key plan tiles from the table.
//
// Per source frame the pipeline is: quantize request rects (origin down,
// extent up, to `quantum` px — transparent to clients, crops stay exact) →
// coalesce duplicates/overlaps into clusters (Coalescer) → resolve each
// cluster through the PlanCache (hit: zero-allocation; miss: plan over the
// cluster's window of the level LUT, converting it in packed/compact mode)
// and submit it at once to one of the plan-stream lanes of a
// stream::StreamExecutor, so workers run earlier clusters while later
// misses build → on cluster retire, copy member crops out of the shared
// cluster output and fire the per-request retire callback with the true
// request→crop latency.
//
// Backpressure is two-level: request() blocks when the open frame already
// holds max_pending requests, submit_frame() blocks when queue_depth
// frames are already parked behind the in-flight one. Frames dispatch
// serially (the next frame starts only after every cluster of the current
// one retired), which is also what lets the cache evict safely: only
// entries pinned by the one in-flight frame are ever executing.
//
//   par::ThreadPool pool(8);
//   serve::Server server(cfg, serve::ServeOptions::parse("serve:lanes=4"),
//                        pool);
//   server.set_retire([&](uint64_t seq, uint64_t tag, double lat) {...});
//   server.request(/*level=*/0, {x0, y0, x1, y1}, crop.view());
//   server.submit_frame(fisheye.view());
//   server.drain();
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <vector>

#include "core/model_spec.hpp"
#include "runtime/stats.hpp"
#include "runtime/timer.hpp"
#include "serve/coalesce.hpp"
#include "serve/plan_cache.hpp"
#include "stream/stream_executor.hpp"

namespace fisheye::serve {

/// One zoom level: output dims + perspective focal in pixels (0 = match
/// the lens centre-of-image resolution, like CorrectorConfig::out_focal).
struct LevelSpec {
  int width = 0;
  int height = 0;
  double focal = 0.0;
};

/// Serving knobs, parseable from a spec string through the same
/// convention as backend specs (kind:key=value,... — unknown or
/// out-of-range tokens rejected by name):
///
///   serve:lanes=4,queue_depth=4,pending=4096,cache_budget=128M,
///         quantum=16,coalesce=on,map=compact:8,frac=14,tile=32x32
struct ServeOptions {
  int lanes = 2;  ///< plan-stream lanes clusters fan out across
  std::size_t queue_depth = 4;     ///< frames parked behind the active one
  std::size_t max_pending = 4096;  ///< requests per frame before blocking
  std::size_t cache_budget = std::size_t{128} << 20;  ///< PlanCache bytes
  int quantum = 16;      ///< rect quantization, px; power of two
  bool coalesce = true;  ///< merge duplicate/overlapping views
  core::MapMode map_mode = core::MapMode::FloatLut;
  int compact_stride = 8;  ///< CompactLut grid pitch; quantum must be a
                           ///< multiple (keeps windows grid-aligned)
  int frac_bits = 14;
  int tile_w = 32;  ///< cluster plan tile size (views are small; smaller
  int tile_h = 32;  ///< tiles than full-frame plans keep lanes busy)

  /// Parse a serve spec. Throws InvalidArgument naming the offending
  /// token for unknown options, malformed values, or out-of-range
  /// numbers; `parse(o.spec())` round-trips.
  static ServeOptions parse(const std::string& spec);
  /// Canonical spec text (all options, fixed order).
  [[nodiscard]] std::string spec() const;
};

/// Source geometry + the view pyramid served from it.
struct ServerConfig {
  int src_width = 0;
  int src_height = 0;
  /// Lens model identity; implicitly convertible from LensKind, so
  /// `cfg.lens = LensKind::X` keeps working.
  core::LensSpec lens = core::LensKind::Equidistant;
  /// 0 = take the field of view from the lens spec (default 180 degrees);
  /// non-zero overrides the spec, like CorrectorConfig.
  double fov_rad = 0.0;
  int channels = 1;
  core::RemapOptions remap;  ///< Bilinear required for packed/compact
  std::vector<LevelSpec> levels;  ///< at least one zoom level
};

/// See the header comment. Thread-safety: request/submit_frame form the
/// producer side and may be called from one thread (or externally
/// serialized); drain/stats from any thread; retire callbacks run on
/// worker threads.
class Server {
 public:
  /// Per-request completion: `seq` is what request() returned, `tag` the
  /// caller's cookie, latency is request() → crop copied into dst.
  /// Invoked on a worker thread; must not call back into the server
  /// except via another thread's request/submit_frame.
  using RetireFn = std::function<void(std::uint64_t seq, std::uint64_t tag,
                                      double latency_seconds)>;

  /// The server's stream executor takes every lane of `pool` for the
  /// server's lifetime, each on a dedicated thread: one live Server (or
  /// StreamExecutor on every lane) per pool.
  Server(ServerConfig config, ServeOptions options, par::ThreadPool& pool);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Install the retire callback (before the first request).
  void set_retire(RetireFn fn) { retire_ = std::move(fn); }

  /// Register one view request against the *next* submitted frame. `rect`
  /// is in level output space and must lie within the level; `dst` must
  /// be rect-sized with the server's channel count and stay valid until
  /// the request retires. Blocks when the open frame is full
  /// (max_pending). Returns the request sequence number.
  std::uint64_t request(int level, par::Rect rect,
                        img::ImageView<std::uint8_t> dst,
                        std::uint64_t tag = 0);

  /// Bind the accumulated requests to one source frame and dispatch it
  /// (immediately when idle, else queued). Blocks when queue_depth frames
  /// are already waiting (backpressure). `src` must stay valid until the
  /// frame completes. Returns the frame id.
  std::uint64_t submit_frame(img::ConstImageView<std::uint8_t> src);

  /// Block until every submitted frame has fully retired, then rethrow
  /// the first kernel error, if any. Requests accumulated after the last
  /// submit_frame stay pending.
  void drain();

  /// Swap the lens model (new calibration): waits for in-flight frames,
  /// rebuilds the level LUTs, bumps the calibration generation and flushes
  /// the PlanCache — every cached view of the old calibration is invalid
  /// by key. The spec form carries calibration parameters and field of
  /// view; the (kind, fov) form wraps it for existing call sites.
  void recalibrate(const core::LensSpec& lens);
  void recalibrate(core::LensKind lens, double fov_rad);

  [[nodiscard]] rt::ServeStats stats() const;
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  struct Request {
    int level = 0;
    par::Rect rect;   ///< as requested (crop geometry)
    par::Rect qrect;  ///< quantized (cache/cluster geometry)
    img::ImageView<std::uint8_t> dst;
    std::uint64_t seq = 0;
    std::uint64_t tag = 0;
    double submit_time = 0.0;
  };

  enum class SlotState { Free, Open, Queued, Active };

  /// One frame in the pipeline; `requests`/`views` are parallel arrays
  /// reserved to max_pending, so accumulation allocates nothing.
  struct FrameSlot {
    std::vector<Request> requests;
    std::vector<QuantizedView> views;
    img::ConstImageView<std::uint8_t> src;
    std::uint64_t frame_id = 0;
    SlotState state = SlotState::Free;
  };

  /// One plan-stream lane. `fifo` holds the cluster indices submitted to
  /// the lane this frame, in order — stream frames retire FIFO, so the
  /// retire callback pops from `head`. It is sized max_pending up front:
  /// the dispatcher writes slot `tail` before that cluster's submit, the
  /// callback reads slot `head` after it, and neither resizes the vector
  /// while the other runs.
  struct Lane {
    stream::StreamId id = 0;
    std::vector<std::uint32_t> fifo;
    std::size_t tail = 0;  ///< dispatcher: next slot to fill
    std::size_t head = 0;  ///< retire callback: next slot to retire
  };

  [[nodiscard]] par::Rect quantize_(par::Rect r) const noexcept;
  [[nodiscard]] std::size_t tile_count_(par::Rect r) const noexcept;
  [[nodiscard]] ViewBuildContext build_context_(std::size_t level) const;
  void build_level_luts_();
  [[nodiscard]] bool activate_locked_(std::size_t slot_index);
  void dispatch_(std::size_t slot_index);
  void submit_clusters_(std::size_t slot_index);
  void on_lane_retire_(std::size_t lane_index);
  void complete_frame_();
  void wait_idle_locked_(std::unique_lock<std::mutex>& lock);

  ServerConfig config_;
  ServeOptions options_;
  std::unique_ptr<core::FisheyeCamera> camera_;
  std::vector<std::unique_ptr<core::PerspectiveView>> level_views_;
  /// One per level (build_level_lut, build_level_blocks — the tables in
  /// float mode only); read by the dispatcher's misses, rebuilt by
  /// recalibrate() while no frame is in flight. Cached entries pin the LUT
  /// they read, so a rebuild never frees a table under a held entry.
  std::vector<std::shared_ptr<const core::WarpMap>> level_luts_;
  std::vector<BlockTable> level_blocks_;
  std::uint64_t generation_ = 1;
  rt::Stopwatch epoch_;
  RetireFn retire_;

  // Producer/pipeline state, guarded by mu_. cv_ signals slot transitions
  // (backpressure release, drain).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<FrameSlot> slots_;
  std::size_t open_ = 0;         ///< slot accumulating requests
  std::size_t active_slot_ = 0;  ///< slot whose clusters are in flight
  bool active_ = false;
  /// A thread is inside dispatch_. Only one runs at a time: a frame
  /// activated meanwhile is handed off (`handoff_`) to that dispatch_,
  /// which picks it up after its submit loop.
  bool dispatching_ = false;
  bool handoff_ = false;
  std::uint64_t req_seq_ = 0;
  std::uint64_t frame_seq_ = 0;
  rt::ServeStats stats_;  ///< producer-side counters under mu_

  // Dispatch/retire state. Touched only by the single dispatcher (the
  // one-active-frame and one-dispatch_ invariants) and, for lanes' heads,
  // by that lane's serialized retire callbacks.
  PlanCache cache_;
  Coalescer coalescer_;
  std::vector<CachedView*> cluster_entries_;
  std::atomic<std::size_t> remaining_clusters_{0};

  // Retire-side counters; separate lock so crop-copy workers do not
  // contend with producers.
  mutable std::mutex retire_mu_;
  double total_latency_ = 0.0;
  double max_latency_ = 0.0;
  std::size_t retired_ = 0;

  std::vector<Lane> lanes_;
  /// Last member, destroyed first: its destructor waits for in-flight
  /// frames, whose retire callbacks touch everything above.
  std::unique_ptr<stream::StreamExecutor> exec_;
};

}  // namespace fisheye::serve

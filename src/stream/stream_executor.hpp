// Multi-stream correction executor: M camera streams, one pool.
//
// The paper corrects ONE fisheye frame as fast as the substrate allows;
// the serving question is different — M cameras each produce frames at
// their own rate, and the budget is aggregate throughput plus per-stream
// tail latency under a fixed core count. Giving every stream its own pool
// oversubscribes the machine; serializing streams through one pool wastes
// it whenever a small frame can't fill the lanes. The StreamExecutor is
// the hybrid: every stream keeps its own ExecutionPlan (tile order,
// workspace arena, instrumentation — its cache-warm state), and ALL
// streams share one set of lanes through a par::StreamScheduler —
// frames are claimed FIFO across streams (fairness), a frame's owner walks
// its tiles in source-locality order (cache), and idle workers steal tile
// batches across streams (utilization).
//
//   par::ThreadPool pool(8);
//   stream::StreamExecutor exec(pool);
//   const auto cam0 = exec.add_stream(corrector_720p);
//   const auto cam1 = exec.add_stream(corrector_ptz, /*channels=*/3);
//   exec.submit(cam0, fish0.view(), out0.view());   // returns immediately
//   exec.submit(cam1, fish1.view(), out1.view());
//   exec.drain();                                   // or wait(id, seq)
//   rt::StreamStats s = exec.stats(cam0);           // fairness counters
//
// Steady state allocates nothing: per-stream arenas (plan workspace,
// instrumentation slots, the pending-frame ring) are sized when the stream
// is added, and the scheduler's slots are fixed at construction and steal
// by moving range bounds — the operator-new-counting test pins this with M
// concurrent streams.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

#include "core/corrector.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"
#include "runtime/stats.hpp"
#include "runtime/timer.hpp"

namespace fisheye::stream {

/// Identifies a stream within one executor; dense indices, reused after
/// remove_stream.
using StreamId = std::size_t;

/// Per-frame completion callback, invoked by the worker that retires the
/// frame (not the submitting thread), with the stream's lock NOT held —
/// submitting the stream's next frame from inside the callback is the
/// intended closed-loop driving pattern. `seq` is the value submit()
/// returned; `latency_seconds` is submit → last tile done.
using FrameRetireFn =
    std::function<void(StreamId id, std::uint64_t seq, double latency_seconds)>;

struct StreamExecutorOptions {
  int tile_w = 64;  ///< stream plan tile size (see Corrector::prepare_stream)
  int tile_h = 64;
  std::size_t max_streams = 64;
  /// Frames a stream may hold queued behind its in-flight frame before
  /// submit() blocks (backpressure). Small keeps latency honest.
  std::size_t queue_depth = 4;
  /// A frame waiting longer than this between submit and its first
  /// executed tile counts as a starvation event in rt::StreamStats.
  double starvation_wait_seconds = 0.25;
};

/// See the header comment. Thread-safety: submit/wait/stats/add_stream/
/// remove_stream may be called from any thread; per stream, submit and
/// remove must not race each other (a stream has one producer).
class StreamExecutor {
 public:
  /// Serves streams on as many lanes as `pool` has until destruction, one
  /// dedicated thread per lane, so the pool's own frames keep their
  /// workers. Several executors may share one pool; each runs its own
  /// service threads.
  explicit StreamExecutor(par::ThreadPool& pool,
                          StreamExecutorOptions options = {});
  ~StreamExecutor();

  StreamExecutor(const StreamExecutor&) = delete;
  StreamExecutor& operator=(const StreamExecutor&) = delete;

  /// Register a stream: builds the stream's plan (tile order, arena,
  /// kernel) from `corrector`, which must outlive the stream. Throws
  /// InvalidArgument when max_streams are already registered.
  StreamId add_stream(const core::Corrector& corrector, int channels = 1,
                      FrameRetireFn on_retire = {});

  /// Register a *plan stream*: a lane with no corrector of its own, whose
  /// every submitted frame carries its own ExecutionPlan (the serving
  /// layer's cached per-view plans). The plan must stay valid — and must
  /// not execute anywhere else — until the frame retires; frames within
  /// the lane are serialized, so two frames carrying the same plan on the
  /// same lane never race its workspace. `queue_depth` overrides the
  /// executor-wide option for this lane (0 = use the option); the serving
  /// layer sizes it to its own request bound so lane submits never block
  /// inside a worker's retire path.
  StreamId add_plan_stream(FrameRetireFn on_retire = {},
                           std::size_t queue_depth = 0);

  /// Drain the stream's queued and in-flight frames, then unregister it.
  /// Must not race submit() on the same id.
  void remove_stream(StreamId id);

  /// Enqueue one frame; returns the stream's 1-based frame sequence
  /// number. Returns immediately while the stream holds fewer than
  /// queue_depth pending frames, otherwise blocks (backpressure). The
  /// src/dst buffers must stay valid until the frame retires.
  std::uint64_t submit(StreamId id, img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst);

  /// Plan-stream submit: enqueue one frame executing `plan` (see
  /// add_plan_stream). The plan's key must match the frame geometry.
  std::uint64_t submit(StreamId id, const core::ExecutionPlan& plan,
                       img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst);

  /// Block until the stream has retired frame `seq`.
  void wait(StreamId id, std::uint64_t seq);

  /// Block until every registered stream is idle, then rethrow the first
  /// kernel error, if any.
  void drain();

  /// Snapshot of the stream's cumulative service counters.
  [[nodiscard]] rt::StreamStats stats(StreamId id) const;

  /// The stream's plan (tile decomposition, last frame's instrumentation).
  /// Invalid for plan streams — their plans arrive per frame.
  [[nodiscard]] const core::ExecutionPlan& plan(StreamId id) const;

  /// Lanes serving this executor (the pool's size).
  [[nodiscard]] unsigned workers() const noexcept {
    return scheduler_.workers();
  }
  [[nodiscard]] std::size_t streams() const;  ///< currently registered

 private:
  /// One queued frame: views + identity + the plan that executes it (the
  /// stream's own plan, or the caller's on plan streams). POD-ish, lives
  /// in the pre-sized ring, so queueing allocates nothing.
  struct PendingFrame {
    const core::ExecutionPlan* plan = nullptr;
    img::ConstImageView<std::uint8_t> src;
    img::ImageView<std::uint8_t> dst;
    std::uint64_t seq = 0;
    double submit_time = 0.0;
  };

  struct Stream;

  // par::StreamJob trampolines (env = Stream*).
  static void run_tile_(void* env, std::size_t pos, unsigned worker);
  static void retire_frame_(void* env, const par::StealStats& frame);

  StreamId register_(std::unique_ptr<Stream> s);
  std::uint64_t enqueue_(Stream& s, const core::ExecutionPlan& plan,
                         img::ConstImageView<std::uint8_t> src,
                         img::ImageView<std::uint8_t> dst);
  void activate_locked_(Stream& s, const PendingFrame& frame);
  [[nodiscard]] Stream& stream_ref_(StreamId id) const;
  void wait_all_idle_() noexcept;
  void stop_service_() noexcept;

  StreamExecutorOptions options_;
  par::StreamScheduler scheduler_;
  rt::Stopwatch epoch_;  ///< all stream timestamps are seconds since this
  /// First kernel exception, rethrown by drain().
  std::mutex error_mu_;
  std::exception_ptr error_;
  /// Fixed-capacity registry: entries never move, so a submit on stream A
  /// never races an add/remove of stream B. Guarded by registry_mu_ for
  /// add/remove; readers access their own (handed-off) entry lock-free.
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Stream>> streams_;
  /// One service thread per scheduler worker; declared last, after
  /// everything the workers touch.
  std::vector<std::thread> service_;
};

}  // namespace fisheye::stream

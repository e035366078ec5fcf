#include "shard/shard_backend.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include "core/backend_registry.hpp"
#include "core/kernel.hpp"
#include "parallel/partition.hpp"
#include "runtime/timer.hpp"
#include "shard/shared_frame.hpp"
#include "util/error.hpp"

#ifdef _WIN32
#error "the shard backend requires a POSIX host"
#endif

#include <sys/wait.h>
#include <unistd.h>

namespace fisheye::shard {

namespace {

void copy_rows(img::View8 dst, img::CView8 src, const par::Rect& r) {
  const std::size_t off = static_cast<std::size_t>(r.x0) * src.channels;
  const std::size_t bytes =
      static_cast<std::size_t>(r.width()) * src.channels;
  for (int y = r.y0; y < r.y1; ++y)
    std::memcpy(dst.row(y) + off, src.row(y) + off, bytes);
}

}  // namespace

/// The plan-owned process fleet: shared frame, workers, monitor thread,
/// counters. Forked at plan() time; destroyed with the last plan copy.
class WorkerFleet {
 public:
  WorkerFleet(const ShardOptions& opts, const core::ExecContext& ectx,
              std::vector<par::Rect> strips, core::ResolvedKernel kernel)
      : opts_(opts),
        strips_(std::move(strips)),
        kernel_(kernel),
        frame_(std::make_unique<SharedFrame>(
            SharedFrame::Geometry{ectx.src.width, ectx.src.height,
                                  ectx.dst.width, ectx.dst.height,
                                  ectx.src.channels},
            static_cast<int>(strips_.size()))),
        procs_(strips_.size()) {
    for (std::size_t s = 0; s < strips_.size(); ++s)
      if (!spawn(static_cast<int>(s), /*epoch=*/1))
        throw Error(std::string("shard: fork failed: ") +
                    std::strerror(errno));
    monitor_ = std::thread([this] { monitor_loop(); });
  }

  ~WorkerFleet() {
    stopping_.store(true, std::memory_order_relaxed);
    frame_->header().shutdown.store(1, std::memory_order_release);
    frame_->header().doorbell.fetch_add(1, std::memory_order_release);
    futex_wake_all(frame_->header().doorbell);
    if (monitor_.joinable()) monitor_.join();
    for (WorkerProc& p : procs_) {
      const long pid = p.pid.load(std::memory_order_relaxed);
      if (pid > 0) {
        // Grace period for the shutdown flag, then force.
        int status = 0;
        bool reaped = false;
        for (int i = 0; i < 200 && !reaped; ++i) {
          if (waitpid(static_cast<pid_t>(pid), &status, WNOHANG) == pid)
            reaped = true;
          else
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!reaped) {
          kill(static_cast<pid_t>(pid), SIGKILL);
          waitpid(static_cast<pid_t>(pid), &status, 0);
        }
      }
    }
  }

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// One frame: publish source, wake workers, gather strips, cover for the
  /// dead. Allocation-free; called with the plan's instrumentation.
  void run_frame(const core::ExecutionPlan& plan,
                 const core::ExecContext& ctx) {
    core::PlanInstrumentation& inst = plan.instrumentation();
    const std::size_t nshards = strips_.size();
    inst.begin_frame(nshards);

    FrameHeader& hdr = frame_->header();
    const std::uint64_t seq = ++next_seq_;
    const img::View8 shared_src = frame_->src();

    // Stage the source into the shared frame — skipped entirely when the
    // caller already rendered into next_input() (zero-copy ingest).
    std::size_t in_bytes = 0;
    if (ctx.src.data != shared_src.data) {
      const std::size_t row_bytes =
          static_cast<std::size_t>(ctx.src.width) * ctx.src.channels;
      for (int y = 0; y < ctx.src.height; ++y)
        std::memcpy(shared_src.row(y), ctx.src.row(y), row_bytes);
      in_bytes = row_bytes * static_cast<std::size_t>(ctx.src.height);
    }

    hdr.frame_seq.store(seq, std::memory_order_release);
    hdr.doorbell.fetch_add(1, std::memory_order_release);
    futex_wake_all(hdr.doorbell);

    // Wait for strips, bounded by the frame deadline. A shard whose
    // process is dead or stalled is not waited on at all.
    const double deadline_s = opts_.timeout_ms * 1e-3;
    const rt::Stopwatch wait_sw;
    for (;;) {
      bool missing = false;
      for (std::size_t s = 0; s < nshards; ++s) {
        if (!procs_[s].live.load(std::memory_order_relaxed)) continue;
        if (frame_->slab(static_cast<int>(s))
                .done_seq.load(std::memory_order_acquire) < seq) {
          missing = true;
          break;
        }
      }
      if (!missing || wait_sw.elapsed_seconds() >= deadline_s) break;
      const std::uint32_t c =
          hdr.completions.load(std::memory_order_acquire);
      futex_wait(hdr.completions, c, /*timeout_ms=*/2);
    }
    wait_ns_.fetch_add(
        static_cast<std::uint64_t>(wait_sw.elapsed_seconds() * 1e9),
        std::memory_order_relaxed);

    // Gather: copy finished strips out of the shared frame; compute the
    // rest locally with the same (deterministic) kernel so the frame is
    // complete and bit-exact regardless of fleet health. The done_seq
    // gate is what keeps a late worker's strip of an earlier frame out.
    const img::View8 shared_dst = frame_->dst();
    std::size_t out_bytes = 0;
    std::size_t fallbacks = 0;
    for (std::size_t s = 0; s < nshards; ++s) {
      const par::Rect& strip = strips_[s];
      WorkerSlab& slab = frame_->slab(static_cast<int>(s));
      if (slab.done_seq.load(std::memory_order_acquire) >= seq) {
        copy_rows(ctx.dst, shared_dst, strip);
        out_bytes += static_cast<std::size_t>(strip.width()) *
                     strip.height() * ctx.dst.channels;
        inst.tile_seconds[s] =
            slab.last_ns.load(std::memory_order_relaxed) * 1e-9;
      } else {
        const rt::Stopwatch sw;
        kernel_(ctx.src, ctx.dst, strip);
        inst.tile_seconds[s] = sw.elapsed_seconds();
        ++fallbacks;
      }
    }

    inst.bytes_in = plan.workspace().bytes_in_estimate;
    inst.bytes_out = plan.workspace().bytes_out_estimate;
    inst.modeled = false;

    frames_.fetch_add(1, std::memory_order_relaxed);
    t_in_.fetch_add(in_bytes, std::memory_order_relaxed);
    t_out_.fetch_add(out_bytes, std::memory_order_relaxed);
    fallbacks_.fetch_add(fallbacks, std::memory_order_relaxed);
  }

  [[nodiscard]] rt::ShardStats stats() const {
    rt::ShardStats s;
    s.workers = static_cast<int>(strips_.size());
    s.frames = frames_.load(std::memory_order_relaxed);
    s.transport_in_bytes = t_in_.load(std::memory_order_relaxed);
    s.transport_out_bytes = t_out_.load(std::memory_order_relaxed);
    s.fallback_strips = fallbacks_.load(std::memory_order_relaxed);
    s.respawns = respawns_.load(std::memory_order_relaxed);
    s.stalls = stalls_.load(std::memory_order_relaxed);
    s.wait_seconds = wait_ns_.load(std::memory_order_relaxed) * 1e-9;
    return s;
  }

  [[nodiscard]] std::vector<ShardWorkerInfo> workers_info() const {
    std::vector<ShardWorkerInfo> out(strips_.size());
    for (std::size_t s = 0; s < strips_.size(); ++s) {
      out[s].shard = static_cast<int>(s);
      out[s].pid = procs_[s].pid.load(std::memory_order_relaxed);
      out[s].live = procs_[s].live.load(std::memory_order_relaxed);
      out[s].epoch = procs_[s].epoch.load(std::memory_order_relaxed);
    }
    return out;
  }

  [[nodiscard]] img::View8 next_input() const { return frame_->src(); }

 private:
  struct WorkerProc {
    std::atomic<long> pid{-1};
    std::atomic<bool> live{false};
    std::atomic<std::uint32_t> epoch{0};
    std::uint32_t seen_beat = 0;  ///< monitor-local heartbeat bookkeeping
    double beat_time = 0.0;
    bool was_stalled = false;
  };

  /// Forks shard `shard`'s worker. Returns false, with errno set, when
  /// fork fails; the shard then stays dead.
  bool spawn(int shard, std::uint32_t epoch) {
    WorkerProc& p = procs_[static_cast<std::size_t>(shard)];
    p.seen_beat = frame_->slab(shard).heartbeat.load(std::memory_order_relaxed);
    p.beat_time = clock_.elapsed_seconds();
    p.was_stalled = false;
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // A worker touches only the shared mapping and its kernel's tables, so
      // it keeps none of the host's descriptors: a pipe or socket the host
      // closes must not stay open for the fleet's lifetime.
#ifdef __linux__
      close_range(3, ~0U, 0);
#endif
      worker_main(shard);  // never returns
    }
    p.pid.store(pid, std::memory_order_relaxed);
    p.epoch.store(epoch, std::memory_order_relaxed);
    // Optimistic: the frame deadline covers a spawn that never comes up.
    p.live.store(true, std::memory_order_relaxed);
    return true;
  }

  /// Worker process entry. Inherits the shared mapping, its strip, the
  /// heartbeat period and the resolved kernel (fork's copy-on-write keeps
  /// its bound map/camera pointers valid), so the child needs no message
  /// and no plan re-resolution. It reports through its slab alone; the
  /// heartbeat word is bumped once on start and after every futex return.
  [[noreturn]] void worker_main(int shard) {
    const par::Rect strip = strips_[static_cast<std::size_t>(shard)];
    const img::View8 src = frame_->src();
    const img::View8 dst = frame_->dst();
    FrameHeader& hdr = frame_->header();
    WorkerSlab& me = frame_->slab(shard);
    me.heartbeat.fetch_add(1, std::memory_order_release);

    std::uint64_t seen = me.done_seq.load(std::memory_order_relaxed);
    for (;;) {
      if (hdr.shutdown.load(std::memory_order_acquire) != 0) _exit(0);
      const std::uint64_t seq =
          hdr.frame_seq.load(std::memory_order_acquire);
      if (seq == seen) {
        const std::uint32_t bell =
            hdr.doorbell.load(std::memory_order_acquire);
        if (hdr.frame_seq.load(std::memory_order_acquire) != seen ||
            hdr.shutdown.load(std::memory_order_acquire) != 0)
          continue;
        // Reparented: the supervisor died without setting shutdown. Checked
        // before each wait, not after it, so a doorbell runs the strip with
        // no system call in between.
        if (getppid() != supervisor_) _exit(0);
        futex_wait(hdr.doorbell, bell, opts_.heartbeat_ms);
        me.heartbeat.fetch_add(1, std::memory_order_release);
        continue;
      }
      const rt::Stopwatch sw;
      kernel_(src, dst, strip);
      me.last_ns.store(static_cast<std::uint64_t>(sw.elapsed_seconds() * 1e9),
                       std::memory_order_relaxed);
      me.heartbeat.fetch_add(1, std::memory_order_release);
      seen = seq;
      me.done_seq.store(seq, std::memory_order_release);
      hdr.completions.fetch_add(1, std::memory_order_release);
      futex_wake_all(hdr.completions);
    }
  }

  void monitor_loop() {
    const double hb_s = opts_.heartbeat_ms * 1e-3;
    const double timeout_s = opts_.timeout_ms * 1e-3;
    // Stall after ~4 silent heartbeats, but never sooner than the frame
    // deadline — a worker legitimately computing a slow strip heartbeats
    // only between frames.
    const double stall_after = std::max(4.0 * hb_s, timeout_s);
    const double kill_after = std::max(10.0 * hb_s, 2.0 * timeout_s);
    const auto tick =
        std::chrono::milliseconds(std::max(1, opts_.heartbeat_ms / 2));
    while (!stopping_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(tick);
      const double now = clock_.elapsed_seconds();
      for (std::size_t s = 0; s < procs_.size(); ++s) {
        WorkerProc& p = procs_[s];
        const long pid = p.pid.load(std::memory_order_relaxed);
        // Crash detection + respawn. A shard whose fork failed (pid -1)
        // stays dead, the supervisor computes its strip, and every tick
        // forks it again: a host out of processes loses throughput, not
        // the process.
        int status = 0;
        if (pid <= 0 ||
            waitpid(static_cast<pid_t>(pid), &status, WNOHANG) == pid) {
          p.live.store(false, std::memory_order_relaxed);
          p.pid.store(-1, std::memory_order_relaxed);
          if (!stopping_.load(std::memory_order_relaxed) &&
              spawn(static_cast<int>(s),
                    p.epoch.load(std::memory_order_relaxed) + 1))
            respawns_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Liveness: the slab heartbeat moved since the last tick.
        const std::uint32_t beat = frame_->slab(static_cast<int>(s))
                                       .heartbeat.load(
                                           std::memory_order_relaxed);
        if (beat != p.seen_beat) {
          p.seen_beat = beat;
          p.beat_time = now;
          if (p.was_stalled) {
            p.was_stalled = false;  // it woke up; hand the strip back
            p.live.store(true, std::memory_order_relaxed);
          }
        }
        // Stall detection: silent but not dead. Strips lease back to the
        // supervisor (live=false) until heartbeats resume; a worker wedged
        // past kill_after is killed and respawned by the reap above.
        const double silent = now - p.beat_time;
        if (p.live.load(std::memory_order_relaxed) &&
            silent > stall_after) {
          p.live.store(false, std::memory_order_relaxed);
          p.was_stalled = true;
          stalls_.fetch_add(1, std::memory_order_relaxed);
        }
        if (p.was_stalled && silent > kill_after)
          kill(static_cast<pid_t>(pid), SIGKILL);
      }
    }
  }

  ShardOptions opts_;
  std::vector<par::Rect> strips_;
  core::ResolvedKernel kernel_;
  std::unique_ptr<SharedFrame> frame_;
  std::vector<WorkerProc> procs_;
  rt::Stopwatch clock_;
  /// Recorded before any fork; a worker whose parent is no longer this
  /// process has been orphaned.
  const pid_t supervisor_ = getpid();
  std::uint64_t next_seq_ = 0;

  std::atomic<std::size_t> frames_{0};
  std::atomic<std::size_t> t_in_{0};
  std::atomic<std::size_t> t_out_{0};
  std::atomic<std::size_t> fallbacks_{0};
  std::atomic<std::size_t> respawns_{0};
  std::atomic<std::size_t> stalls_{0};
  std::atomic<std::uint64_t> wait_ns_{0};

  std::thread monitor_;
  std::atomic<bool> stopping_{false};
};

ShardBackend::ShardBackend(ShardOptions options) : options_(options) {
  FE_EXPECTS(options.workers >= 1);
  FE_EXPECTS(options.timeout_ms >= 1);
  FE_EXPECTS(options.heartbeat_ms >= 1);
}

ShardBackend::~ShardBackend() = default;

core::ExecutionPlan ShardBackend::plan(const core::ExecContext& ctx) {
  std::shared_ptr<const core::ConvertedMap> converted;
  const core::ExecContext ectx = resolve_map(ctx, converted);
  const int shards =
      std::min(options_.workers, std::max(1, ectx.dst.height));
  std::vector<par::Rect> strips = par::partition(
      ectx.dst.width, ectx.dst.height, par::PartitionKind::RowBlocks,
      shards);
  auto fleet = std::make_shared<WorkerFleet>(
      options_, ectx, strips,
      core::resolve_kernel(ectx, core::KernelVariant::Scalar));
  fleet_ = fleet;
  return make_plan(ctx, std::move(strips), std::move(fleet),
                   std::move(converted));
}

void ShardBackend::execute(const core::ExecutionPlan& plan,
                           const core::ExecContext& ctx) {
  check_plan(plan, ctx);
  FE_EXPECTS(ctx.src.data != nullptr && ctx.dst.data != nullptr);
  auto* fleet = plan.state<WorkerFleet>();
  FE_EXPECTS(fleet != nullptr);
  const core::ExecContext ectx =
      plan.converted() != nullptr ? plan.converted()->apply(ctx) : ctx;
  fleet->run_frame(plan, ectx);
}

std::string ShardBackend::name() const {
  core::SpecBuilder spec("shard");
  spec.opt("workers", options_.workers);
  const ShardOptions def;
  if (options_.timeout_ms != def.timeout_ms)
    spec.opt("timeout_ms", options_.timeout_ms);
  if (options_.heartbeat_ms != def.heartbeat_ms)
    spec.opt("heartbeat_ms", options_.heartbeat_ms);
  return decorate_spec(spec.str());
}

rt::ShardStats ShardBackend::last_stats() const {
  return fleet_ != nullptr ? fleet_->stats() : rt::ShardStats{};
}

std::vector<ShardWorkerInfo> ShardBackend::workers_info() const {
  return fleet_ != nullptr ? fleet_->workers_info()
                           : std::vector<ShardWorkerInfo>{};
}

img::View8 ShardBackend::next_input() const {
  FE_EXPECTS(fleet_ != nullptr);
  return fleet_->next_input();
}

}  // namespace fisheye::shard

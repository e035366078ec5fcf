// Lane-bound worker pool.
//
// This is the multicore substrate of the study: the CPU backend decomposes
// a frame into tiles and runs them on this pool, one fork-join per frame.
// A pool of N lanes runs every frame on the same N threads: lane 0 on the
// calling thread, lane i on worker i. The caller publishes a frame by
// bumping one generation word; workers spin on it for a bounded time after
// each frame (the next frame usually follows at once), or until another
// pool publishes a frame, then sleep on it with std::atomic::wait. So
// `threads=N` keeps N threads runnable during a frame and wakes N-1
// workers for it — the caller is never an idle N+1-th thread. Lane i runs
// on the i-th CPU after the caller's: a worker that finds itself elsewhere
// when a frame starts moves there, since the kernel may start or wake it
// on the caller's CPU and leave it sharing that CPU. The frame path takes
// no mutex, queue slot or std::function.
//
// Workers start on the first frame, so a pool used only to size services
// (stream::StreamExecutor runs its lanes on dedicated threads of its own)
// never starts any. The pool is torn down
// deterministically in the destructor (CP.23: joined, never detached).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/aligned.hpp"
#include "util/error.hpp"

namespace fisheye::par {

/// How the lanes of a frame share its index space: a fixed contiguous block
/// per lane, chunks claimed from one shared cursor (dynamic, guided), or
/// locality-ordered runs repaired by work stealing (work_stealing.hpp).
enum class Schedule { Static, Dynamic, Guided, Steal };

[[nodiscard]] constexpr const char* schedule_name(Schedule s) noexcept {
  switch (s) {
    case Schedule::Static: return "static";
    case Schedule::Dynamic: return "dynamic";
    case Schedule::Guided: return "guided";
    case Schedule::Steal: return "steal";
  }
  return "?";
}

/// The static schedule: lane `lane`'s contiguous block [first, second) of
/// [0, n) split into `lanes` near-equal blocks.
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> static_block(
    std::size_t n, unsigned lanes, unsigned lane) noexcept {
  return {n * lane / lanes, n * (lane + 1) / lanes};
}

/// The dynamic and guided schedules: lanes claim chunks of [0, n) from one
/// shared cursor until it runs out. Dynamic chunks hold `chunk` indices;
/// guided chunks hold remaining / (2 * lanes) but at least `chunk`, so they
/// start large (few claims) and shrink toward the tail (OpenMP's `guided`).
/// One cursor serves one frame; it lives on the caller's stack.
class ChunkCursor {
 public:
  ChunkCursor(std::size_t n, unsigned lanes, Schedule schedule,
              std::size_t chunk = 1)
      : n_(n), lanes_(lanes), chunk_(chunk),
        guided_(schedule == Schedule::Guided) {
    FE_EXPECTS(lanes >= 1 && chunk >= 1);
    FE_EXPECTS(schedule == Schedule::Dynamic || schedule == Schedule::Guided);
  }

  /// Claim the next chunk as [begin, end); false once [0, n) is claimed.
  [[nodiscard]] bool next(std::size_t& begin, std::size_t& end) noexcept {
    std::size_t want = chunk_;
    if (guided_) {
      // Size from an optimistic read, claim with one fetch_add (classic
      // guided self-scheduling).
      const std::size_t done = next_.load(std::memory_order_relaxed);
      if (done >= n_) return false;
      want = std::max(chunk_, (n_ - done) / (2 * lanes_));
    }
    begin = next_.fetch_add(want, std::memory_order_relaxed);
    if (begin >= n_) return false;
    end = std::min(begin + want, n_);
    return true;
  }

  /// Run fn(i) for every index this lane claims.
  template <class Fn>
  void drain(Fn&& fn) {
    std::size_t b = 0, e = 0;
    while (next(b, e))
      for (std::size_t i = b; i < e; ++i) fn(i);
  }

 private:
  // The cursor is written by every claim; keep the read-only fields off
  // its cache line.
  alignas(util::kCacheLine) std::atomic<std::size_t> next_{0};
  alignas(util::kCacheLine) std::size_t n_;
  std::size_t lanes_;
  std::size_t chunk_;
  bool guided_;
};

class ThreadPool {
 public:
  /// A pool of `threads` lanes. 0 means the hardware thread count.
  explicit ThreadPool(unsigned threads = 0);

  /// Stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes per frame: the caller plus size() - 1 workers.
  [[nodiscard]] unsigned size() const noexcept { return lanes_; }

  /// Run one frame: fn(lane) for every lane in [0, size()), lane 0 on the
  /// calling thread and lane i on worker i, and return when all lanes have.
  /// If lanes throw, the first exception is rethrown here after the frame
  /// completes. Frames from concurrent callers take turns.
  template <class Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_frame(
        [](void* f, unsigned lane) { (*static_cast<F*>(f))(lane); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  using LaneFn = void (*)(void* fn, unsigned lane);

  void run_frame(LaneFn call, void* fn);
  void run_lane(unsigned lane) noexcept;
  void worker_loop(unsigned w, std::uint32_t seen);
  void start_workers();
  void stop_workers() noexcept;
  void lock_turn() noexcept;
  void unlock_turn() noexcept;

  unsigned lanes_;
  std::chrono::microseconds spin_;  ///< how long waits spin, then sleep
  /// The CPUs lanes are placed on (empty when there are fewer than lanes).
  std::vector<int> cpus_;
  bool stopping_ = false;

  // The frame being run; written by the caller before it bumps gen_, read
  // by the workers after they see the bump.
  LaneFn call_ = nullptr;
  void* fn_ = nullptr;
  int caller_cpu_ = 0;  ///< index into cpus_ of the caller's CPU
  std::exception_ptr error_;  ///< first lane exception of the frame
  std::atomic<bool> failed_{false};

  /// Held by the caller for a whole frame (frames take turns).
  alignas(util::kCacheLine) std::atomic<std::uint32_t> turn_{0};
  /// Bumped once per frame; the word workers spin and sleep on.
  alignas(util::kCacheLine) std::atomic<std::uint32_t> gen_{0};
  /// Worker lanes of the current frame not yet finished.
  alignas(util::kCacheLine) std::atomic<std::uint32_t> pending_{0};

  std::vector<std::thread> workers_;  ///< workers_[i - 1] runs lane i
};

/// Process-wide default pool, sized to the hardware; created on first use.
ThreadPool& default_pool();

}  // namespace fisheye::par

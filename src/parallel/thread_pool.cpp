#include "parallel/thread_pool.hpp"

#include <sched.h>

#include <chrono>

#include "util/cpu.hpp"

namespace fisheye::par {

namespace {

/// How long a waiting thread spins before it sleeps: workers between
/// frames, the caller on its last lanes. Long enough to span the gap
/// between back-to-back frames (checking a 1080p output against a
/// reference takes 0.2-0.4 ms on a 4-core AVX-512 host, and a 200 us spin
/// ran such frames 2-5% slower), short enough that a pool going idle hands
/// its cores to the next one within about a frame.
constexpr std::chrono::microseconds kSpin{1000};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// The pool that published the latest frame in the process. A waiting
/// thread of any other pool stops spinning, so the cores of a pool that
/// went idle pass to the next pool at its first frame, not after kSpin.
std::atomic<const ThreadPool*> g_running{nullptr};

/// Wait until `done(word)` holds and return the value that satisfied it:
/// spin for `spin` while `pool` runs the latest frame, then sleep on the
/// word. Whoever changes the word to a value that satisfies `done` must
/// notify it.
template <class Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word,
                    std::chrono::microseconds spin, const ThreadPool* pool,
                    Done done) noexcept {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + spin;
  bool sleep = spin.count() == 0;
  std::uint32_t v = word.load(std::memory_order_acquire);
  for (unsigned i = 1; !done(v); ++i) {
    if (sleep) {
      word.wait(v, std::memory_order_acquire);
    } else {
      cpu_relax();
      sleep = g_running.load(std::memory_order_relaxed) != pool ||
              (i % 64 == 0 && Clock::now() >= deadline);
    }
    v = word.load(std::memory_order_acquire);
  }
  return v;
}

/// Move the calling thread to `cpu` and leave its affinity as it was: the
/// kernel keeps a thread where it runs until it has a reason to move it.
void move_to(int cpu) noexcept {
  cpu_set_t saved, one;
  if (sched_getaffinity(0, sizeof saved, &saved) != 0) return;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0)
    sched_setaffinity(0, sizeof saved, &saved);
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : lanes_(threads == 0 ? util::cpu_info().hardware_threads : threads),
      // Oversubscribed pools do not spin: a finished lane would take a
      // core from a lane still running.
      spin_(lanes_ <= util::cpu_info().hardware_threads
                ? kSpin
                : std::chrono::microseconds{0}) {
  FE_EXPECTS(lanes_ >= 1 && lanes_ <= 1024);
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::run_frame(LaneFn call, void* fn) {
  if (lanes_ == 1) {
    call(fn, 0);
    return;
  }
  lock_turn();
  if (workers_.empty()) {
    try {
      start_workers();
    } catch (...) {
      unlock_turn();
      throw;
    }
  }
  call_ = call;
  fn_ = fn;
  const auto here = std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
  caller_cpu_ = static_cast<int>(here - cpus_.begin());
  pending_.store(lanes_ - 1, std::memory_order_relaxed);
  if (g_running.load(std::memory_order_relaxed) != this)
    g_running.store(this, std::memory_order_relaxed);
  gen_.fetch_add(1, std::memory_order_seq_cst);
  gen_.notify_all();
  run_lane(0);
  await(pending_, spin_, this, [](std::uint32_t v) { return v == 0; });
  std::exception_ptr error = std::exchange(error_, nullptr);
  failed_.store(false, std::memory_order_relaxed);
  unlock_turn();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_lane(unsigned lane) noexcept {
  try {
    call_(fn_, lane);
  } catch (...) {
    if (!failed_.exchange(true, std::memory_order_relaxed))
      error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(unsigned w, std::uint32_t seen) {
  for (;;) {
    seen = await(gen_, spin_, this,
                 [seen](std::uint32_t v) { return v != seen; });
    if (stopping_) return;
    // Lane w belongs on the w-th CPU after the caller's. The kernel may
    // start or wake a worker on the caller's CPU, and a spinning worker
    // never gives it a reason to move, so a misplaced worker moves itself.
    if (caller_cpu_ < static_cast<int>(cpus_.size())) {
      const int home = cpus_[(caller_cpu_ + w) % cpus_.size()];
      if (sched_getcpu() != home) move_to(home);
    }
    run_lane(w);
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1)
      pending_.notify_one();
  }
}

void ThreadPool::start_workers() {
  // Each worker starts from the current generation, so the frame about to
  // be published is the first change it sees.
  const std::uint32_t seen = gen_.load(std::memory_order_relaxed);
  // The CPUs this process may run on; none when lanes must share them.
  cpus_.clear();
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  if (cpus_.size() < lanes_) cpus_.clear();
  workers_.reserve(lanes_ - 1);
  try {
    for (unsigned w = 1; w < lanes_; ++w)
      workers_.emplace_back([this, w, seen] { worker_loop(w, seen); });
  } catch (...) {
    stop_workers();
    throw;
  }
}

void ThreadPool::stop_workers() noexcept {
  if (workers_.empty()) return;
  stopping_ = true;
  gen_.fetch_add(1, std::memory_order_seq_cst);
  gen_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  stopping_ = false;
}

void ThreadPool::lock_turn() noexcept {
  while (turn_.exchange(1, std::memory_order_acquire) != 0)
    turn_.wait(1, std::memory_order_relaxed);
}

void ThreadPool::unlock_turn() noexcept {
  // seq_cst, not release: the store must be visible before notify_one()
  // reads whether anyone sleeps on the word.
  turn_.store(0, std::memory_order_seq_cst);
  turn_.notify_one();
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fisheye::par

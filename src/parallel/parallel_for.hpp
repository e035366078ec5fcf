// parallel_for with OpenMP-style scheduling policies over a ThreadPool.
//
// Static: the index space is pre-split into one contiguous chunk per lane.
// Dynamic: lanes pull fixed-size chunks from a shared cursor.
// Guided: like dynamic but chunk size decays (remaining / (2 * lanes)),
//         so early chunks are large (low overhead) and late chunks are small
//         (good tail balance) — exactly the OpenMP `guided` semantics.
//
// Exceptions thrown by the body are captured, the loop completes, and the
// first exception is rethrown on the calling thread (E.25-friendly: no
// exception crosses a thread boundary unobserved).
//
// Header templates end to end: the body is never erased into a
// std::function, so per-frame dispatch (core::CpuBackend's static, dynamic
// and guided schedules) performs no heap allocation — see
// ThreadPool::run_indexed.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"

namespace fisheye::par {

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

struct ForOptions {
  Schedule schedule = Schedule::Static;
  /// Chunk size for Dynamic (indices per grab); minimum chunk for Guided.
  std::size_t chunk = 1;
};

namespace detail {

/// Captures the first exception thrown by any lane.
class ErrorSlot {
 public:
  void capture() noexcept {
    const std::scoped_lock lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
  void rethrow_if_set() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
};

/// Schedule::Steal for ad-hoc parallel_for calls: fixed-size chunks in
/// index order, even initial runs across the pool, work stealing for the
/// tail. Allocates its scheduler per call — steady-state frame loops use a
/// persistent WorkStealingPool instead.
template <class Guarded>
void run_steal(ThreadPool& pool, std::size_t n, std::size_t chunk,
               const Guarded& guarded) {
  const std::size_t items = (n + chunk - 1) / chunk;
  std::vector<std::uint32_t> order(items);
  for (std::size_t i = 0; i < items; ++i)
    order[i] = static_cast<std::uint32_t>(i);
  WorkStealingPool ws(pool);
  const std::vector<std::size_t> runs =
      balanced_runs(items, ws.size(), [](std::size_t) { return 1.0; });
  ws.run_ordered(order.data(), items, runs, [&](std::size_t i) {
    const std::size_t b = i * chunk;
    guarded(b, std::min(b + chunk, n));
  });
}

}  // namespace detail

/// Run `body(begin, end)` over [0, n) split across `pool` per `opts`.
/// `body` receives contiguous half-open subranges and must be data-race
/// free across disjoint ranges.
template <class Body>
void parallel_for(ThreadPool& pool, std::size_t n, const Body& body,
                  ForOptions opts = {}) {
  if (n == 0) return;
  FE_EXPECTS(opts.chunk >= 1);
  const std::size_t lanes = std::min<std::size_t>(pool.size(), n);

  detail::ErrorSlot errors;
  auto guarded = [&](std::size_t b, std::size_t e) {
    try {
      body(b, e);
    } catch (...) {
      errors.capture();
    }
  };

  switch (opts.schedule) {
    case Schedule::Static: {
      // One contiguous chunk per lane; run_indexed assigns lane i chunk i.
      pool.run_indexed(lanes, [&](std::size_t lane) {
        const std::size_t b = n * lane / lanes;
        const std::size_t e = n * (lane + 1) / lanes;
        if (b < e) guarded(b, e);
      });
      break;
    }
    case Schedule::Dynamic: {
      std::atomic<std::size_t> cursor{0};
      const std::size_t chunk = opts.chunk;
      pool.run_indexed(lanes, [&](std::size_t) {
        for (;;) {
          const std::size_t b =
              cursor.fetch_add(chunk, std::memory_order_relaxed);
          if (b >= n) return;
          guarded(b, std::min(b + chunk, n));
        }
      });
      break;
    }
    case Schedule::Guided: {
      std::atomic<std::size_t> cursor{0};
      const std::size_t min_chunk = opts.chunk;
      pool.run_indexed(lanes, [&](std::size_t) {
        for (;;) {
          // Optimistic size estimate from the current cursor; claim with a
          // single fetch_add of that size (classic guided self-scheduling).
          const std::size_t done = cursor.load(std::memory_order_relaxed);
          if (done >= n) return;
          const std::size_t remaining = n - done;
          const std::size_t want =
              std::max(min_chunk, remaining / (2 * lanes));
          const std::size_t b =
              cursor.fetch_add(want, std::memory_order_relaxed);
          if (b >= n) return;
          guarded(b, std::min(b + want, n));
        }
      });
      break;
    }
    case Schedule::Steal: {
      // Generic entry point: chunks in index order, even initial runs, and
      // work stealing to repair imbalance. core::CpuBackend's steal
      // schedule does NOT come through here — it pre-orders plan tiles by
      // source locality and reuses a persistent WorkStealingPool (see
      // work_stealing.hpp); this path serves ad-hoc parallel_for callers.
      detail::run_steal(pool, n, opts.chunk, guarded);
      break;
    }
  }
  errors.rethrow_if_set();
}

/// Convenience: per-index body.
template <class Body>
void parallel_for_each(ThreadPool& pool, std::size_t n, const Body& body,
                       ForOptions opts = {}) {
  parallel_for(
      pool, n,
      [&body](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) body(i);
      },
      opts);
}

}  // namespace fisheye::par

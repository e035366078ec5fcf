// Locality-aware work-stealing tile executor.
//
// The paper's multicore axis (F2/F18) compares static, cyclic, and dynamic
// decompositions because per-pixel remap cost varies radially across the
// frame. A shared-cursor dynamic schedule balances load but interleaves
// tiles from distant frame regions on one worker, destroying source-cache
// locality; a static schedule preserves locality but eats the imbalance.
// Work stealing gets both: each worker starts with a contiguous run of a
// locality-ordered tile sequence (see core/tile_order.hpp for the Morton
// ordering), consumes it in order, and only when it runs dry does it steal
// half of another worker's remaining run — so steals repair imbalance
// while the common case walks source-adjacent tiles.
//
// Plans store their tiles in schedule order, so a schedule position is a
// tile index and every queue below is a range of positions.
//
// Structure:
//  * TileRange       — the one steal queue: positions [lo, hi). The owner
//                      pops from lo, walking its run in schedule order;
//                      thieves take HALF of what is left from hi — the far
//                      end of the owner's traversal, keeping the contested
//                      halves disjoint. A steal moves an index and copies
//                      nothing.
//  * StealScheduler  — one range per lane plus the stealing run loop;
//                      thread-agnostic: the CPU backend runs work(lane) on
//                      each lane of a ThreadPool frame. A thief parks its
//                      stolen batch as its own range, where other lanes
//                      can steal from it again.
//  * StreamScheduler — the hybrid frame×tile generalization: S stream
//                      slots instead of W lane ranges. Each slot holds
//                      one in-flight frame (a locality-ordered tile run);
//                      a worker claims the oldest unowned frame and walks
//                      its run in order, and idle workers steal tile
//                      batches across streams. stream::StreamExecutor runs
//                      its workers on threads of their own.
//
// Ranges are mutex-protected: pop and steal are O(1) under the lock and
// owner pops are uncontended in the common case. Victim selection reads a
// relaxed size mirror (approx_size) so the scan never touches a lock. At
// tile granularity (thousands of pixels each) the residual lock cost is
// noise, and the scheme is clean under ThreadSanitizer — the CI TSan job
// builds exactly this.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/aligned.hpp"
#include "util/error.hpp"

namespace fisheye::par {

/// Aggregate scheduling counters for one frame, surfaced per plan through
/// rt::TileStats so benches can report how much stealing actually happened.
/// Every executed tile counts in exactly one of local/stolen, so the two
/// sum to the frame's tile count.
struct StealStats {
  std::size_t local = 0;   ///< tiles a worker ran from its own initial run
  std::size_t stolen = 0;  ///< tiles run after being stolen from a victim
  std::size_t steals = 0;  ///< successful steal operations (≤ stolen)
};

/// Steal granularity. Stealing half of a tiny far-end run thrashes: the
/// thief pays a lock for one or two near-free tiles, the victim
/// immediately runs dry and steals back, and on small tile counts (skewed
/// frames, low-resolution streams) that ping-pong erases the schedule's
/// win over static (the F2b regression). The floor says "leave short runs
/// to their owner" — the residual imbalance is bounded by floor-1 tiles —
/// and the minimum batch makes every successful steal carry enough work to
/// amortize its cost.
inline constexpr std::size_t kStealFloor = 4;
inline constexpr std::size_t kMinStealBatch = 2;

/// One queue of unclaimed tiles: positions [lo, hi). The owner pops from
/// lo, thieves take batches from hi, so the unclaimed tiles always stay
/// one contiguous range.
class TileRange {
 public:
  void assign(std::size_t lo, std::size_t hi) {
    const std::scoped_lock lock(mu_);
    lo_ = lo;
    hi_ = hi;
    size_.store(hi - lo, std::memory_order_relaxed);
  }

  /// Owner pop: the next position in schedule order. False when empty.
  bool pop(std::size_t& pos) {
    const std::scoped_lock lock(mu_);
    if (lo_ == hi_) return false;
    pos = lo_++;
    size_.store(hi_ - lo_, std::memory_order_relaxed);
    return true;
  }

  /// Steal ceil(half) — at least min(kMinStealBatch, size) — of the
  /// remaining positions from the far end, unless fewer than kStealFloor
  /// remain, in which case nothing is taken. The batch is
  /// [first, first + taken).
  std::size_t steal_half(std::size_t& first) {
    const std::scoped_lock lock(mu_);
    const std::size_t n = hi_ - lo_;
    if (n < kStealFloor) return 0;
    const std::size_t take =
        std::max((n + 1) / 2, std::min(kMinStealBatch, n));
    hi_ -= take;
    first = hi_;
    size_.store(hi_ - lo_, std::memory_order_relaxed);
    return take;
  }

  /// Lock-free size mirror for victim scans. May be momentarily stale;
  /// pop and steal_half re-validate under the lock.
  [[nodiscard]] std::size_t approx_size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  std::atomic<std::size_t> size_{0};
};

/// The lane ranges plus the stealing loop, independent of who provides the
/// threads. One StealScheduler instance is reused frame after frame (the
/// lane blocks persist), and a given instance runs one frame at a time.
class StealScheduler {
 public:
  explicit StealScheduler(unsigned workers)
      : blocks_(workers == 0 ? 1 : workers) {
    FE_EXPECTS(workers >= 1);
  }

  /// Load a frame of runs.back() tiles: lane w starts with positions
  /// [runs[w], runs[w+1]). `runs` must have one entry more than the
  /// scheduler has lanes, start at 0 and never decrease.
  void begin_frame(const std::vector<std::size_t>& runs) {
    FE_EXPECTS(runs.size() == blocks_.size() + 1 && runs.front() == 0);
    remaining_.store(runs.back(), std::memory_order_relaxed);
    for (std::size_t w = 0; w < blocks_.size(); ++w) {
      FE_EXPECTS(runs[w] <= runs[w + 1]);
      Block& b = blocks_[w];
      b.tiles.assign(runs[w], runs[w + 1]);
      b.foreign = false;
      b.local = 0;
      b.stolen = 0;
      b.steals = 0;
    }
  }

  /// Lane `w`'s frame loop: drain the own range, then steal until every
  /// tile of the frame has been claimed. `fn(pos)` must not throw: a
  /// tile that throws would never be counted, and the other lanes would
  /// wait for it forever (catch at the call site, as CpuBackend does).
  template <class Fn>
  void work(unsigned w, Fn&& fn) {
    Block& self = blocks_[w];
    std::size_t pos = 0;
    for (;;) {
      // Own range first, in schedule order. It holds either the initial
      // run or one parked stolen batch (never both; a batch is parked only
      // once the run is drained), so `foreign` tells which counter a tile
      // belongs to — local + stolen across all lanes sums to exactly the
      // frame's tile count.
      while (self.tiles.pop(pos)) {
        ++(self.foreign ? self.stolen : self.local);
        fn(pos);
        remaining_.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (remaining_.load(std::memory_order_acquire) == 0) return;
      // Steal half of the largest visible range: the victim with the most
      // work left is both the best balance repair and keeps the stolen
      // half contiguous in schedule order. The scan reads the relaxed size
      // mirrors — no locks — and the floor leaves short runs to their
      // owners instead of thrashing over the tail.
      std::size_t victim = blocks_.size();
      std::size_t victim_size = 0;
      for (std::size_t v = 0; v < blocks_.size(); ++v) {
        if (v == w) continue;
        const std::size_t sz = blocks_[v].tiles.approx_size();
        if (sz > victim_size) {
          victim = v;
          victim_size = sz;
        }
      }
      if (victim == blocks_.size() || victim_size < kStealFloor) {
        // Nothing worth stealing; another lane may still be executing its
        // last tiles (remaining_ > 0). Yield instead of spinning hard: the
        // wait is bounded by a few tiles' execution time.
        if (remaining_.load(std::memory_order_acquire) == 0) return;
        std::this_thread::yield();
        continue;
      }
      std::size_t first = 0;
      const std::size_t got = blocks_[victim].tiles.steal_half(first);
      if (got == 0) continue;  // raced with the victim draining; rescan
      // Park the batch as the own range (empty here: only its owner ever
      // refills a range), to run in schedule order while other lanes can
      // still steal from it. Its tiles count as stolen.
      ++self.steals;
      self.foreign = true;
      self.tiles.assign(first, first + got);
    }
  }

  /// Aggregate counters of the last frame (call after the frame barrier).
  [[nodiscard]] StealStats stats() const {
    StealStats s;
    for (const Block& b : blocks_) {
      s.local += b.local;
      s.stolen += b.stolen;
      s.steals += b.steals;
    }
    return s;
  }

 private:
  /// Per-lane state, padded so that one lane's range updates never
  /// false-share with a neighbour's counters.
  struct alignas(util::kCacheLine) Block {
    TileRange tiles;
    bool foreign = false;  ///< tiles holds a parked stolen batch
    std::size_t local = 0;
    std::size_t stolen = 0;
    std::size_t steals = 0;
  };

  std::vector<Block> blocks_;
  std::atomic<std::size_t> remaining_{0};
};

/// One frame of one stream, loaded onto a StreamScheduler slot: its tile
/// count plus the callbacks that execute one tile (by schedule position)
/// and retire the frame. Both callbacks must not throw — the executor
/// layer wraps kernels with its own error slot.
struct StreamJob {
  std::size_t count = 0;                 ///< tiles in the frame
  void* env = nullptr;                   ///< passed through to the callbacks
  void (*run)(void* env, std::size_t pos, unsigned worker) = nullptr;
  /// Called exactly once per job, by the worker that finishes the frame's
  /// last tile, after the slot has gone idle — so posting the stream's
  /// next frame from inside retire is legal. `frame` carries the frame's
  /// local/stolen/steal counters (local + stolen == count, always).
  void (*retire)(void* env, const StealStats& frame) = nullptr;
};

/// Hybrid frame×tile scheduler: the multi-stream generalization of
/// StealScheduler. Where the single-frame scheduler splits ONE tile run
/// across W lane ranges, this one holds S stream slots, each carrying at
/// most one in-flight frame as a single locality-ordered run:
///
///  * a free worker claims the OLDEST posted unowned frame (FIFO over post
///    order — the fairness rule) and becomes its owner, walking the run in
///    schedule order (owner pops, exactly like a StealScheduler lane);
///  * a worker that finds no claimable frame steals a tile batch from the
///    largest visible range across ALL streams (subject to kStealFloor),
///    runs it at once, far end first, so big frames recruit idle workers
///    while small frames stay cache-local on one core;
///  * the worker that executes a frame's last tile retires it: counters
///    are snapshotted and reset, the slot goes idle, and the job's retire
///    callback runs (typically posting the stream's next queued frame).
///
/// Slot storage is fixed at construction (max_slots), so worker scans
/// never race a reallocation: create_slot/destroy_slot just flip a state
/// atomic, which makes concurrent stream add/remove safe while serving.
/// A slot's unclaimed tiles are a TileRange of its frame's positions, so a
/// steal copies nothing and no worker owns scratch that a larger frame
/// would have to grow: serving allocates nothing, however late a worker
/// first steals. One frame at a time per slot is the caller's contract
/// (checked).
class StreamScheduler {
 public:
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  StreamScheduler(unsigned workers, std::size_t max_slots)
      : slots_(max_slots), workers_(workers) {
    FE_EXPECTS(workers >= 1 && max_slots >= 1);
  }

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// Claim a free slot; kNoSlot when all max_slots are in use.
  [[nodiscard]] std::size_t create_slot() {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      int expected = kEmpty;
      if (slots_[s].state.compare_exchange_strong(
              expected, kIdle, std::memory_order_acq_rel))
        return s;
    }
    return kNoSlot;
  }

  /// Release a slot. The slot must be idle (no job posted or running).
  void destroy_slot(std::size_t s) {
    FE_EXPECTS(s < slots_.size());
    int expected = kIdle;
    const bool idle = slots_[s].state.compare_exchange_strong(
        expected, kEmpty, std::memory_order_acq_rel);
    FE_EXPECTS(idle);
  }

  /// Load one frame onto an idle slot and wake the workers. The caller
  /// must serialize posts per slot against the job's retire (the retire
  /// callback is the natural place to post the next frame).
  void post(std::size_t s, const StreamJob& job) {
    FE_EXPECTS(s < slots_.size());
    FE_EXPECTS(job.run != nullptr && job.count > 0);
    Slot& slot = slots_[s];
    FE_EXPECTS(slot.state.load(std::memory_order_acquire) == kIdle);
    slot.job = job;
    slot.seq.store(next_seq_.fetch_add(1, std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    slot.remaining.store(job.count, std::memory_order_relaxed);
    // The range mutex inside assign() orders everything above before any
    // pop or steal that yields this frame's items.
    slot.tiles.assign(0, job.count);
    slot.state.store(kActive, std::memory_order_release);
    {
      const std::scoped_lock lock(mu_);
      ++wake_version_;
    }
    cv_.notify_all();
  }

  /// Worker `w`'s service loop: claim-or-steal until stop(). Runs on a
  /// dedicated thread.
  void run_worker(unsigned w) {
    FE_EXPECTS(w < workers_);
    for (;;) {
      if (own_one(w)) continue;
      if (steal_one(w)) continue;
      // Nothing runnable: sleep until a post (or stop) bumps the version.
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_) return;
      const std::uint64_t version = wake_version_;
      lock.unlock();
      // Re-scan after reading the version so a post that landed between
      // the failed scans and the lock cannot be slept through.
      if (own_one(w) || steal_one(w)) continue;
      lock.lock();
      if (stop_) return;
      if (wake_version_ == version) cv_.wait(lock);
    }
  }

  /// Ask every worker to exit once it goes idle. Terminal: a stopped
  /// scheduler never serves again (executor lifetimes match this).
  void stop() {
    {
      const std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
  }

 private:
  static constexpr int kEmpty = 0;   ///< slot unassigned
  static constexpr int kIdle = 1;    ///< slot assigned, no job in flight
  static constexpr int kActive = 2;  ///< job posted and not yet retired
  static constexpr unsigned kNoOwner = std::numeric_limits<unsigned>::max();

  /// One stream's in-flight frame. Counter ownership: `local` is written
  /// only by the slot's current owner and read/reset only by the retiring
  /// worker — the remaining-counter acquire/release chain makes both safe
  /// without atomics; stolen/steals are touched by concurrent thieves and
  /// stay atomic.
  struct alignas(util::kCacheLine) Slot {
    std::atomic<int> state{kEmpty};
    std::atomic<unsigned> owner{kNoOwner};
    std::atomic<std::uint64_t> seq{0};       ///< post order (FIFO fairness)
    std::atomic<std::size_t> remaining{0};   ///< tiles not yet executed
    std::atomic<std::size_t> stolen{0};
    std::atomic<std::size_t> steals{0};
    std::size_t local = 0;
    StreamJob job{};
    TileRange tiles;
  };

  /// Claim the oldest posted frame that still has unclaimed run items and
  /// drain it in schedule order. Returns true when at least one tile ran.
  bool own_one(unsigned w) {
    for (;;) {
      std::size_t best = kNoSlot;
      std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        if (slot.state.load(std::memory_order_acquire) != kActive) continue;
        if (slot.owner.load(std::memory_order_relaxed) != kNoOwner) continue;
        if (slot.tiles.approx_size() == 0) continue;
        const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
        if (seq < best_seq) {
          best_seq = seq;
          best = s;
        }
      }
      if (best == kNoSlot) return false;
      Slot& slot = slots_[best];
      unsigned expected = kNoOwner;
      if (!slot.owner.compare_exchange_strong(expected, w,
                                              std::memory_order_acq_rel))
        continue;  // lost the claim race; rescan
      if (slot.state.load(std::memory_order_acquire) != kActive) {
        // The frame retired (or the slot was destroyed) between the scan
        // and the claim; let go and rescan.
        slot.owner.store(kNoOwner, std::memory_order_release);
        continue;
      }
      if (drain_own(w, slot, best_seq)) return true;
    }
  }

  /// Owner loop over one slot: pop-and-run the locality run in order. The
  /// job is re-read after every pop — the range mutex orders a post()'s
  /// job write before the pop that first yields the new frame's items, so
  /// the copy always matches the frame the item belongs to even when the
  /// frame retires and the next one is posted mid-drain. Crossing such a
  /// frame boundary exits the loop so the worker re-runs the FIFO scan
  /// (fairness: a camping owner must not shut out older streams).
  bool drain_own(unsigned w, Slot& slot, std::uint64_t claimed_seq) {
    bool ran = false;
    std::size_t pos = 0;
    while (slot.tiles.pop(pos)) {
      ran = true;
      ++slot.local;
      const StreamJob job = slot.job;
      const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
      job.run(job.env, pos, w);
      finish_item(slot);
      if (seq != claimed_seq) break;
    }
    slot.owner.store(kNoOwner, std::memory_order_release);
    return ran;
  }

  /// Steal a tile batch from the largest visible range across all streams
  /// and run it. A stolen batch belongs to exactly one frame (a range only
  /// ever holds the posted frame's positions), and the thief's unfinished
  /// items pin that frame, so the job copy is stable for the whole batch.
  bool steal_one(unsigned w) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      std::size_t victim = kNoSlot;
      std::size_t victim_size = 0;
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        if (slot.state.load(std::memory_order_acquire) != kActive) continue;
        const std::size_t sz = slot.tiles.approx_size();
        if (sz > victim_size) {
          victim = s;
          victim_size = sz;
        }
      }
      if (victim == kNoSlot || victim_size < kStealFloor)
        return false;
      Slot& slot = slots_[victim];
      std::size_t first = 0;
      const std::size_t got = slot.tiles.steal_half(first);
      if (got == 0) continue;  // raced with the owner draining; rescan
      const StreamJob job = slot.job;
      slot.steals.fetch_add(1, std::memory_order_relaxed);
      slot.stolen.fetch_add(got, std::memory_order_relaxed);
      // Far end first: the batch runs toward the owner's position.
      for (std::size_t i = first + got; i > first; --i) {
        job.run(job.env, i - 1, w);
        finish_item(slot);
      }
      return true;
    }
    return false;
  }

  /// Account one executed tile; the worker that brings `remaining` to zero
  /// retires the frame. Every contributor's counter writes happen before
  /// its decrement (release), so the retiring worker's acquire sees them
  /// all — reading and resetting the counters here is race-free.
  void finish_item(Slot& slot) {
    if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    StealStats frame;
    frame.local = slot.local;
    frame.stolen = slot.stolen.load(std::memory_order_relaxed);
    frame.steals = slot.steals.load(std::memory_order_relaxed);
    slot.local = 0;
    slot.stolen.store(0, std::memory_order_relaxed);
    slot.steals.store(0, std::memory_order_relaxed);
    const StreamJob job = slot.job;
    slot.state.store(kIdle, std::memory_order_release);
    if (job.retire != nullptr) job.retire(job.env, frame);
  }

  std::vector<Slot> slots_;
  unsigned workers_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t wake_version_ = 0;  ///< guarded by mu_
  bool stop_ = false;               ///< guarded by mu_
};

/// Split the (already ordered) tile sequence into `workers` contiguous
/// initial runs of near-equal total weight and return the run offsets
/// (workers + 1 entries). `weight(i)` is the balance proxy for item i —
/// tile area for the CPU backend's steal schedule.
template <class WeightFn>
std::vector<std::size_t> balanced_runs(std::size_t n, unsigned workers,
                                       WeightFn&& weight) {
  FE_EXPECTS(workers >= 1);
  std::vector<std::size_t> runs(workers + 1, n);
  runs[0] = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += weight(i);
  double acc = 0.0;
  std::size_t w = 1;
  for (std::size_t i = 0; i < n && w < workers; ++i) {
    acc += weight(i);
    // Cut after item i once this run carries its fair share.
    if (acc * static_cast<double>(workers) >=
        total * static_cast<double>(w)) {
      runs[w] = i + 1;
      ++w;
    }
  }
  for (; w < workers; ++w) runs[w] = std::max(runs[w - 1], runs[w]);
  return runs;
}

}  // namespace fisheye::par

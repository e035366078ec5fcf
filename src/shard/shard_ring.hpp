// Shared-memory frame ring for the multi-process shard backend.
//
// One anonymous MAP_SHARED segment, mapped by the supervisor BEFORE it
// forks its workers so every process sees it at the same address (no
// pointer translation, no name in the filesystem, reclaimed by the kernel
// when the last process exits — kill -9 leaks nothing). Layout:
//
//   [RingHeader]                 doorbell/completions futex words, the
//                                frame generation counter, shutdown flag
//   [WorkerSlab x workers]       per-worker progress and liveness: done_seq
//                                (the seqlock gate the supervisor reads),
//                                heartbeat, strip timing — one cache line
//                                each so a worker's stores never
//                                false-share
//   [slot 0..R-1]                each: [SlotHeader | src frame | dst frame]
//                                with 64-byte-aligned row pitch (same
//                                layout as img::Image, so kernels run on
//                                ring-backed views unchanged)
//
// Generation protocol (seqlock-style): the supervisor writes frame N's
// source into slot N % R, stores SlotHeader::seq = N (release), publishes
// RingHeader::frame_seq = N, and rings the doorbell. A worker validates
// SlotHeader::seq == N before computing (a mismatch means it slept through
// the frame and the slot was reused — skip, the supervisor's fallback
// covered it) and stores its WorkerSlab::done_seq = N (release) after
// writing its dst strip. The supervisor copies a strip out ONLY when
// done_seq >= N, which makes every torn case safe: a stale worker writing
// into a reused slot can never satisfy the gate for the frame that owns
// the slot now, so its garbage is overwritten before anyone reads it.
//
// Doorbells are futex words on Linux (FUTEX_WAIT/WAKE on the shared
// atomic — the same mechanism a cross-process semaphore would use, minus
// the allocation) and degrade to a short-sleep poll elsewhere; waits are
// always bounded so heartbeats keep flowing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "image/image.hpp"

namespace fisheye::shard {

/// Bounded wait on a shared 32-bit word: returns when `word != expected`,
/// on a wake, or after `timeout_ms` — whichever is first. Spurious returns
/// are fine (every caller re-checks its real condition).
void futex_wait(const std::atomic<std::uint32_t>& word, std::uint32_t expected,
                int timeout_ms) noexcept;

/// Wake every process waiting on `word` (no-op on the poll fallback).
void futex_wake_all(const std::atomic<std::uint32_t>& word) noexcept;

/// Shared control words; one per ring.
struct alignas(64) RingHeader {
  std::atomic<std::uint32_t> doorbell{0};     ///< bumped per posted frame
  std::atomic<std::uint32_t> completions{0};  ///< bumped per finished strip
  std::atomic<std::uint32_t> shutdown{0};     ///< workers _exit(0) when set
  std::atomic<std::uint64_t> frame_seq{0};    ///< newest posted frame
};

/// One worker's progress block (written by the worker, read by the
/// supervisor) and the fleet's only control channel: a worker inherits
/// its strip and heartbeat period through fork and reports only here.
/// done_seq is the strip-completion gate; heartbeat advances once on
/// start, on every wait tick and on every computed strip, so a stopped
/// process goes visibly silent.
struct alignas(64) WorkerSlab {
  std::atomic<std::uint64_t> done_seq{0};
  std::atomic<std::uint32_t> heartbeat{0};
  std::atomic<std::uint64_t> frames{0};   ///< strips computed (lifetime)
  std::atomic<std::uint64_t> last_ns{0};  ///< last strip's compute time
};

/// Per-slot generation counter (see the header comment's protocol).
struct alignas(64) SlotHeader {
  std::atomic<std::uint64_t> seq{0};
};

/// The mapping itself. Constructed by the supervisor pre-fork; the
/// destructor unmaps (worker processes hold their own references via
/// inherited mappings, so teardown order does not matter).
class FrameRing {
 public:
  struct Geometry {
    int src_w = 0, src_h = 0;
    int dst_w = 0, dst_h = 0;
    int channels = 1;
  };

  /// Maps and zero-initializes a ring of `slots` frames for `workers`
  /// workers. Throws Error when the kernel refuses the mapping.
  FrameRing(const Geometry& geometry, int slots, int workers);
  ~FrameRing();

  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  [[nodiscard]] RingHeader& header() const noexcept;
  [[nodiscard]] WorkerSlab& slab(int worker) const noexcept;
  [[nodiscard]] SlotHeader& slot(int s) const noexcept;
  /// Ring-backed views of slot `s`'s frames; same pitch discipline as
  /// img::Image, so every kernel in the catalogue runs on them unchanged.
  [[nodiscard]] img::View8 slot_src(int s) const noexcept;
  [[nodiscard]] img::View8 slot_dst(int s) const noexcept;

  [[nodiscard]] int slots() const noexcept { return slots_; }
  [[nodiscard]] int workers() const noexcept { return workers_; }
  [[nodiscard]] const Geometry& geometry() const noexcept { return geo_; }
  /// Total mapped bytes (header + slabs + all slots).
  [[nodiscard]] std::size_t bytes() const noexcept { return size_; }

 private:
  Geometry geo_;
  int slots_ = 0;
  int workers_ = 0;
  std::size_t src_pitch_ = 0;  ///< bytes between source rows
  std::size_t dst_pitch_ = 0;
  std::size_t slab_off_ = 0;
  std::size_t slot0_off_ = 0;
  std::size_t slot_stride_ = 0;
  std::size_t src_off_ = 0;  ///< source offset within a slot
  std::size_t dst_off_ = 0;
  std::size_t size_ = 0;
  unsigned char* base_ = nullptr;
};

}  // namespace fisheye::shard

// Shared-memory frame for the multi-process shard backend.
//
// One anonymous MAP_SHARED segment, mapped by the supervisor BEFORE it
// forks its workers so every process sees it at the same address (no
// pointer translation, no name in the filesystem, reclaimed by the kernel
// when the last process exits — kill -9 leaks nothing). Layout:
//
//   [FrameHeader]                doorbell/completions futex words, the
//                                frame sequence counter, shutdown flag
//   [WorkerSlab x workers]       per-worker progress and liveness: done_seq
//                                (the gate the supervisor reads),
//                                heartbeat, strip timing — one cache line
//                                each so a worker's stores never
//                                false-share
//   [src frame | dst frame]      one source and one output frame with
//                                64-byte-aligned row pitch (same layout as
//                                img::Image, so kernels run on shared
//                                views unchanged)
//
// Sequence protocol: the supervisor runs one frame at a time. It writes
// frame N's source into the shared source frame, publishes
// FrameHeader::frame_seq = N (release) and rings the doorbell. A worker
// computes its strip of the shared output and stores its
// WorkerSlab::done_seq = N (release). The supervisor copies a strip out
// ONLY when done_seq >= N. Each strip has one writer, which finishes its
// frames in order, so a late worker's writes for an earlier frame (read,
// perhaps, from a source already being overwritten) land before its
// done_seq can reach N, and are overwritten before anyone reads them.
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

/// Shared control words; one per fleet.
struct alignas(64) FrameHeader {
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
  std::atomic<std::uint64_t> last_ns{0};  ///< last strip's compute time
};

/// The mapping itself. Constructed by the supervisor pre-fork; the
/// destructor unmaps (worker processes hold their own references via
/// inherited mappings, so teardown order does not matter).
class SharedFrame {
 public:
  struct Geometry {
    int src_w = 0, src_h = 0;
    int dst_w = 0, dst_h = 0;
    int channels = 1;
  };

  /// Maps and zero-initializes one source and one output frame for
  /// `workers` workers. Throws Error when the kernel refuses the mapping.
  SharedFrame(const Geometry& geometry, int workers);
  ~SharedFrame();

  SharedFrame(const SharedFrame&) = delete;
  SharedFrame& operator=(const SharedFrame&) = delete;

  [[nodiscard]] FrameHeader& header() const noexcept;
  [[nodiscard]] WorkerSlab& slab(int worker) const noexcept;
  /// Shared views of the frames; same pitch discipline as img::Image, so
  /// every kernel in the catalogue runs on them unchanged.
  [[nodiscard]] img::View8 src() const noexcept { return src_; }
  [[nodiscard]] img::View8 dst() const noexcept { return dst_; }

 private:
  std::size_t size_ = 0;
  unsigned char* base_ = nullptr;
  img::View8 src_;
  img::View8 dst_;
};

}  // namespace fisheye::shard

#include "shard/shared_frame.hpp"

#include <cerrno>
#include <cstring>
#include <ctime>
#include <new>
#include <string>

#include "util/aligned.hpp"
#include "util/error.hpp"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#include <sys/mman.h>
#endif

namespace fisheye::shard {

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "cross-process futex words must be lock-free");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process sequence counters must be lock-free");
static_assert(sizeof(FrameHeader) == 64 && sizeof(WorkerSlab) == 64,
              "shared blocks are exactly one cache line, so the frames "
              "after them start on one");

void futex_wait(const std::atomic<std::uint32_t>& word, std::uint32_t expected,
                int timeout_ms) noexcept {
#ifdef __linux__
  timespec ts{};
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  // FUTEX_WAIT re-checks *word == expected atomically against concurrent
  // wakes, so a doorbell rung between our load and this call is not lost.
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(&word),
          FUTEX_WAIT, expected, &ts, nullptr, 0);
#else
  // Poll fallback: short bounded naps until the word moves or time is up.
  timespec nap{};
  nap.tv_nsec = 500000L;  // 500us
  for (int waited_us = 0; waited_us < timeout_ms * 1000; waited_us += 500) {
    if (word.load(std::memory_order_acquire) != expected) return;
    nanosleep(&nap, nullptr);
  }
#endif
}

void futex_wake_all(const std::atomic<std::uint32_t>& word) noexcept {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(&word),
          FUTEX_WAKE, INT32_MAX, nullptr, nullptr, 0);
#else
  (void)word;  // pollers notice the store on their next nap boundary
#endif
}

SharedFrame::SharedFrame(const Geometry& geometry, int workers) {
  FE_EXPECTS(geometry.src_w > 0 && geometry.src_h > 0);
  FE_EXPECTS(geometry.dst_w > 0 && geometry.dst_h > 0);
  FE_EXPECTS(geometry.channels > 0 && geometry.channels <= 4);
  FE_EXPECTS(workers > 0);

  const std::size_t src_pitch = util::align_up(
      static_cast<std::size_t>(geometry.src_w) * geometry.channels,
      util::kCacheLine);
  const std::size_t dst_pitch = util::align_up(
      static_cast<std::size_t>(geometry.dst_w) * geometry.channels,
      util::kCacheLine);
  const std::size_t src_off =
      sizeof(FrameHeader) +
      sizeof(WorkerSlab) * static_cast<std::size_t>(workers);
  const std::size_t dst_off =
      src_off + src_pitch * static_cast<std::size_t>(geometry.src_h);
  size_ = dst_off + dst_pitch * static_cast<std::size_t>(geometry.dst_h);

  void* mem = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED)
    throw Error("shard: mmap of " + std::to_string(size_) +
                "-byte shared frame failed: " + std::strerror(errno));
  base_ = static_cast<unsigned char*>(mem);
  new (base_) FrameHeader();
  for (int w = 0; w < workers; ++w)
    new (base_ + sizeof(FrameHeader) + sizeof(WorkerSlab) * w) WorkerSlab();
  src_ = {base_ + src_off, geometry.src_w, geometry.src_h, geometry.channels,
          src_pitch};
  dst_ = {base_ + dst_off, geometry.dst_w, geometry.dst_h, geometry.channels,
          dst_pitch};
}

SharedFrame::~SharedFrame() {
  if (base_ != nullptr) munmap(base_, size_);
}

FrameHeader& SharedFrame::header() const noexcept {
  return *reinterpret_cast<FrameHeader*>(base_);
}

WorkerSlab& SharedFrame::slab(int worker) const noexcept {
  return *reinterpret_cast<WorkerSlab*>(base_ + sizeof(FrameHeader) +
                                        sizeof(WorkerSlab) * worker);
}

}  // namespace fisheye::shard

// Cache-line / SIMD-lane aligned storage, and where large planes live.
//
// Remap kernels stream through large planes; aligning rows to 64 bytes keeps
// vector loads unsplit and avoids false sharing between the per-thread output
// strips produced by the parallel backends.
//
// Planes of at least kMapBytes are mapped straight from the kernel and
// unmapped on free. glibc maps such requests too, but once a mapped chunk
// is freed it raises its mmap threshold to that chunk's size: later planes
// then come from the heap and stay resident after they are freed, so a
// process that builds and drops frames or warp maps (a 4K RGB scene is
// 24.9 MB, a 1080p warp-map plane 7.9 MiB) would end with a peak RSS that
// depends on its allocation history.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

#include "util/error.hpp"

namespace fisheye::util {

inline constexpr std::size_t kCacheLine = 64;

/// Storage requests of at least this many bytes bypass malloc.
inline constexpr std::size_t kMapBytes = std::size_t{4} << 20;

/// `bytes` of zeroed, page-aligned memory mapped from the kernel.
inline void* map_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

/// Round `n` up to the next multiple of `alignment` (a power of two).
constexpr std::size_t align_up(std::size_t n, std::size_t alignment) noexcept {
  return (n + alignment - 1) & ~(alignment - 1);
}

constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// RAII owner of a 64-byte aligned, zero-initialized buffer of `T`.
/// Movable, non-copyable; the canonical backing store for image planes,
/// warp-map LUTs and simulated accelerator local stores.
template <class T>
class AlignedBuffer {
 public:
  AlignedBuffer() noexcept = default;

  explicit AlignedBuffer(std::size_t count) : size_(count) {
    if (count == 0) return;
    const std::size_t bytes = align_up(count * sizeof(T), kCacheLine);
    void* p = bytes >= kMapBytes ? map_pages(bytes)
                                 : std::aligned_alloc(kCacheLine, bytes);
    if (p == nullptr) throw std::bad_alloc{};
    data_ = std::unique_ptr<T, Deleter>(static_cast<T*>(p), Deleter{bytes});
    std::uninitialized_value_construct_n(data_.get(), count);
  }

  AlignedBuffer(AlignedBuffer&&) noexcept = default;
  AlignedBuffer& operator=(AlignedBuffer&&) noexcept = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] const T* data() const noexcept { return data_.get(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_.get()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_.get()[i]; }

  [[nodiscard]] T* begin() noexcept { return data_.get(); }
  [[nodiscard]] T* end() noexcept { return data_.get() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_.get(); }
  [[nodiscard]] const T* end() const noexcept { return data_.get() + size_; }

 private:
  struct Deleter {
    std::size_t bytes = 0;
    void operator()(T* p) const noexcept {
      if (bytes >= kMapBytes)
        munmap(p, bytes);
      else
        std::free(p);
    }
  };
  std::unique_ptr<T, Deleter> data_;
  std::size_t size_ = 0;
};

/// std::vector allocator for large planes: requests of at least kMapBytes
/// are mapped, smaller ones go through operator new as usual.
template <class T>
struct LargeAllocator {
  using value_type = T;

  LargeAllocator() noexcept = default;
  template <class U>
  LargeAllocator(const LargeAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    if (n * sizeof(T) < kMapBytes) return std::allocator<T>{}.allocate(n);
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < kMapBytes)
      std::allocator<T>{}.deallocate(p, n);
    else
      munmap(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const LargeAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace fisheye::util

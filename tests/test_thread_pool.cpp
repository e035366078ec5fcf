// ThreadPool behaviour: every lane of every frame runs, lanes stay on their
// threads, concurrent callers take turns, index cursors, shutdown, and a
// stress run.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace fisheye::par {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, InvalidSizeViolatesContract) {
  EXPECT_THROW(ThreadPool(2000), fisheye::InvalidArgument);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  // Every lane of every frame runs: 25 frames x 4 lanes.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int f = 0; f < 25; ++f)
    pool.run([&count](unsigned) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  // run() returns only once its slowest lane has.
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.run([&done](unsigned lane) {
    if (lane != 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true);
  });
  EXPECT_TRUE(done.load());
}

TEST(ThreadPool, DestructorDrainsQueue) {
  // Frames are synchronous, so nothing is queued at destruction; the
  // destructor must stop spinning and sleeping workers alike, and no lane
  // of an earlier frame may be lost.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int f = 0; f < 25; ++f) {
      pool.run([&count](unsigned) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
      if (f == 12) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // destructor joins
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, RunIndexedCoversEachIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ChunkCursor cursor(n, pool.size(), Schedule::Dynamic);
  pool.run([&](unsigned) {
    cursor.drain([&hits](std::size_t i) { hits[i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, RunIndexedZeroIsNoop) {
  ThreadPool pool(2);
  ChunkCursor cursor(0, pool.size(), Schedule::Dynamic);
  pool.run([&](unsigned) {
    cursor.drain([](std::size_t) { FAIL() << "must not be called"; });
  });
}

TEST(ThreadPool, RunIndexedUsesMultipleWorkers) {
  // Four lanes run on four distinct threads, whoever claims the indices.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  ChunkCursor cursor(64, pool.size(), Schedule::Dynamic);
  pool.run([&](unsigned) {
    {
      const std::scoped_lock lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    cursor.drain([](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPool, LanesRunOnFixedThreads) {
  // Lane 0 runs on the caller and lane i on worker i, in every frame.
  ThreadPool pool(4);
  std::array<std::thread::id, 4> first{};
  pool.run([&](unsigned lane) { first[lane] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(), 4u);
  std::atomic<int> moved{0};
  for (int f = 0; f < 1000; ++f)
    pool.run([&](unsigned lane) {
      if (std::this_thread::get_id() != first[lane]) moved.fetch_add(1);
    });
  EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersTakeTurnsOnTheDefaultPool) {
  // Two threads run frames on the shared pool at once: each frame still
  // runs every index exactly once.
  ThreadPool& pool = default_pool();
  std::atomic<int> bad{0};
  const auto caller = [&] {
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    for (int f = 0; f < 500; ++f) {
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      ChunkCursor cursor(n, pool.size(), Schedule::Dynamic);
      pool.run([&](unsigned) {
        cursor.drain([&](std::size_t i) { hits[i].fetch_add(1); });
      });
      for (const auto& h : hits)
        if (h.load() != 1) bad.fetch_add(1);
    }
  };
  std::thread a(caller), b(caller);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPoolStress, ManySmallBatches) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int batch = 0; batch < 20; ++batch) {
    ChunkCursor cursor(257, pool.size(), Schedule::Guided);
    pool.run([&](unsigned) {
      cursor.drain([&sum](std::size_t i) {
        sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
      });
    });
  }
  // 20 * sum(0..256) = 20 * 257*256/2
  EXPECT_EQ(sum.load(), 20LL * 257 * 256 / 2);
}

}  // namespace
}  // namespace fisheye::par

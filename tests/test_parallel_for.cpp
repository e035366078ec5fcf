// Lane schedule semantics, composed on ThreadPool lanes the way
// core::CpuBackend runs its tiles: exactly-once coverage for every
// schedule, contiguity of static blocks, chunk sizes of the shared cursor,
// exception propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"

namespace fisheye::par {
namespace {

/// Run body(begin, end) over [0, n) on every lane of `pool`: static
/// blocks, chunks of a shared cursor, or work stealing over chunk-sized
/// items in index order.
template <class Body>
void run_schedule(ThreadPool& pool, std::size_t n, const Body& body,
                  Schedule schedule = Schedule::Static,
                  std::size_t chunk = 1) {
  const unsigned lanes = pool.size();
  if (schedule == Schedule::Static) {
    pool.run([&](unsigned lane) {
      const auto [b, e] = static_block(n, lanes, lane);
      if (b < e) body(b, e);
    });
  } else if (schedule == Schedule::Steal) {
    const std::size_t items = (n + chunk - 1) / chunk;
    StealScheduler steal(lanes);
    steal.begin_frame(
        balanced_runs(items, lanes, [](std::size_t) { return 1.0; }));
    pool.run([&](unsigned lane) {
      steal.work(lane, [&](std::size_t i) {
        body(i * chunk, std::min(i * chunk + chunk, n));
      });
    });
  } else {
    ChunkCursor cursor(n, lanes, schedule, chunk);
    pool.run([&](unsigned) {
      std::size_t b = 0, e = 0;
      while (cursor.next(b, e)) body(b, e);
    });
  }
}

/// Per-index form.
template <class Body>
void run_each(ThreadPool& pool, std::size_t n, const Body& body,
              Schedule schedule = Schedule::Static, std::size_t chunk = 1) {
  run_schedule(
      pool, n,
      [&body](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) body(i);
      },
      schedule, chunk);
}

struct Case {
  Schedule schedule;
  std::size_t n;
  std::size_t chunk;
};

// Without this, gtest prints a Case as its raw bytes, uninitialised padding
// included, and the ctest names, which gtest_discover_tests builds from the
// printed value, changed from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << schedule_name(c.schedule) << ",n=" << c.n << ",chunk=" << c.chunk;
}

class ParallelForSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelForSweep, CoversEveryIndexExactlyOnce) {
  const Case c = GetParam();
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(c.n);
  run_schedule(
      pool, c.n,
      [&hits](std::size_t b, std::size_t e) {
        ASSERT_LE(b, e);
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      c.schedule, c.chunk);
  for (std::size_t i = 0; i < c.n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ParallelForSweep,
    ::testing::Values(Case{Schedule::Static, 1, 1},
                      Case{Schedule::Static, 100, 1},
                      Case{Schedule::Static, 1001, 1},
                      Case{Schedule::Dynamic, 1, 1},
                      Case{Schedule::Dynamic, 100, 7},
                      Case{Schedule::Dynamic, 1001, 64},
                      Case{Schedule::Guided, 1, 1},
                      Case{Schedule::Guided, 100, 4},
                      Case{Schedule::Guided, 1001, 8},
                      Case{Schedule::Guided, 4096, 1},
                      Case{Schedule::Steal, 1, 1},
                      Case{Schedule::Steal, 100, 7},
                      Case{Schedule::Steal, 1001, 64},
                      Case{Schedule::Steal, 4096, 1}));

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  run_schedule(pool, 0, [](std::size_t, std::size_t) {
    FAIL() << "body must not run for n == 0";
  });
}

TEST(ParallelFor, StaticChunksAreContiguousAndOrderedPerLane) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  run_schedule(pool, 103, [&](std::size_t b, std::size_t e) {
    const std::scoped_lock lock(mu);
    ranges.emplace_back(b, e);
  });
  // Static: at most one range per lane, ranges tile [0, 103).
  EXPECT_LE(ranges.size(), 4u);
  std::sort(ranges.begin(), ranges.end());
  std::size_t expect = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expect);
    expect = e;
  }
  EXPECT_EQ(expect, 103u);
}

TEST(ParallelFor, DynamicRespectsChunkSize) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::size_t> sizes;
  run_schedule(
      pool, 100,
      [&](std::size_t b, std::size_t e) {
        const std::scoped_lock lock(mu);
        sizes.push_back(e - b);
      },
      Schedule::Dynamic, 16);
  for (std::size_t s : sizes) EXPECT_LE(s, 16u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 100u);
}

TEST(ParallelFor, GuidedChunksShrink) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  run_schedule(
      pool, 10000,
      [&](std::size_t b, std::size_t e) {
        const std::scoped_lock lock(mu);
        ranges.emplace_back(b, e);
      },
      Schedule::Guided, 8);
  std::sort(ranges.begin(), ranges.end());
  // First claimed chunk is remaining/(2*lanes) = 2500-ish; the final chunks
  // bottom out at the minimum.
  EXPECT_GE(ranges.front().second - ranges.front().first, 1000u);
  EXPECT_LE(ranges.back().second - ranges.back().first, 8u);
}

TEST(ParallelFor, ExceptionIsRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      run_schedule(pool, 100,
                   [](std::size_t b, std::size_t) {
                     if (b >= 25) throw fisheye::IoError("lane failure");
                   }),
      fisheye::IoError);
  // Pool must still be usable afterwards.
  std::atomic<int> ok{0};
  run_each(pool, 10, [&ok](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelFor, FirstExceptionWins) {
  ThreadPool pool(4);
  try {
    run_each(
        pool, 100,
        [](std::size_t i) {
          if (i % 2 == 0) throw fisheye::IoError("even");
          throw fisheye::ResourceError("odd");
        },
        Schedule::Dynamic);
    FAIL() << "must throw";
  } catch (const fisheye::Error& e) {
    // Exactly one of the two exception types, intact message.
    const std::string msg = e.what();
    EXPECT_TRUE(msg == "even" || msg == "odd") << msg;
  }
}

TEST(ParallelFor, ZeroChunkViolatesContract) {
  ThreadPool pool(2);
  EXPECT_THROW(ChunkCursor(10, pool.size(), Schedule::Dynamic, 0),
               fisheye::InvalidArgument);
}

TEST(ParallelForEach, SumsCorrectly) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  run_each(
      pool, 1000,
      [&sum](std::size_t i) { sum.fetch_add(static_cast<long long>(i)); },
      Schedule::Guided, 4);
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

}  // namespace
}  // namespace fisheye::par

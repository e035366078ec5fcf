// The tentpole guarantee of the plan/execute split: once a plan is built
// and warmed up, steady-state execute() performs ZERO heap allocations on
// every CPU backend — the Workspace arena (tiles, steal order/runs) and
// the instrumentation slots are all sized at plan time or during the first
// frames.
//
// The hook is a counting global operator new: warm the plan for a few
// frames (lazy worker start, vector capacity growth, the steal deques),
// snapshot the counter, run more frames, and require a zero delta. Every
// replaceable form is replaced, the nothrow ones included (libstdc++'s
// std::stable_sort takes its buffer from nothrow new), so each allocation
// counts and every pointer is freed by the allocator that made it. The
// hook also sums requested bytes, which bounds what a serving-layer cache
// miss may allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/backend.hpp"
#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "image/image.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"
#include "stream/stream_executor.hpp"
#include "util/mathx.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

/// Counted malloc; null on failure (the throwing forms throw).
void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    return nullptr;
  return p;
}

/// Every replacement delete frees here. Kept out of line: once GCC inlines
/// a delete into code whose pointer came from a `new` expression, a bare
/// std::free there trips -Wmismatched-new-delete, although this file's
/// operator new does take the block from malloc.
[[gnu::noinline]] void free_block(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

void operator delete(void* p) noexcept { free_block(p); }
void operator delete[](void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }
void operator delete[](void* p, std::size_t) noexcept { free_block(p); }
void operator delete(void* p, std::align_val_t) noexcept { free_block(p); }
void operator delete[](void* p, std::align_val_t) noexcept { free_block(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  free_block(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  free_block(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { free_block(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  free_block(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  free_block(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  free_block(p);
}

namespace fisheye::core {
namespace {

using util::deg_to_rad;

constexpr int kW = 96;
constexpr int kH = 64;

struct Frame {
  img::Image8 src{kW, kH, 1};
  img::Image8 dst{kW, kH, 1};
  WarpMap map;
  CompactMap cmap;

  Frame() {
    const FisheyeCamera cam = FisheyeCamera::centered(
        LensKind::Equidistant, deg_to_rad(170.0), kW, kH);
    const PerspectiveView view(kW, kH, cam.lens().focal());
    map = build_map(cam, view);
    cmap = compact_map(map, kW, kH, 4);
    src.fill(100);
  }

  [[nodiscard]] ExecContext ctx(MapMode mode = MapMode::FloatLut) {
    ExecContext c;
    c.src = src.view();
    c.dst = dst.view();
    if (mode == MapMode::CompactLut) {
      c.compact = &cmap;
    } else {
      c.map = map;
    }
    c.mode = mode;
    return c;
  }
};

void expect_zero_steady_state_allocs(const std::string& spec,
                                     MapMode mode = MapMode::FloatLut) {
  Frame frame;
  const std::unique_ptr<Backend> backend = BackendRegistry::create(spec);
  const ExecContext ctx = frame.ctx(mode);
  const ExecutionPlan plan = backend->plan(ctx);
  // Warmup: first frames may lazily spin up pools, grow steal-deque and
  // instrumentation capacity, or touch allocator-backed TLS.
  for (int i = 0; i < 6; ++i) backend->execute(plan, ctx);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 12; ++i) backend->execute(plan, ctx);
  const std::size_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0u) << spec << ": " << delta
                       << " allocations across 12 steady-state frames";
}

TEST(PlanAllocations, SerialIsAllocationFree) {
  expect_zero_steady_state_allocs("serial");
}

TEST(PlanAllocations, SerialCompactIsAllocationFree) {
  expect_zero_steady_state_allocs("serial", MapMode::CompactLut);
}

TEST(PlanAllocations, PoolStaticIsAllocationFree) {
  expect_zero_steady_state_allocs("pool:static,threads=2");
}

TEST(PlanAllocations, PoolDynamicIsAllocationFree) {
  expect_zero_steady_state_allocs("pool:dynamic,rows=8,threads=2");
}

TEST(PlanAllocations, PoolGuidedIsAllocationFree) {
  expect_zero_steady_state_allocs("pool:guided,tiles,tile=32x16,threads=2");
}

TEST(PlanAllocations, PoolStealIsAllocationFree) {
  expect_zero_steady_state_allocs("pool:steal,tiles,tile=32x16,threads=2");
}

TEST(PlanAllocations, CpuStealTilesGatherIsAllocationFree) {
  expect_zero_steady_state_allocs(
      "cpu:threads=2,schedule=steal,tiles,tile=32x16,datapath=gather");
}

TEST(PlanAllocations, SimdSingleLaneIsAllocationFree) {
  expect_zero_steady_state_allocs("simd:threads=1");
}

TEST(PlanAllocations, SimdPooledIsAllocationFree) {
  expect_zero_steady_state_allocs("simd:threads=2");
}

TEST(PlanAllocations, SimdCompactIsAllocationFree) {
  expect_zero_steady_state_allocs("simd:threads=2", MapMode::CompactLut);
}

TEST(PlanAllocations, SimdGatherIsAllocationFree) {
  expect_zero_steady_state_allocs("simd:threads=1,datapath=gather");
}

TEST(PlanAllocations, SimdTunedAutoIsAllocationFree) {
  // Autotuning probes candidate plans at plan() time (which allocates
  // freely); the resolved plan must still be zero-alloc in steady state.
  expect_zero_steady_state_allocs("simd:threads=1,tuned=auto");
}

TEST(PlanAllocations, PoolTunedAutoIsAllocationFree) {
  expect_zero_steady_state_allocs(
      "pool:steal,tiles,tile=32x16,threads=2,tuned=auto");
}

TEST(PlanAllocations, ShardSupervisorIsAllocationFree) {
  // The supervisor's steady-state frame loop — stage source, ring the
  // doorbell, wait on completions, gather strips — must not allocate;
  // worker processes have their own heaps and don't count here.
  expect_zero_steady_state_allocs("shard:workers=2,heartbeat_ms=20");
}

TEST(PlanAllocations, OpenMpSchedulesAreAllocationFree) {
  for (const char* sched : {"static", "dynamic", "guided", "steal"})
    expect_zero_steady_state_allocs(
        std::string("openmp:threads=2,schedule=") + sched);
}

TEST(PlanAllocations, StreamExecutorMultiStreamIsAllocationFree) {
  // The multi-stream guarantee: M streams in concurrent flight, and once
  // the per-stream arenas (plan workspace, instrumentation, pending ring)
  // and the scheduler's internals are warm, steady-state
  // service allocates nothing — submit, tile execution, stealing, retire,
  // and wait included.
  par::ThreadPool pool(2);
  stream::StreamExecutorOptions opts;
  opts.max_streams = 3;
  opts.tile_w = 32;
  opts.tile_h = 16;
  stream::StreamExecutor exec(pool, opts);

  constexpr std::size_t kStreams = 3;
  std::vector<std::unique_ptr<Frame>> frames;
  std::vector<stream::StreamId> ids;
  std::vector<std::unique_ptr<Corrector>> correctors;
  for (std::size_t i = 0; i < kStreams; ++i) {
    frames.push_back(std::make_unique<Frame>());
    correctors.push_back(std::make_unique<Corrector>(
        Corrector::builder(kW, kH).fov_degrees(170.0).config()));
    ids.push_back(exec.add_stream(*correctors.back(), 1));
  }
  const auto round = [&] {
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < kStreams; ++i)
      last = exec.submit(ids[i], frames[i]->src.view(),
                         frames[i]->dst.view());
    // Waiting on the last stream's frame is enough to bound the round;
    // the others retire before or while we sleep.
    exec.wait(ids.back(), last);
  };
  for (int i = 0; i < 6; ++i) round();  // warm rings and cv internals
  exec.drain();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 12; ++i) round();
  exec.drain();
  const std::size_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0u) << "StreamExecutor: " << delta
                       << " allocations across 12 steady-state rounds of "
                       << kStreams << " streams";
}

TEST(PlanAllocations, ServeCacheHitPathIsAllocationFree) {
  // The serving-layer guarantee: once the PlanCache holds a frame's view
  // plans and every arena is warm (request slots, coalescer scratch, lane
  // fifos, stream rings), a steady-state frame — request accumulation,
  // coalescing, cache hits, cluster execution, crop copies, retire
  // callbacks — allocates nothing.
  par::ThreadPool pool(2);
  serve::ServerConfig cfg;
  cfg.src_width = kW;
  cfg.src_height = kH;
  cfg.fov_rad = deg_to_rad(170.0);
  cfg.levels = {{kW, kH, 0.0}};
  const serve::ServeOptions opts =
      serve::ServeOptions::parse("serve:lanes=2,quantum=8,tile=16x16");
  serve::Server server(cfg, opts, pool);
  server.set_retire([](std::uint64_t, std::uint64_t, double) {});

  img::Image8 src(kW, kH, 1);
  src.fill(100);
  // Duplicate + overlapping views, identical every frame: after warmup
  // every cluster is a cache hit.
  const par::Rect rects[] = {
      {0, 0, 48, 32}, {8, 8, 56, 40}, {8, 8, 56, 40}, {40, 24, 88, 56}};
  constexpr std::size_t kReqs = sizeof(rects) / sizeof(rects[0]);
  std::vector<img::Image8> crops;
  for (const par::Rect& r : rects) crops.emplace_back(r.width(), r.height(), 1);

  const auto round = [&] {
    for (std::size_t i = 0; i < kReqs; ++i)
      server.request(0, rects[i], crops[i].view());
    server.submit_frame(src.cview());
    server.drain();
  };
  for (int i = 0; i < 6; ++i) round();

  const rt::ServeStats warm = server.stats();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 12; ++i) round();
  const std::size_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0u) << "serve: " << delta
                       << " allocations across 12 steady-state frames";
  // Every measured cluster must have been a plan-cache hit — a miss would
  // build maps and allocate, making the zero above vacuous.
  const rt::ServeStats st = server.stats();
  EXPECT_EQ(st.plan_misses, warm.plan_misses);
  EXPECT_GT(st.plan_hits, warm.plan_hits);
}

TEST(PlanAllocations, ServeMissPathCopiesNoMap) {
  // A float-mode miss reads its window of the level LUT in place: what it
  // allocates through operator new is the plan and the entry, not a copy
  // of the window's map (8 B per pixel). Two 128x96 views pan a quantum
  // per frame under a budget no entry fits (~12.6 KB each), so every cluster
  // of every frame misses; each frame must allocate fewer bytes than one
  // per missed window pixel. The output buffers come from aligned_alloc
  // and are not counted here.
  par::ThreadPool pool(2);
  serve::ServerConfig cfg;
  cfg.src_width = kW;
  cfg.src_height = kH;
  cfg.fov_rad = deg_to_rad(170.0);
  cfg.levels = {{256, 192, 0.0}};
  const serve::ServeOptions opts =
      serve::ServeOptions::parse("serve:lanes=2,cache_budget=4K");
  serve::Server server(cfg, opts, pool);
  server.set_retire([](std::uint64_t, std::uint64_t, double) {});

  img::Image8 src(kW, kH, 1);
  src.fill(100);
  constexpr int kViewW = 128, kViewH = 96;
  img::Image8 top(kViewW, kViewH, 1), bottom(kViewW, kViewH, 1);
  const auto frame = [&](int f) {
    const int x = 16 * (f % 9);
    server.request(0, {x, 0, x + kViewW, kViewH}, top.view());
    server.request(0, {128 - x, kViewH, 256 - x, 2 * kViewH}, bottom.view());
    server.submit_frame(src.cview());
    server.drain();
  };
  for (int f = 0; f < 6; ++f) frame(f);

  for (int f = 6; f < 18; ++f) {
    const std::size_t misses = server.stats().plan_misses;
    const std::size_t before =
        g_allocated_bytes.load(std::memory_order_relaxed);
    frame(f);
    const std::size_t bytes =
        g_allocated_bytes.load(std::memory_order_relaxed) - before;
    const std::size_t missed = server.stats().plan_misses - misses;
    ASSERT_EQ(missed, 2u) << "frame " << f;
    const std::size_t window_px =
        missed * static_cast<std::size_t>(kViewW) * kViewH;
    EXPECT_LT(bytes, window_px)
        << "frame " << f << ": " << bytes << " bytes for " << window_px
        << " missed window pixels";
  }
}

}  // namespace
}  // namespace fisheye::core

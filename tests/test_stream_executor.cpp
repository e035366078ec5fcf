// Multi-stream executor invariants: bit-exactness of every stream against
// a solo Corrector, frame/tile accounting (local + stolen == tiles per
// frame), ordering and closed-loop semantics of the retire callback,
// fairness under adversarial mixed loads (no stream starves), starvation
// counter wiring, and concurrent stream add/remove while serving — the
// last one is what the CI ThreadSanitizer job exercises.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/corrector.hpp"
#include "image/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/stream_executor.hpp"
#include "video/pipeline.hpp"

namespace fisheye::stream {
namespace {

core::Corrector make_corrector(int w, int h, double fov_deg = 170.0) {
  return core::Corrector::builder(w, h).fov_degrees(fov_deg).build();
}

img::Image8 make_fisheye(int w, int h, int index = 0, int channels = 1) {
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), w, h);
  const video::SyntheticVideoSource source(cam, w, h, channels);
  return source.frame(index);
}

img::Image8 solo_reference(const core::Corrector& corr,
                           const img::Image8& src) {
  img::Image8 out(corr.config().out_width, corr.config().out_height,
                  src.channels());
  core::SerialBackend serial;
  corr.correct(src.view(), out.view(), serial);
  return out;
}

TEST(StreamExecutor, SingleStreamMatchesSoloCorrector) {
  const int w = 160, h = 120;
  const core::Corrector corr = make_corrector(w, h);
  par::ThreadPool pool(3);
  StreamExecutor exec(pool);
  const StreamId id = exec.add_stream(corr);

  for (int f = 0; f < 4; ++f) {
    const img::Image8 src = make_fisheye(w, h, f);
    img::Image8 out(w, h, 1);
    const std::uint64_t seq = exec.submit(id, src.view(), out.view());
    exec.wait(id, seq);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(
        solo_reference(corr, src).view(), out.view()))
        << "frame " << f;
  }
  const rt::StreamStats st = exec.stats(id);
  EXPECT_EQ(st.frames, 4u);
  EXPECT_EQ(st.tiles_local + st.tiles_stolen,
            4u * exec.plan(id).tiles().size());
}

TEST(StreamExecutor, MixedGeometryStreamsStayBitExact) {
  // Streams of different resolutions, fields of view, and channel counts
  // in flight together: stealing must never cross-contaminate outputs.
  struct Spec {
    int w, h, channels;
    double fov;
  };
  const std::vector<Spec> specs = {
      {160, 120, 1, 170.0}, {96, 64, 1, 120.0}, {64, 48, 3, 150.0},
      {128, 96, 1, 180.0},  {80, 60, 1, 140.0},
  };
  par::ThreadPool pool(4);
  StreamExecutor exec(pool);

  std::vector<core::Corrector> corrs;
  corrs.reserve(specs.size());
  for (const Spec& sp : specs) corrs.push_back(make_corrector(sp.w, sp.h, sp.fov));

  constexpr int kFrames = 3;
  std::vector<StreamId> ids;
  std::vector<std::vector<img::Image8>> srcs(specs.size()), outs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ids.push_back(exec.add_stream(corrs[i], specs[i].channels));
    for (int f = 0; f < kFrames; ++f) {
      srcs[i].push_back(make_fisheye(specs[i].w, specs[i].h, f,
                                     specs[i].channels));
      outs[i].emplace_back(specs[i].w, specs[i].h, specs[i].channels);
    }
  }
  // Round-robin across streams so frames genuinely overlap in flight.
  for (int f = 0; f < kFrames; ++f)
    for (std::size_t i = 0; i < specs.size(); ++i)
      exec.submit(ids[i], srcs[i][static_cast<std::size_t>(f)].view(),
                  outs[i][static_cast<std::size_t>(f)].view());
  exec.drain();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (int f = 0; f < kFrames; ++f) {
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(
          solo_reference(corrs[i], srcs[i][static_cast<std::size_t>(f)]).view(),
          outs[i][static_cast<std::size_t>(f)].view()))
          << "stream " << i << " frame " << f;
    }
    const rt::StreamStats st = exec.stats(ids[i]);
    EXPECT_EQ(st.frames, static_cast<std::size_t>(kFrames));
    // Tile conservation per stream: every tile of every frame ran exactly
    // once, as owner-local or stolen.
    EXPECT_EQ(st.tiles_local + st.tiles_stolen,
              static_cast<std::size_t>(kFrames) * exec.plan(ids[i]).tiles().size());
  }
}

TEST(StreamExecutor, AdversarialMixNeverStarvesSmallStreams) {
  // One heavy stream next to four tiny ones on a two-worker pool; every
  // stream must keep retiring frames (FIFO frame claim = no starvation)
  // and the wait accounting must stay sane.
  par::ThreadPool pool(2);
  StreamExecutorOptions opts;
  opts.starvation_wait_seconds = 60.0;  // only true stalls would trip this
  StreamExecutor exec(pool, opts);

  const core::Corrector heavy = make_corrector(320, 240);
  std::vector<core::Corrector> light;
  for (int i = 0; i < 4; ++i) light.push_back(make_corrector(64, 48));

  const StreamId heavy_id = exec.add_stream(heavy);
  std::vector<StreamId> light_ids;
  for (const core::Corrector& c : light)
    light_ids.push_back(exec.add_stream(c));

  const img::Image8 heavy_src = make_fisheye(320, 240);
  const img::Image8 light_src = make_fisheye(64, 48);
  img::Image8 heavy_out(320, 240, 1);
  std::vector<img::Image8> light_outs;
  for (int i = 0; i < 4; ++i) light_outs.emplace_back(64, 48, 1);

  constexpr int kFrames = 12;
  for (int f = 0; f < kFrames; ++f) {
    exec.submit(heavy_id, heavy_src.view(), heavy_out.view());
    for (std::size_t i = 0; i < light_ids.size(); ++i)
      exec.submit(light_ids[i], light_src.view(), light_outs[i].view());
  }
  exec.drain();

  for (const StreamId id : light_ids) {
    const rt::StreamStats st = exec.stats(id);
    EXPECT_EQ(st.frames, static_cast<std::size_t>(kFrames));
    EXPECT_EQ(st.starvation_events, 0u);
    EXPECT_GE(st.max_wait_seconds, 0.0);
    EXPECT_GE(st.total_wait_seconds, 0.0);
  }
  EXPECT_EQ(exec.stats(heavy_id).frames, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(exec.stats(heavy_id).starvation_events, 0u);
}

TEST(StreamExecutor, StarvationCounterTripsWithZeroThreshold) {
  // Wiring check: with a zero threshold every frame's (positive) wait is a
  // starvation event, so the counter must equal the frame count.
  par::ThreadPool pool(2);
  StreamExecutorOptions opts;
  opts.starvation_wait_seconds = 0.0;
  StreamExecutor exec(pool, opts);
  const core::Corrector corr = make_corrector(96, 64);
  const StreamId id = exec.add_stream(corr);
  const img::Image8 src = make_fisheye(96, 64);
  img::Image8 out(96, 64, 1);
  for (int f = 0; f < 5; ++f) exec.submit(id, src.view(), out.view());
  exec.drain();
  EXPECT_EQ(exec.stats(id).starvation_events, 5u);
}

TEST(StreamExecutor, RetireCallbackSeesFramesInOrderAndCanResubmit) {
  // Closed-loop driving: the callback submits the stream's next frame.
  par::ThreadPool pool(2);
  const core::Corrector corr = make_corrector(96, 64);
  const img::Image8 src = make_fisheye(96, 64);
  img::Image8 out(96, 64, 1);

  constexpr std::uint64_t kTarget = 9;
  std::vector<std::uint64_t> retired;  // callback-serialized per stream
  StreamExecutor exec(pool);
  StreamExecutor* exec_ptr = &exec;
  const StreamId id = exec.add_stream(
      corr, 1,
      [&retired, exec_ptr, &src, &out](StreamId sid, std::uint64_t seq,
                                       double latency) {
        retired.push_back(seq);
        EXPECT_GT(latency, 0.0);
        if (seq < kTarget) exec_ptr->submit(sid, src.view(), out.view());
      });
  exec.submit(id, src.view(), out.view());
  exec.wait(id, kTarget);
  exec.drain();

  ASSERT_EQ(retired.size(), kTarget);
  for (std::uint64_t i = 0; i < kTarget; ++i) EXPECT_EQ(retired[i], i + 1);
}

TEST(StreamExecutor, SubmitBackpressureBlocksAtQueueDepth) {
  par::ThreadPool pool(1);
  StreamExecutorOptions opts;
  opts.queue_depth = 2;
  StreamExecutor exec(pool, opts);
  const core::Corrector corr = make_corrector(96, 64);
  const StreamId id = exec.add_stream(corr);
  const img::Image8 src = make_fisheye(96, 64);
  img::Image8 out(96, 64, 1);
  // Many more frames than depth: submission simply blocks and the run
  // completes — the invariant is no deadlock and full accounting.
  for (int f = 0; f < 10; ++f) exec.submit(id, src.view(), out.view());
  exec.drain();
  EXPECT_EQ(exec.stats(id).frames, 10u);
}

TEST(StreamExecutor, StreamCapacityIsEnforced) {
  par::ThreadPool pool(1);
  StreamExecutorOptions opts;
  opts.max_streams = 2;
  StreamExecutor exec(pool, opts);
  const core::Corrector corr = make_corrector(64, 48);
  (void)exec.add_stream(corr);
  (void)exec.add_stream(corr);
  EXPECT_THROW((void)exec.add_stream(corr), InvalidArgument);
}

TEST(StreamExecutor, RemoveStreamDrainsAndFreesTheSlot) {
  par::ThreadPool pool(2);
  StreamExecutorOptions opts;
  opts.max_streams = 2;
  StreamExecutor exec(pool, opts);
  const core::Corrector corr = make_corrector(96, 64);
  const img::Image8 src = make_fisheye(96, 64);
  img::Image8 out(96, 64, 1);

  std::atomic<int> retired{0};
  const StreamId a = exec.add_stream(
      corr, 1, [&retired](StreamId, std::uint64_t, double) { ++retired; });
  for (int f = 0; f < 4; ++f) exec.submit(a, src.view(), out.view());
  exec.remove_stream(a);  // waits for the 4 queued frames
  EXPECT_EQ(retired.load(), 4);

  // The capacity freed by remove is reusable (ids are recycled). The two
  // streams run concurrently, so each needs its own output frame.
  const StreamId b = exec.add_stream(corr);
  const StreamId c = exec.add_stream(corr);
  img::Image8 out_c(96, 64, 1);
  exec.submit(b, src.view(), out.view());
  exec.submit(c, src.view(), out_c.view());
  exec.drain();
  EXPECT_EQ(exec.stats(b).frames, 1u);
  EXPECT_EQ(exec.stats(c).frames, 1u);
}

TEST(StreamExecutor, ConcurrentAddRemoveWhileServing) {
  // The TSan target: two churn threads add/serve/remove short-lived
  // streams while a long-lived stream keeps flowing. Exercises the slot
  // state machine (create/post/retire/destroy) under real concurrency.
  par::ThreadPool pool(3);
  StreamExecutorOptions opts;
  opts.max_streams = 8;
  StreamExecutor exec(pool, opts);

  const core::Corrector main_corr = make_corrector(128, 96);
  const img::Image8 main_src = make_fisheye(128, 96);
  img::Image8 main_out(128, 96, 1);
  const StreamId main_id = exec.add_stream(main_corr);

  std::atomic<int> churn_frames{0};
  const auto churn = [&exec, &churn_frames](int rounds) {
    const core::Corrector corr = make_corrector(64, 48);
    const img::Image8 src = make_fisheye(64, 48);
    img::Image8 out(64, 48, 1);
    for (int r = 0; r < rounds; ++r) {
      const StreamId id = exec.add_stream(corr);
      std::uint64_t last = 0;
      for (int f = 0; f < 3; ++f)
        last = exec.submit(id, src.view(), out.view());
      exec.wait(id, last);
      exec.remove_stream(id);
      churn_frames.fetch_add(3);
    }
  };

  std::thread t1(churn, 6);
  std::thread t2(churn, 6);
  for (int f = 0; f < 24; ++f) {
    exec.submit(main_id, main_src.view(), main_out.view());
  }
  t1.join();
  t2.join();
  exec.drain();

  EXPECT_EQ(exec.stats(main_id).frames, 24u);
  EXPECT_EQ(churn_frames.load(), 36);
  EXPECT_EQ(exec.streams(), 1u);  // churn streams all removed
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(
      solo_reference(main_corr, main_src).view(), main_out.view()));
}

TEST(StreamExecutor, TwoExecutorsSplitOnePool) {
  // Two executors on one 2-lane pool serve concurrently, each on its own
  // service threads — the multi-source serving topology.
  const int w = 96, h = 64;
  const core::Corrector corr = make_corrector(w, h);
  par::ThreadPool pool(2);
  StreamExecutor exec_a(pool);
  StreamExecutor exec_b(pool);
  EXPECT_EQ(exec_a.workers(), 2u);
  EXPECT_EQ(exec_b.workers(), 2u);
  const StreamId id_a = exec_a.add_stream(corr);
  const StreamId id_b = exec_b.add_stream(corr);

  for (int f = 0; f < 4; ++f) {
    const img::Image8 src = make_fisheye(w, h, f);
    img::Image8 out_a(w, h, 1), out_b(w, h, 1);
    const std::uint64_t seq_a = exec_a.submit(id_a, src.view(), out_a.view());
    const std::uint64_t seq_b = exec_b.submit(id_b, src.view(), out_b.view());
    exec_a.wait(id_a, seq_a);
    exec_b.wait(id_b, seq_b);
    const img::Image8 ref = solo_reference(corr, src);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out_a.view()))
        << "executor A frame " << f;
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out_b.view()))
        << "executor B frame " << f;
  }
  EXPECT_EQ(exec_a.stats(id_a).frames, 4u);
  EXPECT_EQ(exec_b.stats(id_b).frames, 4u);
}

TEST(StreamExecutor, PlanCarriesPerFrameInstrumentation) {
  par::ThreadPool pool(2);
  StreamExecutor exec(pool);
  const core::Corrector corr = make_corrector(160, 120);
  const StreamId id = exec.add_stream(corr);
  const img::Image8 src = make_fisheye(160, 120);
  img::Image8 out(160, 120, 1);
  const std::uint64_t seq = exec.submit(id, src.view(), out.view());
  exec.wait(id, seq);
  exec.drain();

  const core::ExecutionPlan& plan = exec.plan(id);
  const rt::TileStats ts = plan.tile_stats();
  EXPECT_EQ(ts.tiles, static_cast<int>(plan.tiles().size()));
  EXPECT_GT(ts.total_seconds, 0.0);
  EXPECT_EQ(ts.local_tiles + ts.stolen_tiles, plan.tiles().size());
}

TEST(StreamExecutor, MismatchedFrameGeometryViolatesContract) {
  par::ThreadPool pool(1);
  StreamExecutor exec(pool);
  const core::Corrector corr = make_corrector(96, 64);
  const StreamId id = exec.add_stream(corr);
  const img::Image8 wrong = make_fisheye(64, 48);
  img::Image8 out(64, 48, 1);
  EXPECT_THROW(exec.submit(id, wrong.view(), out.view()), fisheye::Error);
}

}  // namespace
}  // namespace fisheye::stream

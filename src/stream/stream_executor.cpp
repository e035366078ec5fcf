#include "stream/stream_executor.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "util/error.hpp"

namespace fisheye::stream {

/// Per-stream state. Lifecycle: created by add_stream (before any worker
/// can see the slot), destroyed by remove_stream (after the slot went
/// idle). Frame flow: submit() either activates a frame directly (stream
/// idle) or parks it in the ring; the retire path pops the ring and posts
/// the next frame — so within a stream, activation is serialized and the
/// plan's workspace/instrumentation are only ever touched by one frame.
struct StreamExecutor::Stream {
  StreamExecutor* owner = nullptr;
  StreamId id = 0;
  std::size_t slot = 0;  ///< par::StreamScheduler slot index
  const core::Corrector* corrector = nullptr;
  core::ExecutionPlan plan;
  /// Plan stream (add_plan_stream): no corrector, `plan` stays invalid,
  /// every frame carries its own plan.
  bool external_plans = false;
  FrameRetireFn on_retire;

  /// The in-flight frame. Written by activate_locked_ (no frame in
  /// flight at that point), read by every worker serving its tiles; the
  /// scheduler's post/pop ordering makes the writes visible.
  struct Active {
    const core::ExecutionPlan* plan = nullptr;
    img::ConstImageView<std::uint8_t> src;
    img::ImageView<std::uint8_t> dst;
    std::uint64_t seq = 0;
    double submit_time = 0.0;
    /// First-tile latch: the winner stamps start_time (the wait metric).
    std::atomic<bool> started{false};
    double start_time = 0.0;
  } active;

  /// Pending-frame ring (capacity = queue_depth) + stream bookkeeping,
  /// guarded by mu. cv signals retires (backpressure release, wait()).
  mutable std::mutex mu;
  std::condition_variable cv;
  std::vector<PendingFrame> ring;
  std::size_t ring_head = 0;
  std::size_t ring_count = 0;
  bool frame_in_flight = false;
  bool removing = false;
  std::uint64_t next_seq = 0;
  std::uint64_t retired_seq = 0;
  rt::StreamStats stats;
};

StreamExecutor::StreamExecutor(par::ThreadPool& pool,
                               StreamExecutorOptions options)
    : options_(options), scheduler_(pool.size(), options.max_streams) {
  FE_EXPECTS(options_.max_streams >= 1);
  FE_EXPECTS(options_.queue_depth >= 1);
  streams_.resize(options_.max_streams);
  service_.reserve(scheduler_.workers());
  try {
    for (unsigned w = 0; w < scheduler_.workers(); ++w)
      service_.emplace_back([this, w] { scheduler_.run_worker(w); });
  } catch (...) {
    stop_service_();
    throw;
  }
}

StreamExecutor::~StreamExecutor() {
  wait_all_idle_();
  stop_service_();
}

void StreamExecutor::stop_service_() noexcept {
  scheduler_.stop();  // in-flight frames complete first
  for (std::thread& t : service_) t.join();
}

StreamId StreamExecutor::add_stream(const core::Corrector& corrector,
                                    int channels, FrameRetireFn on_retire) {
  auto s = std::make_unique<Stream>();
  s->owner = this;
  s->corrector = &corrector;
  s->plan =
      corrector.prepare_stream(channels, options_.tile_w, options_.tile_h);
  s->on_retire = std::move(on_retire);
  s->ring.resize(options_.queue_depth);
  return register_(std::move(s));
}

StreamId StreamExecutor::add_plan_stream(FrameRetireFn on_retire,
                                         std::size_t queue_depth) {
  auto s = std::make_unique<Stream>();
  s->owner = this;
  s->external_plans = true;
  s->on_retire = std::move(on_retire);
  s->ring.resize(queue_depth != 0 ? queue_depth : options_.queue_depth);
  return register_(std::move(s));
}

StreamId StreamExecutor::register_(std::unique_ptr<Stream> s) {
  const std::scoped_lock lock(registry_mu_);
  for (StreamId id = 0; id < streams_.size(); ++id) {
    if (streams_[id]) continue;
    const std::size_t slot = scheduler_.create_slot();
    // Slots and registry entries are both max_streams: a free entry
    // guarantees a free slot.
    FE_ENSURES(slot != par::StreamScheduler::kNoSlot);
    s->id = id;
    s->slot = slot;
    streams_[id] = std::move(s);
    return id;
  }
  throw InvalidArgument("StreamExecutor: all " +
                        std::to_string(options_.max_streams) +
                        " stream slots are in use");
}

void StreamExecutor::remove_stream(StreamId id) {
  Stream& s = stream_ref_(id);
  {
    std::unique_lock<std::mutex> lock(s.mu);
    s.removing = true;  // fail-fast any racing submit (contract violation)
    s.cv.wait(lock, [&s] { return !s.frame_in_flight && s.ring_count == 0; });
  }
  scheduler_.destroy_slot(s.slot);
  const std::scoped_lock lock(registry_mu_);
  streams_[id].reset();
}

std::uint64_t StreamExecutor::submit(StreamId id,
                                     img::ConstImageView<std::uint8_t> src,
                                     img::ImageView<std::uint8_t> dst) {
  Stream& s = stream_ref_(id);
  FE_EXPECTS(!s.external_plans);
  // Geometry gate: the plan was built for the corrector's shapes; a frame
  // of any other shape would index the tile rects out of bounds.
  FE_EXPECTS(s.plan.matches(s.corrector->make_context(src, dst),
                            core::Corrector::kStreamPlanName));
  return enqueue_(s, s.plan, src, dst);
}

std::uint64_t StreamExecutor::submit(StreamId id,
                                     const core::ExecutionPlan& plan,
                                     img::ConstImageView<std::uint8_t> src,
                                     img::ImageView<std::uint8_t> dst) {
  Stream& s = stream_ref_(id);
  FE_EXPECTS(s.external_plans);
  FE_EXPECTS(plan.valid());
  // Same geometry gate as the corrector path, against the carried plan's
  // key: tile rects index into dst, the kernel samples src.
  const core::PlanKey& k = plan.key();
  FE_EXPECTS(src.width == k.src_width && src.height == k.src_height);
  FE_EXPECTS(dst.width == k.dst_width && dst.height == k.dst_height);
  FE_EXPECTS(src.channels == k.channels && dst.channels == k.channels);
  return enqueue_(s, plan, src, dst);
}

std::uint64_t StreamExecutor::enqueue_(Stream& s,
                                       const core::ExecutionPlan& plan,
                                       img::ConstImageView<std::uint8_t> src,
                                       img::ImageView<std::uint8_t> dst) {
  std::unique_lock<std::mutex> lock(s.mu);
  FE_EXPECTS(!s.removing);
  s.cv.wait(lock, [&s] { return s.ring_count < s.ring.size(); });
  const std::uint64_t seq = ++s.next_seq;
  PendingFrame frame{&plan, src, dst, seq, epoch_.elapsed_seconds()};
  if (s.frame_in_flight) {
    s.ring[(s.ring_head + s.ring_count) % s.ring.size()] = frame;
    ++s.ring_count;
  } else {
    s.frame_in_flight = true;
    activate_locked_(s, frame);
  }
  return seq;
}

void StreamExecutor::wait(StreamId id, std::uint64_t seq) {
  Stream& s = stream_ref_(id);
  std::unique_lock<std::mutex> lock(s.mu);
  s.cv.wait(lock, [&s, seq] { return s.retired_seq >= seq; });
}

void StreamExecutor::drain() {
  wait_all_idle_();
  const std::scoped_lock lock(error_mu_);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

rt::StreamStats StreamExecutor::stats(StreamId id) const {
  Stream& s = stream_ref_(id);
  const std::scoped_lock lock(s.mu);
  return s.stats;
}

const core::ExecutionPlan& StreamExecutor::plan(StreamId id) const {
  return stream_ref_(id).plan;
}

std::size_t StreamExecutor::streams() const {
  const std::scoped_lock lock(registry_mu_);
  std::size_t n = 0;
  for (const auto& s : streams_)
    if (s) ++n;
  return n;
}

void StreamExecutor::activate_locked_(Stream& s, const PendingFrame& frame) {
  const core::ExecutionPlan& plan = *frame.plan;
  plan.instrumentation().begin_frame(plan.tiles().size());
  s.active.plan = frame.plan;
  s.active.src = frame.src;
  s.active.dst = frame.dst;
  s.active.seq = frame.seq;
  s.active.submit_time = frame.submit_time;
  s.active.start_time = 0.0;
  s.active.started.store(false, std::memory_order_relaxed);

  par::StreamJob job;
  job.count = plan.tiles().size();
  job.env = &s;
  job.run = &run_tile_;
  job.retire = &retire_frame_;
  scheduler_.post(s.slot, job);
}

void StreamExecutor::run_tile_(void* env, std::size_t pos,
                               unsigned /*worker*/) {
  auto* s = static_cast<Stream*>(env);
  Stream::Active& a = s->active;
  if (!a.started.load(std::memory_order_relaxed) &&
      !a.started.exchange(true, std::memory_order_relaxed))
    a.start_time = s->owner->epoch_.elapsed_seconds();
  const rt::Stopwatch sw;
  try {
    a.plan->kernel()(a.src, a.dst, a.plan->tiles()[pos]);
  } catch (...) {
    // Kernels only throw on contract violations; keep the first one for
    // drain() — the scheduler itself must never see an exception.
    const std::scoped_lock lock(s->owner->error_mu_);
    if (!s->owner->error_) s->owner->error_ = std::current_exception();
  }
  a.plan->instrumentation().tile_seconds[pos] = sw.elapsed_seconds();
}

void StreamExecutor::retire_frame_(void* env, const par::StealStats& frame) {
  auto* s = static_cast<Stream*>(env);
  StreamExecutor& exec = *s->owner;
  const core::ExecutionPlan& plan = *s->active.plan;
  const std::size_t tiles = plan.tiles().size();
  // Race-free by construction: the retiring worker is the only one still
  // touching the frame, so it merges the frame's counters into the plan
  // and checks the conservation invariant — every tile ran exactly once,
  // as local or stolen.
  FE_ENSURES(frame.local + frame.stolen == tiles);
  core::PlanInstrumentation& inst = plan.instrumentation();
  inst.local_tiles = frame.local;
  inst.stolen_tiles = frame.stolen;
  inst.steals = frame.steals;

  const double end = exec.epoch_.elapsed_seconds();
  const bool started = s->active.started.load(std::memory_order_relaxed);
  const double wait =
      (started ? s->active.start_time : end) - s->active.submit_time;
  const double latency = end - s->active.submit_time;
  const std::uint64_t seq = s->active.seq;
  {
    const std::scoped_lock lock(s->mu);
    rt::StreamStats& st = s->stats;
    st.frames += 1;
    st.tiles_local += frame.local;
    st.tiles_stolen += frame.stolen;
    st.steals += frame.steals;
    st.total_wait_seconds += wait;
    st.max_wait_seconds = std::max(st.max_wait_seconds, wait);
    if (wait > exec.options_.starvation_wait_seconds) ++st.starvation_events;
    s->retired_seq = seq;
  }
  // User callback OUTSIDE the stream lock so it may submit the next frame.
  if (s->on_retire) s->on_retire(s->id, seq, latency);
  {
    const std::scoped_lock lock(s->mu);
    if (s->ring_count > 0) {
      const PendingFrame next = s->ring[s->ring_head];
      s->ring_head = (s->ring_head + 1) % s->ring.size();
      --s->ring_count;
      exec.activate_locked_(*s, next);
    } else {
      s->frame_in_flight = false;
    }
    // Notify while still holding the lock: a waiter in remove_stream()
    // may destroy the Stream (and this cv) the moment it observes idle,
    // so an unlocked notify could touch freed memory.
    s->cv.notify_all();
  }
}

StreamExecutor::Stream& StreamExecutor::stream_ref_(StreamId id) const {
  FE_EXPECTS(id < streams_.size());
  // Lock-free read: the vector never resizes and the caller owns the entry
  // (an id is only known to the thread add_stream returned it to, or to
  // whoever it was handed to with the usual happens-before).
  Stream* s = streams_[id].get();
  FE_EXPECTS(s != nullptr);
  return *s;
}

void StreamExecutor::wait_all_idle_() noexcept {
  for (StreamId id = 0; id < streams_.size(); ++id) {
    Stream* s = nullptr;
    {
      const std::scoped_lock lock(registry_mu_);
      s = streams_[id].get();
    }
    if (s == nullptr) continue;
    std::unique_lock<std::mutex> lock(s->mu);
    s->cv.wait(lock,
               [s] { return !s->frame_in_flight && s->ring_count == 0; });
  }
}

}  // namespace fisheye::stream

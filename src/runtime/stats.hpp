// Robust run statistics for measurements.
//
// Bench binaries report the median of repeated runs (robust to scheduler
// noise in a shared container) plus min and spread, so the tables are
// meaningful on loaded machines.
#pragma once

#include <vector>

namespace fisheye::rt {

struct RunStats {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Median absolute deviation (scaled by 1.4826 to estimate sigma).
  double mad_sigma = 0.0;
  int samples = 0;
};

/// Compute statistics of `samples` (not modified).
RunStats summarize(std::vector<double> samples);

/// Per-tile execution summary for one frame of a planned backend run.
/// Uniform across serial, pooled, SIMD and accelerator backends: `tiles`
/// is the plan's decomposition granularity, times are per-tile seconds
/// (wall-clock on CPU backends, modeled on the simulators), and
/// `imbalance` is max/mean — 1.0 for a perfectly balanced decomposition.
struct TileStats {
  int tiles = 0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;
  double total_seconds = 0.0;
  double imbalance = 0.0;
  std::size_t bytes_in = 0;   ///< estimated bytes read (map + source taps)
  std::size_t bytes_out = 0;  ///< bytes written to the destination frame
  /// Work-stealing counters for schedule=steal backends (zero elsewhere):
  /// tiles run from the worker's initial run vs after being stolen, and
  /// the number of successful steal operations.
  std::size_t local_tiles = 0;
  std::size_t stolen_tiles = 0;
  std::size_t steals = 0;
  /// Process-sharding counters (backend=shard; zero elsewhere): shm bytes
  /// moved for the frame (source in + strips out), strips the supervisor
  /// computed locally because a worker was dead/stalled/past deadline, and
  /// cumulative worker respawns since the plan forked its fleet.
  std::size_t transport_bytes = 0;
  std::size_t fallback_strips = 0;
  std::size_t respawns = 0;
};

/// Summarize per-tile seconds into a TileStats; byte counters are copied
/// through. Returns a zeroed struct for an empty vector.
TileStats summarize_tiles(const std::vector<double>& tile_seconds,
                          std::size_t bytes_in, std::size_t bytes_out);

/// Per-stream service counters of the multi-stream executor
/// (stream::StreamExecutor). Frames/tiles are cumulative since the stream
/// was added; waits measure submit → first executed tile, the fairness
/// signal — a stream whose frames sit posted but untouched is being
/// starved by its neighbours. `tiles_local` counts tiles run by the
/// frame's owning worker in schedule order, `tiles_stolen` tiles that idle
/// workers pulled cross-stream; the two sum to frames × tiles-per-frame.
struct StreamStats {
  std::size_t frames = 0;        ///< frames retired
  std::size_t tiles_local = 0;   ///< tiles run by the frame's owner
  std::size_t tiles_stolen = 0;  ///< tiles stolen by other workers
  std::size_t steals = 0;        ///< successful cross-stream steals
  double total_wait_seconds = 0.0;  ///< sum of submit→first-tile waits
  double max_wait_seconds = 0.0;    ///< worst single-frame wait
  /// Frames whose wait exceeded the executor's starvation threshold.
  std::size_t starvation_events = 0;
};

/// Cumulative counters of the virtual-PTZ serving layer (serve::Server).
/// Requests are client view rects; clusters are the coalesced regions the
/// kernels actually ran. tiles_requested − tiles_executed is the
/// coalescing benefit: tiles that would have run had every view been
/// corrected independently but were served from a shared cluster output.
struct ServeStats {
  std::size_t requests = 0;   ///< view requests accepted
  std::size_t retired = 0;    ///< requests served (crop delivered)
  std::size_t frames = 0;     ///< source frames dispatched
  std::size_t clusters = 0;   ///< coalesced clusters executed
  std::size_t plan_hits = 0;    ///< cluster plans served from the PlanCache
  std::size_t plan_misses = 0;  ///< cluster plans built (map + plan + output)
  std::size_t plan_evictions = 0;  ///< cache entries dropped (LRU or flush)
  std::size_t cache_bytes = 0;     ///< bytes resident in the PlanCache
  std::size_t cache_entries = 0;   ///< entries resident in the PlanCache
  std::size_t tiles_executed = 0;   ///< tiles run across all clusters
  std::size_t tiles_requested = 0;  ///< tiles had every view run alone
  double total_latency_seconds = 0.0;  ///< sum of request → crop-delivered
  double max_latency_seconds = 0.0;    ///< worst single request
};

/// Cumulative supervisor-side counters of the multi-process shard backend
/// (shard::ShardBackend), reset each time a plan forks a fresh worker
/// fleet. Transport counts payload bytes actually copied across the shared
/// ring (a source already rendered into the ring costs zero in);
/// fallback_strips are frames' strips the supervisor computed locally so
/// every frame stays complete when workers die or stall.
struct ShardStats {
  int workers = 0;            ///< worker processes the plan forked
  std::size_t frames = 0;     ///< frames executed under the plan
  std::size_t transport_in_bytes = 0;   ///< source bytes copied into the ring
  std::size_t transport_out_bytes = 0;  ///< strip bytes copied out of the ring
  std::size_t fallback_strips = 0;  ///< strips computed by the supervisor
  std::size_t respawns = 0;   ///< crashed workers re-forked (waitpid path)
  std::size_t stalls = 0;     ///< live→stalled transitions (heartbeat timeout)
  double wait_seconds = 0.0;  ///< supervisor time spent waiting on workers
};

/// Nearest-rank percentile of `samples` (pct in [0, 100]; 50 = median-ish,
/// 99 = p99). Takes the vector by value — sorting is part of the job.
double percentile(std::vector<double> samples, double pct);

/// Run `fn` `warmup + reps` times, timing the last `reps`; returns stats of
/// the per-run seconds.
template <class Fn>
RunStats measure(Fn&& fn, int reps, int warmup = 1);

}  // namespace fisheye::rt

#include "runtime/timer.hpp"

namespace fisheye::rt {

template <class Fn>
RunStats measure(Fn&& fn, int reps, int warmup) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) samples.push_back(time_once(fn));
  return summarize(std::move(samples));
}

}  // namespace fisheye::rt

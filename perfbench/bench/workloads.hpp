// The benchmark's workloads and standalone layer probes. Each workload
// builds its inputs from the seed, sets the system up `setup_reps` times
// (setup_s is the median), measures for `seconds`, checks every output it
// can against an independent reference, and — when traced — also fills the
// per-layer metrics of the layers it exercises.
#pragma once

#include <string>

#include "common.hpp"

namespace pb {

/// One 1920x1080 gray equidistant-180 camera, closed loop, five CPU
/// execution specs taking turns against one Corrector.
Result run_frame1080(const RunOptions& opt);

/// Eight StreamExecutor streams (one heavy, seven light PTZ views) on one
/// 4-worker pool, closed loop with one frame outstanding per stream.
Result run_streams8(const RunOptions& opt);

/// serve::Server on a 3-worker pool: 2048 zipf viewers over 64 hotspots,
/// open loop at a fixed frame rate; every cluster plan is a cache hit.
Result run_ptz_zipf(const RunOptions& opt);

/// The same server with a few panning viewers and a cache budget below the
/// working set, so view builds and LRU evictions run every frame.
Result run_ptz_pan(const RunOptions& opt);

/// Single-thread probes of the core, kernel and memory layers at 1080p:
/// map build/pack/compact times, dispatch overhead, per-datapath kernel
/// cost, computed bytes per pixel and the copy-bandwidth ceiling.
Metrics run_layer_probes(std::uint64_t seed);

/// The frame1080 camera configuration, shared with the probes.
inline constexpr int kFrameW = 1920;
inline constexpr int kFrameH = 1080;

}  // namespace pb

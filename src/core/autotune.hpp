// Plan-time autotuner: resolve tuned=auto by measurement.
//
// A cpu backend whose spec carries tuned=auto defers one knob to its first
// plan(): the kernel datapath when no partition is named, the tile shape
// under `tiles`. The backend lists its candidates as rewritten CpuOptions,
// this engine measures each on a couple of synthesized frames of the
// context's exact geometry (gradient-filled, so gathers touch realistic
// addresses), and the backend writes the fastest into its own options, so
// its name becomes a plain cpu: spec. Decisions (the winner's label) are
// memoized process-wide by (ISA, geometry, base spec) — and, when the
// FISHEYE_TUNE_CACHE environment variable names a file, across processes
// too — so replanning the same configuration never re-measures.
//
// The measurement frames are private allocations: the caller's context may
// carry null pixel pointers (plan-time contract) and is never written.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"

namespace fisheye::core {

/// A candidate: the options it plans with, labelled by the option text it
/// writes ("datapath=gather", "tile=128x32"). Labels are unique within a
/// candidate set; the cache remembers the winner's.
struct AutotuneCandidate {
  std::string label;
  CpuOptions options;
};

/// Process-wide memo of autotune decisions (winning labels), keyed by
/// autotune_cache_key(). Always in-memory; mirrored to the file named by
/// the FISHEYE_TUNE_CACHE environment variable when it is set (loaded
/// once, lazily — tests that never set the variable touch no disk).
class AutotuneCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
  };

  static AutotuneCache& instance();

  [[nodiscard]] std::optional<std::string> lookup(const std::string& key);
  void store(const std::string& key, const std::string& label);
  /// Drop every memoized decision (tests; does not truncate the disk file).
  void clear();
  /// Drop in-memory state and re-read the FISHEYE_TUNE_CACHE file (tests:
  /// the file is otherwise loaded once per process). A missing, binary or
  /// version-skewed file is ignored entirely, and a malformed or torn line
  /// is skipped: the cache comes back without them, and the next store()
  /// rewrites the file cleanly.
  void reload_disk();
  [[nodiscard]] Stats stats() const;

 private:
  AutotuneCache() = default;
  void load_disk_locked();

  mutable std::mutex mu_;
  std::map<std::string, std::string> entries_;
  Stats stats_;
  bool disk_loaded_ = false;
};

/// Cache key for tuning `ctx` under `base_spec` (the backend's pending
/// name, tuned=auto included): ISA × frame geometry × mode × spec. Tuning
/// is hardware- and shape-specific; the ISA token keeps a cache file moved
/// between machines from poisoning decisions.
[[nodiscard]] std::string autotune_cache_key(const ExecContext& ctx,
                                             const std::string& base_spec);

using AutotunePlanFn =
    std::function<ExecutionPlan(const ExecContext&, const CpuOptions&)>;
using AutotuneExecFn =
    std::function<void(const ExecutionPlan&, const ExecContext&)>;

/// Measure `candidates` on synthesized frames of ctx's geometry and return
/// the fastest one's options (best of `frames` timed runs after `warmup`
/// untimed ones), memoized through AutotuneCache under `cache_key`; a
/// remembered label that is no longer a candidate is measured again. A
/// candidate whose plan_fn throws is skipped; nullopt when none planned
/// successfully (the caller falls back to its untuned path, which surfaces
/// the real error).
[[nodiscard]] std::optional<CpuOptions> autotune_select(
    const ExecContext& ctx, const std::string& cache_key,
    const std::vector<AutotuneCandidate>& candidates,
    const AutotunePlanFn& plan_fn, const AutotuneExecFn& exec_fn,
    int warmup = 1, int frames = 3);

}  // namespace fisheye::core

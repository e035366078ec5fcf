// Execution backends: how a frame's remap work is scheduled onto hardware.
//
// The study's axis of comparison is exactly this interface: the same warp,
// executed serially, across a thread pool with different schedules and
// decompositions, through the SIMD kernel, or on a simulated accelerator
// (src/accel provides those backends, src/cluster the message-passing one).
//
// The interface is a plan/execute split (see execution_plan.hpp):
//   plan(ctx)            one-time setup for frames of ctx's shape
//   execute(plan, ctx)   steady-state: one frame under an existing plan
//   execute(ctx)         one-shot convenience with an internal plan cache
// Backends are created either directly or — preferably — by spec string
// through BackendRegistry (backend_registry.hpp).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/camera.hpp"
#include "core/execution_plan.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "core/remap.hpp"
#include "parallel/partition.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"

namespace fisheye::core {

/// Map representation requested by a spec's `map=` option
/// (map=float | map=packed | map=compact:<stride>). When set and different
/// from the context's own representation, the backend converts the
/// context's float map view at plan time and carries the result
/// in the plan (ConvertedMap), so steady-state frames stream the selected
/// format. An unset choice executes the context as-is.
struct MapChoice {
  std::optional<MapMode> mode;
  int stride = 8;      ///< CompactLut grid pitch
  int frac_bits = 14;  ///< fixed-point precision of converted maps

  [[nodiscard]] bool set() const noexcept { return mode.has_value(); }
  /// Canonical option text, e.g. "map=compact:8"; empty when unset.
  [[nodiscard]] std::string spec_text() const;
  /// Parse an option value ("float", "packed", "compact", "compact:8").
  /// Throws InvalidArgument naming the offending token.
  static MapChoice parse(const std::string& value);
  /// The option values a backend supporting `modes` accepts, for help text.
  static constexpr const char* kHelp = "map=float|packed|compact:<stride>";
};

/// Scheduling policy requested by a spec's `schedule=` option (or the
/// equivalent bare flag on `pool`). Thin parse/help wrapper around
/// par::Schedule, mirroring MapChoice so every factory rejects unknown
/// tokens with the same diagnostic shape.
struct ScheduleChoice {
  /// Parse an option value ("static", "dynamic", "guided", "steal").
  /// Throws InvalidArgument naming the offending token.
  static par::Schedule parse(const std::string& value);
  /// The option values schedule-aware CPU backends accept, for help text.
  static constexpr const char* kHelp = "schedule=static|dynamic|guided|steal";
};

/// Kernel-datapath selection requested by a spec's `datapath=` option on
/// the cpu backend. Thin parse/help wrapper mirroring ScheduleChoice;
/// the selected variant is still subject to core::effective_variant() at
/// plan time (gather degrades to SoA/scalar off-AVX2, FISHEYE_FORCE_SCALAR
/// grounds everything), so a spec tuned on one host runs everywhere.
struct DatapathChoice {
  /// Parse an option value ("scalar", "soa", "gather"). Throws
  /// InvalidArgument naming the offending token.
  static KernelVariant parse(const std::string& value);
  /// Canonical option token for a variant ("scalar"/"soa"/"gather").
  [[nodiscard]] static const char* token(KernelVariant v) noexcept;
  /// The option values datapath-aware backends accept, for help text.
  static constexpr const char* kHelp = "datapath=scalar|soa|gather";
};

/// Strategy interface with a plan/execute split.
///
/// Thread-safety: plan() is const-like and reentrant; a given ExecutionPlan
/// may be executed by one thread at a time (frames write its
/// instrumentation slots); the one-shot execute(ctx) additionally caches a
/// plan inside the backend, so a backend instance used through that path
/// must not be shared across threads.
class Backend {
 public:
  virtual ~Backend() = default;

  /// One-time planning for frames shaped like `ctx`. Only geometry, map,
  /// and options are read — the views' pixel pointers may be null.
  /// Throws InvalidArgument when the backend cannot execute this
  /// configuration at all (wrong map mode, unsupported interpolation).
  [[nodiscard]] virtual ExecutionPlan plan(const ExecContext& ctx) = 0;

  /// Steady-state execution of one frame. `plan` must have been produced
  /// by this backend for a matching context (checked).
  virtual void execute(const ExecutionPlan& plan, const ExecContext& ctx) = 0;

  /// One-shot convenience: plans on first use, replans whenever the
  /// context stops matching (geometry, sampling options, or map identity
  /// — address, generation, dimensions — change).
  void execute(const ExecContext& ctx);

  /// Canonical registry spec for this backend:
  /// BackendRegistry::create(name()) reconstructs an equivalent instance.
  [[nodiscard]] virtual std::string name() const = 0;

  /// The one-shot path's cached plan (invalid before the first execute).
  /// Exposes uniform per-tile stats: last_plan().tile_stats().
  [[nodiscard]] const ExecutionPlan& last_plan() const noexcept {
    return cached_plan_;
  }

  /// Spec-selected map representation (the map= option). Participates in
  /// name(), so plans made under different choices never alias.
  void set_map_choice(const MapChoice& choice) {
    map_choice_ = choice;
    name_cache_.clear();
  }
  [[nodiscard]] const MapChoice& map_choice() const noexcept {
    return map_choice_;
  }

 protected:
  /// Stamp a plan with this backend's key for `ctx`: resolves the tile
  /// kernel (of `variant`) against the effective — post map= conversion —
  /// context, attaches `converted`, and stores the plan-time byte
  /// estimates in the plan's Workspace.
  [[nodiscard]] ExecutionPlan make_plan(
      const ExecContext& ctx, std::vector<par::Rect> tiles,
      std::shared_ptr<void> state = nullptr,
      std::shared_ptr<const ConvertedMap> converted = nullptr,
      KernelVariant variant = KernelVariant::Scalar) const;

  /// Drop the cached name after an option that name() prints changes.
  void forget_name() noexcept { name_cache_.clear(); }

  /// Validate plan/context agreement at the top of execute() overrides.
  void check_plan(const ExecutionPlan& plan, const ExecContext& ctx) const;

  /// Resolve map_choice() against `ctx`: the context the backend will
  /// actually execute. Fills `converted` (to be attached to the plan via
  /// make_plan) when a representation change is needed; throws
  /// InvalidArgument when the choice cannot be satisfied.
  [[nodiscard]] ExecContext resolve_map(
      const ExecContext& ctx,
      std::shared_ptr<const ConvertedMap>& converted) const;

  /// name(), computed once and cached: the steady-state paths compare it
  /// every frame and must not pay a string allocation to do so.
  [[nodiscard]] const std::string& cached_name() const;

  /// Append the canonical map= option to a spec string (no-op when unset).
  [[nodiscard]] std::string decorate_spec(std::string spec) const;

 private:
  ExecutionPlan cached_plan_;
  MapChoice map_choice_;
  mutable std::string name_cache_;
};

/// The CPU backend's plan shape: partition, kernel datapath and schedule.
struct CpuOptions {
  par::Schedule schedule = par::Schedule::Static;
  /// Unset: one whole-frame tile at one thread, row blocks otherwise.
  std::optional<par::PartitionKind> partition;
  /// RowBlocks/ColumnBlocks band count; 0 = 4 x threads.
  int chunks = 0;
  int tile_w = 64;
  int tile_h = 64;
  /// Kernel datapath (the datapath= option). Subject to
  /// effective_variant() degrade at plan time.
  KernelVariant datapath = KernelVariant::Scalar;

  bool operator==(const CpuOptions&) const = default;
};

/// The study's multicore execution as one loop: the frame is partitioned
/// once at plan time, every tile runs the plan's resolved kernel, and the
/// tiles are scheduled across the lanes of a thread pool — or run on the
/// caller at one thread. Static gives lane i its fixed block of tiles;
/// dynamic and guided lanes claim tiles from one shared cursor. The
/// registry kinds `serial`, `pool`, `simd` and `openmp` build this class
/// and canonicalize to a `cpu:` spec.
///
/// schedule=steal additionally reorders the partition at plan time by
/// Morton code of each tile's *source* bounding-box centroid and
/// pre-assigns contiguous runs of that order to the lanes as initial
/// ranges (core/tile_order.hpp, parallel/work_stealing.hpp): lanes walk
/// source-adjacent tiles and steal only to repair imbalance.
class CpuBackend final : public Backend {
 public:
  /// One thread (the default) runs tiles on the caller; more own a private
  /// pool of `threads` workers (0 = hardware concurrency).
  explicit CpuBackend(CpuOptions options = {}, unsigned threads = 1);
  /// Runs on `pool`, which must outlive the backend.
  explicit CpuBackend(par::ThreadPool& pool, CpuOptions options = {});

  /// The tuned=auto option: the first plan() measures candidate datapaths
  /// or tile shapes and writes the winner into this backend's options.
  /// name() carries tuned=auto until then and a plain cpu: spec after,
  /// which create() rebuilds without measuring.
  void autotune_on_first_plan() noexcept;

  using Backend::execute;
  [[nodiscard]] ExecutionPlan plan(const ExecContext& ctx) override;
  void execute(const ExecutionPlan& plan, const ExecContext& ctx) override;
  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] unsigned threads() const noexcept {
    return pool_ != nullptr ? pool_->size() : 1;
  }
  /// The plan for `ctx` under options `o`: plan() passes the backend's
  /// own, fastest() each candidate's.
  [[nodiscard]] ExecutionPlan plan_with(const ExecContext& ctx,
                                        const CpuOptions& o);
  /// Resolve a pending tuned=auto: list the candidate options and keep
  /// fastest()'s pick.
  void maybe_autotune(const ExecContext& ctx);
  /// The fastest of `candidates` on synthesized frames of ctx's geometry;
  /// nullopt when none plans.
  [[nodiscard]] std::optional<CpuOptions> fastest(
      const ExecContext& ctx, const std::vector<CpuOptions>& candidates);

  CpuOptions options_;
  /// tuned=auto whose first plan() has not measured yet.
  bool tune_pending_ = false;
  std::unique_ptr<par::ThreadPool> owned_pool_;
  /// Null at one thread.
  par::ThreadPool* pool_ = nullptr;
  /// Steal-schedule tile ranges, one per lane; created on the first steal
  /// frame and reused every frame.
  std::unique_ptr<par::StealScheduler> steal_;
};

/// The default one-thread CpuBackend: one whole-frame tile, scalar kernel.
using SerialBackend = CpuBackend;

}  // namespace fisheye::core

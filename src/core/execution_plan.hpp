// Plan/execute split for the execution layer.
//
// The study's axis of comparison is "same warp, different execution
// substrate", and every substrate pays a one-time setup cost — partitioning
// on the pool, map reorganization on the Cell, platform instantiation on
// the GPU/FPGA — that must not be paid per frame. An ExecutionPlan captures
// that setup once per (backend, geometry, map) and is then consumed by
// Backend::execute(plan, frame) in steady state.
//
// Plan identity is a PlanKey: output/source geometry, map identity
// (pointer AND generation AND dimensions — a pointer compare alone
// mis-hits when a rebuilt map lands at a freed map's address), sampling
// options, and the owning backend's canonical name. Anything in the key
// changing invalidates the plan.
//
// A plan owns three kinds of per-plan storage:
//  * a ResolvedKernel — the tile compute function, looked up in the kernel
//    catalogue (core/kernel.hpp) once at plan time;
//  * a Workspace arena — the tile vector plus every steady-state scratch
//    buffer (steal runs), sized at plan time so execute() performs no
//    heap allocation;
//  * per-tile instrumentation slots: every backend — the CPU backends and
//    the accelerator simulators — fills one seconds slot per tile each
//    frame (wall-clock on CPU, cycle-model on the simulators) plus byte
//    counters, summarized uniformly through rt::summarize_tiles.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernel.hpp"
#include "core/mapping.hpp"
#include "core/remap.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"
#include "runtime/stats.hpp"

namespace fisheye::core {

class FisheyeCamera;
class ViewProjection;

/// Everything a backend needs to produce one output frame. Pointers and
/// views are non-owning and valid for the duration of execute(); which of
/// map/packed/compact/camera+view are set depends on `mode`. For planning,
/// the image views may carry null data pointers — only their geometry is
/// read.
struct ExecContext {
  img::ConstImageView<std::uint8_t> src;
  img::ImageView<std::uint8_t> dst;
  MapView map;  ///< a WarpMap, or a window of one read in place
  const PackedMap* packed = nullptr;
  const CompactMap* compact = nullptr;
  const FisheyeCamera* camera = nullptr;
  const ViewProjection* view = nullptr;
  RemapOptions opts;
  MapMode mode = MapMode::FloatLut;
  bool fast_math = false;
};

/// Map representation selected by a backend spec's `map=` option, built
/// from the context's float map view at plan time and carried by
/// the plan so steady-state frames execute against it. A ConvertedMap with
/// no storage (mode only) rewrites the context to an already-present
/// representation (e.g. map=float on a packed-mode corrector).
struct ConvertedMap {
  MapMode mode = MapMode::FloatLut;
  std::optional<PackedMap> packed;
  std::optional<CompactMap> compact;

  /// `ctx` with mode and map pointers rewritten to this representation.
  [[nodiscard]] ExecContext apply(ExecContext ctx) const noexcept;
};

/// Everything that, when changed, invalidates a plan.
struct PlanKey {
  std::string backend;  ///< canonical name() of the backend that planned
  int src_width = 0, src_height = 0, channels = 0;
  int dst_width = 0, dst_height = 0;
  MapMode mode = MapMode::FloatLut;
  Interp interp = Interp::Bilinear;
  img::BorderMode border = img::BorderMode::Constant;
  std::uint8_t fill = 0;
  bool fast_math = false;
  /// Identity of the coordinate source (core/kernel.hpp): table address +
  /// generation + dims per mode, or the camera/view pair (with their
  /// construction generations) for on-the-fly.
  MapIdentity map;
  /// Canonical lens/view model names of the planning context's camera and
  /// view (empty when the context carried none). Captured once at plan
  /// time for describe(); steady-state matches() compares the POD
  /// generations in `map` instead, so the hot path stays allocation-free.
  std::string lens;
  std::string view;
};

/// Build the key for `ctx` as planned by a backend named `backend_name`.
[[nodiscard]] PlanKey plan_key(const ExecContext& ctx,
                               std::string backend_name);

/// Analytic traffic estimate for one frame of `ctx`: LUT reads plus the
/// bilinear tap upper bound (in), destination writes (out). CPU backends
/// report these; the simulators report their modeled DMA/DDR counts.
/// (Defined in core/kernel.cpp with the rest of the per-mode logic.)
[[nodiscard]] std::size_t estimate_bytes_in(const ExecContext& ctx) noexcept;
[[nodiscard]] std::size_t estimate_bytes_out(const ExecContext& ctx) noexcept;

/// Mutable per-frame slots owned by a plan; written by execute(), read by
/// the harness. One seconds slot per plan tile.
struct PlanInstrumentation {
  std::vector<double> tile_seconds;
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  /// True when tile_seconds come from a cycle model rather than this
  /// host's wall clock (the accelerator simulators).
  bool modeled = false;
  /// Work-stealing counters (schedule=steal backends; zero elsewhere):
  /// how many tiles ran from the worker's initial run vs after a steal,
  /// and how many steal operations the frame needed.
  std::size_t local_tiles = 0;
  std::size_t stolen_tiles = 0;
  std::size_t steals = 0;

  /// Reset the slots for a frame of `tiles` tiles (reuses capacity).
  void begin_frame(std::size_t tiles) {
    tile_seconds.assign(tiles, 0.0);
    local_tiles = 0;
    stolen_tiles = 0;
    steals = 0;
  }
};

/// Per-plan arena: every buffer the steady-state execute path touches,
/// sized at plan time so frames allocate nothing. The tile decomposition
/// lives here too — the plan IS its workspace, and backends annotate it
/// with whatever schedule state they need (steal runs). Kernels keep
/// their SoA strip scratch on their own stack.
/// Like the instrumentation slots, the workspace is written by execution,
/// which is why a plan may execute at most one frame at a time. Within
/// that one frame, cooperating workers are fine — the pooled backends and
/// the multi-stream executor write disjoint per-tile slots concurrently —
/// but the frame-level counters and begin_frame() resets must stay
/// serialized against each other (the stream executor does this at frame
/// retire).
struct Workspace {
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The plan's tile decomposition (schedule order for steal plans).
  std::vector<par::Rect> tiles;
  /// schedule=steal: each lane's initial run of positions in `tiles`,
  /// which are stored in schedule order (see par::balanced_runs).
  std::vector<std::size_t> steal_runs;
  /// Analytic per-frame traffic, computed once at plan time.
  std::size_t bytes_in_estimate = 0;
  std::size_t bytes_out_estimate = 0;
};

/// One-time execution recipe: the tile decomposition and scratch arena
/// (Workspace), the resolved tile kernel, optional backend-private prepared
/// state (reorganized maps, platform instances), and the instrumentation
/// slots. Cheap to copy (shared state); a given plan may be *executed* by
/// at most one thread at a time because frames write its workspace and
/// instrumentation slots.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;  ///< invalid; matches() nothing

  ExecutionPlan(PlanKey key, std::vector<par::Rect> tiles,
                std::shared_ptr<void> state = nullptr);

  [[nodiscard]] bool valid() const noexcept { return inst_ != nullptr; }

  /// True when this plan can execute `ctx` on a backend named
  /// `backend_name` without replanning. Field-wise compare; no allocation.
  [[nodiscard]] bool matches(const ExecContext& ctx,
                             std::string_view backend_name) const noexcept;

  [[nodiscard]] const PlanKey& key() const noexcept { return key_; }
  [[nodiscard]] const std::vector<par::Rect>& tiles() const noexcept;

  /// The plan-time resolved tile compute function (invalid on plans built
  /// by backends that execute outside the catalogue — none today).
  [[nodiscard]] const ResolvedKernel& kernel() const noexcept {
    return kernel_;
  }
  void set_kernel(ResolvedKernel k) noexcept { kernel_ = k; }

  /// Scratch arena; mutable through a const plan, like instrumentation()
  /// (execution fills scratch, it does not change what the plan *is*).
  [[nodiscard]] Workspace& workspace() const noexcept { return *ws_; }

  /// Backend-private prepared state (type known to the owning backend).
  template <class T>
  [[nodiscard]] T* state() const noexcept {
    return static_cast<T*>(state_.get());
  }

  /// Frame slots; mutable through a const plan (execution does not change
  /// what the plan *is*, only what it last measured).
  [[nodiscard]] PlanInstrumentation& instrumentation() const {
    return *inst_;
  }

  /// Uniform per-tile summary of the most recently executed frame.
  [[nodiscard]] rt::TileStats tile_stats() const;

  /// One-line human-readable summary: backend name, output geometry, tile
  /// count, resolved kernel (mode × interp × datapath variant) and the
  /// host ISA the plan resolved under — what actually runs, post
  /// effective_variant() degrade, not what was requested.
  [[nodiscard]] std::string describe() const;

  /// Spec-selected map representation (map= option), or null when the plan
  /// executes the context's own representation.
  [[nodiscard]] const ConvertedMap* converted() const noexcept {
    return converted_.get();
  }
  void set_converted(std::shared_ptr<const ConvertedMap> c) noexcept {
    converted_ = std::move(c);
  }

 private:
  PlanKey key_;
  ResolvedKernel kernel_;
  std::shared_ptr<Workspace> ws_;
  std::shared_ptr<void> state_;
  std::shared_ptr<const ConvertedMap> converted_;
  std::shared_ptr<PlanInstrumentation> inst_;
};

}  // namespace fisheye::core

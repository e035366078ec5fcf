// Corrector: the library's front door.
//
// Configure once (lens, field of view, output geometry, kernel options),
// then correct frames repeatedly. Construction does all the expensive work
// (map generation, packing); correct() is the steady-state per-frame cost —
// the quantity every bench reports.
//
//   auto corr = core::Corrector::builder(1280, 720)
//                   .fov_degrees(180.0)
//                   .output_size(1280, 720)
//                   .build();
//   core::CpuBackend cpu;  // one thread; or BackendRegistry::create(spec)
//   corr.correct(fisheye_frame.view(), out.view(), cpu);
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/backend.hpp"
#include "core/model_spec.hpp"

namespace fisheye::core {

struct CorrectorConfig {
  // --- input geometry ---
  int src_width = 0;
  int src_height = 0;
  /// Lens model identity (kind + calibration parameters + field of view).
  /// Implicitly convertible from LensKind, so `config.lens = LensKind::X`
  /// keeps working.
  LensSpec lens = LensKind::Equidistant;
  /// Full field of view of the fisheye input; 0 = take it from the lens
  /// spec (whose default is 180 degrees). Non-zero overrides the spec.
  double fov_rad = 0.0;

  // --- output geometry ---
  int out_width = 0;    ///< 0 = same as input
  int out_height = 0;
  /// Output (perspective) focal length in pixels; 0 = match the lens focal,
  /// which preserves centre-of-image spatial resolution.
  double out_focal = 0.0;
  /// Output projection (perspective undistortion by default; cylindrical,
  /// equirect, and quadview panoramas via `view=` specs).
  ViewSpec view;

  // --- kernel options ---
  RemapOptions remap;
  MapMode map_mode = MapMode::FloatLut;
  int frac_bits = 14;       ///< PackedLut/CompactLut coordinate precision
  int compact_stride = 8;   ///< CompactLut grid pitch (power of two, <= 64)
  bool fast_math = false;   ///< OnTheFly: polynomial atan instead of libm
};

class Corrector {
 public:
  explicit Corrector(const CorrectorConfig& config);

  /// Correct one frame. `src` must be src_width x src_height, `dst` must be
  /// out_width x out_height, equal channel counts.
  ///
  /// Convenience path: plans through the backend's internal one-plan cache.
  /// Steady-state pipelines should prepare() once and use the two-argument
  /// correct() below, which never replans.
  void correct(img::ConstImageView<std::uint8_t> src,
               img::ImageView<std::uint8_t> dst, Backend& backend) const;

  /// A backend's plan for this corrector's geometry, built once and reused
  /// across frames. Valid until the backend or the corrector is destroyed;
  /// a prepared plan is pinned to the channel count it was built for.
  struct Prepared {
    Backend* backend = nullptr;
    ExecutionPlan plan;
    [[nodiscard]] bool valid() const noexcept {
      return backend != nullptr && plan.valid();
    }
  };

  /// Plan the backend's execution for frames of `channels` interleaved
  /// samples. Planning needs only the geometry, so no frame is required.
  [[nodiscard]] Prepared prepare(Backend& backend, int channels = 1) const;

  /// Steady-state frame correction: executes the prepared plan directly,
  /// skipping the plan-cache check entirely. Frame dimensions and channel
  /// count must match what prepare() was given.
  void correct(const Prepared& prepared, img::ConstImageView<std::uint8_t> src,
               img::ImageView<std::uint8_t> dst) const;

  /// Canonical backend name stamped into stream plans (PlanKey::backend).
  static constexpr const char* kStreamPlanName = "stream";

  /// Plan for multi-stream service (stream::StreamExecutor): a square-tile
  /// decomposition stored in source-locality order, whose instrumentation
  /// slots and byte estimates are sized here — per-frame service against
  /// the plan allocates nothing. One plan per stream: the plan's
  /// workspace and instrumentation are that stream's arena, written by
  /// whichever workers serve its frames but only for one frame at a time
  /// (the executor serializes frames within a stream).
  [[nodiscard]] ExecutionPlan prepare_stream(int channels = 1, int tile_w = 64,
                                             int tile_h = 64) const;

  /// The context correct() hands to the backend; exposed so benches and the
  /// accelerator simulators can drive backends directly.
  [[nodiscard]] ExecContext make_context(
      img::ConstImageView<std::uint8_t> src,
      img::ImageView<std::uint8_t> dst) const;

  [[nodiscard]] const CorrectorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const FisheyeCamera& camera() const noexcept {
    return *camera_;
  }
  [[nodiscard]] const ViewProjection& view() const noexcept { return *view_; }
  /// Null unless map_mode needs it (FloatLut; also built for PackedLut as
  /// the packing source and kept for bbox analysis).
  [[nodiscard]] const WarpMap* map() const noexcept {
    return map_ ? &*map_ : nullptr;
  }
  [[nodiscard]] const PackedMap* packed() const noexcept {
    return packed_ ? &*packed_ : nullptr;
  }
  [[nodiscard]] const CompactMap* compact() const noexcept {
    return compact_ ? &*compact_ : nullptr;
  }

  /// Builder with the defaults spelled out.
  class Builder;
  static Builder builder(int src_width, int src_height);

 private:
  CorrectorConfig config_;
  std::unique_ptr<FisheyeCamera> camera_;
  std::unique_ptr<ViewProjection> view_;
  std::optional<WarpMap> map_;
  std::optional<PackedMap> packed_;
  std::optional<CompactMap> compact_;
};

class Corrector::Builder {
 public:
  Builder(int src_width, int src_height) {
    config_.src_width = src_width;
    config_.src_height = src_height;
    // fov_rad stays 0: resolved from the lens spec (default 180 degrees)
    // unless fov_degrees() overrides it.
  }
  /// Lens model; accepts a bare LensKind (the kind's default spec) or a
  /// parsed LensSpec carrying calibration parameters and field of view.
  Builder& lens(const LensSpec& spec) {
    config_.lens = spec;
    return *this;
  }
  /// Output projection spec (perspective undistortion when not called).
  Builder& view(const ViewSpec& spec) {
    config_.view = spec;
    return *this;
  }
  Builder& fov_degrees(double deg) {
    config_.fov_rad = deg * 3.14159265358979323846 / 180.0;
    return *this;
  }
  Builder& output_size(int w, int h) {
    config_.out_width = w;
    config_.out_height = h;
    return *this;
  }
  Builder& output_focal(double f) {
    config_.out_focal = f;
    return *this;
  }
  Builder& interp(Interp i) {
    config_.remap.interp = i;
    return *this;
  }
  Builder& border(img::BorderMode mode, std::uint8_t fill = 0) {
    config_.remap.border = mode;
    config_.remap.fill = fill;
    return *this;
  }
  Builder& map_mode(MapMode mode) {
    config_.map_mode = mode;
    return *this;
  }
  Builder& frac_bits(int bits) {
    config_.frac_bits = bits;
    return *this;
  }
  Builder& compact_stride(int stride) {
    config_.compact_stride = stride;
    return *this;
  }
  Builder& fast_math(bool on) {
    config_.fast_math = on;
    return *this;
  }
  [[nodiscard]] Corrector build() const { return Corrector(config_); }
  [[nodiscard]] CorrectorConfig config() const { return config_; }

 private:
  CorrectorConfig config_;
};

inline Corrector::Builder Corrector::builder(int src_width, int src_height) {
  return {src_width, src_height};
}

/// A tile's source-locality sort key (see core/tile_order.hpp), supplied
/// by a caller that can bound a tile's source box without scanning the
/// tile's map entries.
using TileKeyFn = std::function<par::Rect(const par::Rect& tile)>;

/// Build a service plan for `ctx` under PlanKey backend `plan_name`: a
/// square-tile decomposition stored in source-locality order, whose
/// instrumentation slots and byte estimates are sized here, so per-frame
/// execution against the plan allocates nothing. Tiles cover
/// [0,tile_region_w) x [0,tile_region_h) (0 = ctx.dst dims); the
/// serving layer passes a region smaller than ctx.dst when the output
/// carries compact-grid padding no client ever reads. Tiles are Morton
/// ordered by `tile_key` when set, else by source_locality_keys(ctx) — a
/// `tile_key` must return what that would, or the order changes (never
/// the pixels). Shared by Corrector::prepare_stream and serve::PlanCache.
[[nodiscard]] ExecutionPlan build_service_plan(
    const ExecContext& ctx, int tile_w, int tile_h, std::string plan_name,
    int tile_region_w = 0, int tile_region_h = 0,
    const TileKeyFn& tile_key = {});

}  // namespace fisheye::core

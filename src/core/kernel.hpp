// Tile-kernel registry: the library's single dispatch point.
//
// The study's premise is one remap kernel ported across many platforms;
// the registry makes that literal. A KernelKey names a point in the
// (map representation × interpolation × border policy × pixel layout ×
// variant) lattice; the catalogue maps each supported point to a
// TileKernel — a plain function that produces one output rectangle.
// resolve_kernel() performs the lookup ONCE, at plan time, and returns a
// ResolvedKernel: the function pointer plus a KernelBinding capturing the
// frame-invariant operands (map tables, camera, full-frame source
// dimensions, sampling options). Every backend's execute path is then
// "for each tile, call plan.kernel()(src, dst, rect)" — zero per-frame
// branching on representation or interpolation.
//
// This header is the only place a new kernel variant (a new map kind, a
// pixel format, a vector ISA) has to be registered; backends pick it up
// through plan-time resolution without touching their execute paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/remap.hpp"
#include "image/border.hpp"
#include "image/image.hpp"
#include "parallel/partition.hpp"

namespace fisheye::core {

struct ExecContext;

/// How source coordinates are obtained per output pixel.
enum class MapMode {
  FloatLut,    ///< precomputed float map (a MapView of a WarpMap)
  PackedLut,   ///< precomputed fixed-point PackedMap (bilinear only)
  CompactLut,  ///< block-subsampled CompactMap, reconstructed per pixel
               ///< (bilinear only)
  OnTheFly,    ///< recomputed per pixel from camera + view
};

[[nodiscard]] constexpr const char* map_mode_name(MapMode m) noexcept {
  switch (m) {
    case MapMode::FloatLut: return "float-lut";
    case MapMode::PackedLut: return "packed-lut";
    case MapMode::CompactLut: return "compact-lut";
    case MapMode::OnTheFly: return "on-the-fly";
  }
  return "?";
}

/// Memory layout of the pixel samples a kernel reads and writes. One point
/// today; planar YUV and u16 land here as new kernels, not new backends.
enum class PixelLayout : std::uint8_t {
  InterleavedU8,  ///< channels interleaved, 8 bits per sample
};

/// Which implementation family executes the tile.
enum class KernelVariant : std::uint8_t {
  Scalar,      ///< per-pixel reference kernels (core/remap.cpp); the
               ///< float bilinear one resolves to its byte-exact AVX2
               ///< gather form wherever simd::gather_available() holds
  SimdSoa,     ///< two-pass SoA strip kernels (simd/remap_simd.cpp)
  SimdGather,  ///< AVX2 hardware-gather pass 2 (simd/remap_gather.cpp)
};

[[nodiscard]] constexpr const char* variant_name(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::Scalar: return "scalar";
    case KernelVariant::SimdSoa: return "simd-soa";
    case KernelVariant::SimdGather: return "simd-gather";
  }
  return "?";
}

/// A point in the kernel lattice; what resolve_kernel() looks up.
struct KernelKey {
  MapMode mode = MapMode::FloatLut;
  Interp interp = Interp::Bilinear;
  img::BorderMode border = img::BorderMode::Constant;
  PixelLayout layout = PixelLayout::InterleavedU8;
  KernelVariant variant = KernelVariant::Scalar;

  [[nodiscard]] bool operator==(const KernelKey&) const noexcept = default;
};

/// Frame-invariant operands captured at plan time. Which pointers are
/// non-null (and whether `map` views a table) depends on the key's map
/// mode; all referenced objects must outlive the plan (ExecutionPlan pins
/// spec-converted maps itself).
struct KernelBinding {
  MapView map;
  const PackedMap* packed = nullptr;
  const CompactMap* compact = nullptr;
  const FisheyeCamera* camera = nullptr;
  const ViewProjection* view = nullptr;
  /// Full-frame source dimensions: windowed kernels clamp taps against
  /// these, not against the (smaller) window view they are handed.
  int src_width = 0;
  int src_height = 0;
  RemapOptions opts;
  bool fast_math = false;
};

/// Per-call operands: the frame's pixel views, the output rectangle, and —
/// for windowed execution — where the source window sits in the full frame.
struct TileArgs {
  img::ConstImageView<std::uint8_t> src;
  img::ImageView<std::uint8_t> dst;
  par::Rect rect{};
  int src_off_x = 0;
  int src_off_y = 0;
};

using TileKernelFn = void (*)(const KernelBinding&, const TileArgs&);

/// The plan-time resolution result: one function pointer plus its bound
/// operands. Cheap to copy; invoke per tile with zero branching.
class ResolvedKernel {
 public:
  ResolvedKernel() = default;  ///< invalid; valid() == false

  ResolvedKernel(KernelKey key, TileKernelFn fn, KernelBinding binding,
                 bool windowed) noexcept
      : key_(key), binding_(binding), fn_(fn), windowed_(windowed) {}

  [[nodiscard]] bool valid() const noexcept { return fn_ != nullptr; }
  [[nodiscard]] const KernelKey& key() const noexcept { return key_; }
  [[nodiscard]] const KernelBinding& binding() const noexcept {
    return binding_;
  }
  /// True when the kernel accepts a source window + full-frame offset
  /// (the accelerator local-store and cluster scatter paths need this).
  [[nodiscard]] bool windowed() const noexcept { return windowed_; }

  /// Execute one tile: `src` is the full source frame, `rect` a rectangle
  /// of `dst`.
  void operator()(img::ConstImageView<std::uint8_t> src,
                  img::ImageView<std::uint8_t> dst, par::Rect rect) const {
    fn_(binding_, TileArgs{src, dst, rect, 0, 0});
  }

  /// Windowed execution: `src` is a copied sub-window of the real source
  /// whose top-left corner sits at (src_off_x, src_off_y) in full-frame
  /// coordinates. Requires windowed().
  void run_windowed(img::ConstImageView<std::uint8_t> src,
                    img::ImageView<std::uint8_t> dst, par::Rect rect,
                    int src_off_x, int src_off_y) const;

 private:
  KernelKey key_;
  KernelBinding binding_;
  TileKernelFn fn_ = nullptr;
  bool windowed_ = false;
};

/// Runtime-feasible variant for `ctx`: SimdGather degrades to SimdSoa
/// (when catalogued for the context's key) or Scalar when the gather
/// datapath is unavailable here (not compiled in, CPU lacks AVX2, or
/// FISHEYE_FORCE_SCALAR is set); FISHEYE_FORCE_SCALAR degrades every SIMD
/// variant to Scalar. Capability mismatches (an interpolation or border
/// the variant never supports) are NOT degraded — resolve_kernel still
/// throws for those, so misconfiguration stays loud.
[[nodiscard]] KernelVariant effective_variant(const ExecContext& ctx,
                                              KernelVariant wanted) noexcept;

/// Look up the kernel for `ctx` and bind its frame-invariant operands.
/// `variant` is first passed through effective_variant(). Throws
/// InvalidArgument (naming the unsupported combination) when the catalogue
/// has no kernel for the context's key.
[[nodiscard]] ResolvedKernel resolve_kernel(
    const ExecContext& ctx, KernelVariant variant = KernelVariant::Scalar);

/// True when the catalogue has a kernel for `key`.
[[nodiscard]] bool kernel_supported(const KernelKey& key) noexcept;

/// Human-readable list of every registered kernel, one per line — the
/// lattice points the library implements (help text, error messages).
[[nodiscard]] std::string kernel_catalogue();

/// Identity of the coordinate source a context executes from: table address
/// (a float view's first entry) + generation + dimensions (generation
/// defeats address recycling), or the camera/view pair for on-the-fly
/// evaluation. Plan keys compare these so the per-mode identity logic lives
/// with the kernel catalogue.
struct MapIdentity {
  const void* table = nullptr;
  std::uint64_t generation = 0;
  int width = 0;
  int height = 0;
  /// Row pitch of a FloatLut view in floats (0 otherwise): a window reads
  /// its owner's rows, so the same first entry and dims at another pitch
  /// are other entries.
  std::size_t pitch = 0;
  /// Grid pitch for CompactLut (0 otherwise): plans built for different
  /// subsampling strides are never interchangeable.
  int stride = 0;
  const void* camera = nullptr;
  const void* view = nullptr;
  /// Construction identity of the camera/view pair for OnTheFly mode
  /// (FisheyeCamera::generation / ViewProjection::generation): a
  /// recalibrated camera or rebuilt view landing at a recycled address
  /// must not alias the old plan, exactly like the table generations.
  std::uint64_t camera_gen = 0;
  std::uint64_t view_gen = 0;
  /// False when the context lacks the representation its mode names.
  bool present = false;

  [[nodiscard]] bool operator==(const MapIdentity&) const noexcept = default;
};

[[nodiscard]] MapIdentity map_identity(const ExecContext& ctx) noexcept;

/// Per-pixel sampling function resolved from an Interp once, outside the
/// pixel loop (the environment renderer and other non-remap samplers).
using SampleFn = void (*)(img::ConstImageView<std::uint8_t>, float, float,
                          img::BorderMode, std::uint8_t, std::uint8_t*);

[[nodiscard]] SampleFn sample_kernel(Interp interp);

}  // namespace fisheye::core

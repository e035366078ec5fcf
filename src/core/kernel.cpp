// The kernel catalogue: every (map representation × interpolation × border
// × layout × variant) point the library implements, and the ONLY runtime
// dispatch over MapMode/Interp. Backends resolve here once at plan time;
// adding a kernel variant is an entry in kCatalogue plus its function.
#include "core/kernel.hpp"

#include <cstddef>

#include "core/camera.hpp"
#include "core/execution_plan.hpp"
#include "core/projection.hpp"
#include "core/tile_order.hpp"
#include "simd/remap_gather.hpp"
#include "simd/remap_simd.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace fisheye::core {

namespace {

// --- scalar float-LUT kernels (windowed: offsets forwarded) -------------

void k_float_nearest(const KernelBinding& b, const TileArgs& a) {
  detail::remap_rect_nearest(a.src, a.dst, b.map, a.rect, a.src_off_x,
                             a.src_off_y, b.opts);
}

void k_float_bilinear(const KernelBinding& b, const TileArgs& a) {
  detail::remap_rect_bilinear(a.src, a.dst, b.map, a.rect, a.src_off_x,
                              a.src_off_y, b.opts);
}

void k_float_bicubic(const KernelBinding& b, const TileArgs& a) {
  detail::remap_rect_bicubic(a.src, a.dst, b.map, a.rect, a.src_off_x,
                             a.src_off_y, b.opts);
}

void k_float_lanczos3(const KernelBinding& b, const TileArgs& a) {
  detail::remap_rect_lanczos3(a.src, a.dst, b.map, a.rect, a.src_off_x,
                              a.src_off_y, b.opts);
}

// --- scalar fixed-point kernels (windowed; clamp vs full-frame dims) ----

void k_packed_bilinear(const KernelBinding& b, const TileArgs& a) {
  remap_packed_rect_offset(a.src, a.dst, *b.packed, a.rect, a.src_off_x,
                           a.src_off_y, b.src_width, b.src_height,
                           b.opts.fill);
}

void k_compact_bilinear(const KernelBinding& b, const TileArgs& a) {
  remap_compact_rect_offset(a.src, a.dst, *b.compact, a.rect, a.src_off_x,
                            a.src_off_y, b.opts.fill);
}

// --- scalar on-the-fly kernels (no LUT, hence no windowed form) ---------

void k_otf_nearest(const KernelBinding& b, const TileArgs& a) {
  detail::remap_otf_nearest(a.src, a.dst, *b.camera, *b.view, a.rect, b.opts,
                            b.fast_math);
}

void k_otf_bilinear(const KernelBinding& b, const TileArgs& a) {
  detail::remap_otf_bilinear(a.src, a.dst, *b.camera, *b.view, a.rect, b.opts,
                             b.fast_math);
}

void k_otf_bicubic(const KernelBinding& b, const TileArgs& a) {
  detail::remap_otf_bicubic(a.src, a.dst, *b.camera, *b.view, a.rect, b.opts,
                            b.fast_math);
}

void k_otf_lanczos3(const KernelBinding& b, const TileArgs& a) {
  detail::remap_otf_lanczos3(a.src, a.dst, *b.camera, *b.view, a.rect, b.opts,
                             b.fast_math);
}

// --- SoA SIMD kernels (constant border only) ----------------------------

void k_simd_float_bilinear(const KernelBinding& b, const TileArgs& a) {
  simd::SoaScratch scratch;
  simd::remap_bilinear_soa(a.src, a.dst, b.map, a.rect, b.opts.fill, scratch);
}

void k_simd_compact_bilinear(const KernelBinding& b, const TileArgs& a) {
  simd::SoaScratch scratch;
  simd::remap_compact_soa(a.src, a.dst, *b.compact, a.rect, b.opts.fill,
                          scratch);
}

// --- AVX2 gather kernels (catalogued for constant border) ---------------

// Byte for byte k_float_bilinear, offsets and every border mode included,
// so it also serves the Scalar entry wherever the gather datapath runs.
void k_gather_float_bilinear(const KernelBinding& b, const TileArgs& a) {
  simd::SoaScratch scratch;
  simd::remap_bilinear_gather(a.src, a.dst, b.map, a.rect, a.src_off_x,
                              a.src_off_y, b.opts, scratch);
}

void k_gather_packed_bilinear(const KernelBinding& b, const TileArgs& a) {
  simd::SoaScratch scratch;
  simd::remap_packed_gather(a.src, a.dst, *b.packed, a.rect, b.opts.fill,
                            scratch);
}

void k_gather_compact_bilinear(const KernelBinding& b, const TileArgs& a) {
  simd::SoaScratch scratch;
  simd::remap_compact_gather(a.src, a.dst, *b.compact, a.rect, b.opts.fill,
                             scratch);
}

// --- the catalogue ------------------------------------------------------

struct KernelEntry {
  MapMode mode;
  Interp interp;
  /// True: serves every border policy. False: Constant only (the
  /// fixed-point and SoA datapaths bake constant fill in).
  bool any_border;
  KernelVariant variant;
  bool windowed;
  TileKernelFn fn;
};

constexpr KernelVariant kScalar = KernelVariant::Scalar;
constexpr KernelVariant kSimd = KernelVariant::SimdSoa;
constexpr KernelVariant kGather = KernelVariant::SimdGather;

constexpr KernelEntry kCatalogue[] = {
    {MapMode::FloatLut, Interp::Nearest, true, kScalar, true,
     &k_float_nearest},
    {MapMode::FloatLut, Interp::Bilinear, true, kScalar, true,
     &k_float_bilinear},
    {MapMode::FloatLut, Interp::Bicubic, true, kScalar, true,
     &k_float_bicubic},
    {MapMode::FloatLut, Interp::Lanczos3, true, kScalar, true,
     &k_float_lanczos3},
    {MapMode::PackedLut, Interp::Bilinear, true, kScalar, true,
     &k_packed_bilinear},
    {MapMode::CompactLut, Interp::Bilinear, true, kScalar, true,
     &k_compact_bilinear},
    {MapMode::OnTheFly, Interp::Nearest, true, kScalar, false,
     &k_otf_nearest},
    {MapMode::OnTheFly, Interp::Bilinear, true, kScalar, false,
     &k_otf_bilinear},
    {MapMode::OnTheFly, Interp::Bicubic, true, kScalar, false,
     &k_otf_bicubic},
    {MapMode::OnTheFly, Interp::Lanczos3, true, kScalar, false,
     &k_otf_lanczos3},
    {MapMode::FloatLut, Interp::Bilinear, false, kSimd, false,
     &k_simd_float_bilinear},
    {MapMode::CompactLut, Interp::Bilinear, false, kSimd, false,
     &k_simd_compact_bilinear},
    {MapMode::FloatLut, Interp::Bilinear, false, kGather, false,
     &k_gather_float_bilinear},
    {MapMode::PackedLut, Interp::Bilinear, false, kGather, false,
     &k_gather_packed_bilinear},
    {MapMode::CompactLut, Interp::Bilinear, false, kGather, false,
     &k_gather_compact_bilinear},
};

const KernelEntry* find_entry(const KernelKey& key) noexcept {
  if (key.layout != PixelLayout::InterleavedU8) return nullptr;
  for (const KernelEntry& e : kCatalogue) {
    if (e.mode != key.mode || e.interp != key.interp ||
        e.variant != key.variant)
      continue;
    if (!e.any_border && key.border != img::BorderMode::Constant) continue;
    return &e;
  }
  return nullptr;
}

}  // namespace

void ResolvedKernel::run_windowed(img::ConstImageView<std::uint8_t> src,
                                  img::ImageView<std::uint8_t> dst,
                                  par::Rect rect, int src_off_x,
                                  int src_off_y) const {
  FE_EXPECTS(windowed_);
  fn_(binding_, TileArgs{src, dst, rect, src_off_x, src_off_y});
}

bool kernel_supported(const KernelKey& key) noexcept {
  return find_entry(key) != nullptr;
}

std::string kernel_catalogue() {
  std::string out;
  for (const KernelEntry& e : kCatalogue) {
    out += "  ";
    out += map_mode_name(e.mode);
    out += " x ";
    out += interp_name(e.interp);
    out += e.any_border ? " x any-border" : " x constant-border";
    out += " x ";
    out += variant_name(e.variant);
    if (e.windowed) out += " (windowed)";
    out += '\n';
  }
  return out;
}

KernelVariant effective_variant(const ExecContext& ctx,
                                KernelVariant wanted) noexcept {
  if (wanted == KernelVariant::Scalar) return wanted;
  // Kill switch first: FISHEYE_FORCE_SCALAR grounds every SIMD variant.
  if (util::force_scalar()) return KernelVariant::Scalar;
  if (wanted == KernelVariant::SimdGather && !simd::gather_available()) {
    // Degrade along the datapath axis only: the SoA kernel at the SAME
    // lattice point, else scalar. A point the SoA family never covers
    // (e.g. bicubic) stays SimdGather so resolve_kernel throws loudly.
    const KernelKey soa{ctx.mode, ctx.opts.interp, ctx.opts.border,
                        PixelLayout::InterleavedU8, KernelVariant::SimdSoa};
    const KernelKey gather{ctx.mode, ctx.opts.interp, ctx.opts.border,
                           PixelLayout::InterleavedU8,
                           KernelVariant::SimdGather};
    if (find_entry(gather) == nullptr) return wanted;
    return find_entry(soa) != nullptr ? KernelVariant::SimdSoa
                                      : KernelVariant::Scalar;
  }
  return wanted;
}

ResolvedKernel resolve_kernel(const ExecContext& ctx, KernelVariant variant) {
  variant = effective_variant(ctx, variant);
  const KernelKey key{ctx.mode, ctx.opts.interp, ctx.opts.border,
                      PixelLayout::InterleavedU8, variant};
  const KernelEntry* entry = find_entry(key);
  if (entry == nullptr)
    throw InvalidArgument(
        std::string("no tile kernel registered for ") +
        map_mode_name(key.mode) + " x " + interp_name(key.interp) +
        " x border=" + img::border_name(key.border) + " x " +
        variant_name(key.variant) + "; the catalogue has:\n" +
        kernel_catalogue());

  // Bind the frame-invariant operands; the per-mode pointer contract is a
  // precondition (the public entry is Backend::plan, which validated ctx).
  KernelBinding b;
  b.opts = ctx.opts;
  b.fast_math = ctx.fast_math;
  b.src_width = ctx.src.width;
  b.src_height = ctx.src.height;
  if (ctx.mode == MapMode::FloatLut) {
    FE_EXPECTS(!ctx.map.empty());
    b.map = ctx.map;
  } else if (ctx.mode == MapMode::PackedLut) {
    FE_EXPECTS(ctx.packed != nullptr);
    b.packed = ctx.packed;
  } else if (ctx.mode == MapMode::CompactLut) {
    FE_EXPECTS(ctx.compact != nullptr);
    FE_EXPECTS(ctx.compact->src_width == ctx.src.width &&
               ctx.compact->src_height == ctx.src.height);
    b.compact = ctx.compact;
  } else {
    FE_EXPECTS(ctx.camera != nullptr && ctx.view != nullptr);
    b.camera = ctx.camera;
    b.view = ctx.view;
  }
  // The float bilinear gather kernel computes the per-pixel kernel's own
  // arithmetic, so the Scalar entry runs it wherever it is available.
  TileKernelFn fn = entry->fn;
  if (fn == &k_float_bilinear && simd::gather_available())
    fn = &k_gather_float_bilinear;
  return {key, fn, b, entry->windowed};
}

MapIdentity map_identity(const ExecContext& ctx) noexcept {
  MapIdentity id;
  switch (ctx.mode) {
    case MapMode::FloatLut:
      if (ctx.map.empty()) return id;
      id.table = ctx.map.src_x;
      id.generation = ctx.map.generation;
      id.width = ctx.map.width;
      id.height = ctx.map.height;
      id.pitch = ctx.map.pitch;
      break;
    case MapMode::PackedLut:
      if (ctx.packed == nullptr) return id;
      id.table = ctx.packed;
      id.generation = ctx.packed->generation;
      id.width = ctx.packed->width;
      id.height = ctx.packed->height;
      break;
    case MapMode::CompactLut:
      if (ctx.compact == nullptr) return id;
      id.table = ctx.compact;
      id.generation = ctx.compact->generation;
      id.width = ctx.compact->width;
      id.height = ctx.compact->height;
      id.stride = ctx.compact->stride;
      break;
    case MapMode::OnTheFly:
      id.camera = ctx.camera;
      id.view = ctx.view;
      if (ctx.camera != nullptr) id.camera_gen = ctx.camera->generation();
      if (ctx.view != nullptr) id.view_gen = ctx.view->generation();
      break;
  }
  id.present = true;
  return id;
}

// --- public remap entry points whose dispatch lives with the catalogue --

void remap_rect_offset(img::ConstImageView<std::uint8_t> src,
                       img::ImageView<std::uint8_t> dst, MapView map,
                       par::Rect rect, int src_off_x, int src_off_y,
                       const RemapOptions& opts) {
  switch (opts.interp) {
    case Interp::Nearest:
      detail::remap_rect_nearest(src, dst, map, rect, src_off_x, src_off_y,
                                 opts);
      return;
    case Interp::Bilinear:
      detail::remap_rect_bilinear(src, dst, map, rect, src_off_x, src_off_y,
                                  opts);
      return;
    case Interp::Bicubic:
      detail::remap_rect_bicubic(src, dst, map, rect, src_off_x, src_off_y,
                                 opts);
      return;
    case Interp::Lanczos3:
      detail::remap_rect_lanczos3(src, dst, map, rect, src_off_x, src_off_y,
                                  opts);
      return;
  }
  throw InvalidArgument("remap: unknown interpolation");
}

void remap_rect(img::ConstImageView<std::uint8_t> src,
                img::ImageView<std::uint8_t> dst, MapView map,
                par::Rect rect, const RemapOptions& opts) {
  remap_rect_offset(src, dst, map, rect, 0, 0, opts);
}

void remap_otf_rect(img::ConstImageView<std::uint8_t> src,
                    img::ImageView<std::uint8_t> dst,
                    const FisheyeCamera& camera, const ViewProjection& view,
                    par::Rect rect, const RemapOptions& opts, bool fast_math) {
  switch (opts.interp) {
    case Interp::Nearest:
      detail::remap_otf_nearest(src, dst, camera, view, rect, opts, fast_math);
      return;
    case Interp::Bilinear:
      detail::remap_otf_bilinear(src, dst, camera, view, rect, opts,
                                 fast_math);
      return;
    case Interp::Bicubic:
      detail::remap_otf_bicubic(src, dst, camera, view, rect, opts, fast_math);
      return;
    case Interp::Lanczos3:
      detail::remap_otf_lanczos3(src, dst, camera, view, rect, opts,
                                 fast_math);
      return;
  }
  throw InvalidArgument("remap: unknown interpolation");
}

SampleFn sample_kernel(Interp interp) {
  switch (interp) {
    case Interp::Nearest: return &sample_nearest;
    case Interp::Bilinear: return &sample_bilinear;
    case Interp::Bicubic: return &sample_bicubic;
    case Interp::Lanczos3: return &sample_lanczos3;
  }
  throw InvalidArgument("sample_kernel: unknown interpolation");
}

// --- per-mode plan bookkeeping kept beside the dispatch -----------------

std::size_t estimate_bytes_in(const ExecContext& ctx) noexcept {
  const std::size_t px = static_cast<std::size_t>(ctx.dst.width) *
                         static_cast<std::size_t>(ctx.dst.height);
  const std::size_t ch = static_cast<std::size_t>(ctx.src.channels);
  std::size_t lut = 0;
  switch (ctx.mode) {
    case MapMode::FloatLut: lut = px * 2 * sizeof(float); break;
    case MapMode::PackedLut: lut = px * 2 * sizeof(std::int32_t); break;
    case MapMode::CompactLut:
      // The whole grid is streamed once per frame, not 8 bytes per pixel —
      // the bandwidth win the compact representation exists for.
      lut = ctx.compact != nullptr ? ctx.compact->bytes() : 0;
      break;
    case MapMode::OnTheFly: lut = 0; break;
  }
  // Bilinear reads up to four taps per pixel per channel; nearest one.
  const std::size_t taps = ctx.opts.interp == Interp::Bilinear ? 4 : 1;
  return lut + px * ch * taps;
}

std::size_t estimate_bytes_out(const ExecContext& ctx) noexcept {
  return static_cast<std::size_t>(ctx.dst.width) *
         static_cast<std::size_t>(ctx.dst.height) *
         static_cast<std::size_t>(ctx.src.channels);
}

std::vector<par::Rect> source_locality_keys(
    const ExecContext& ctx, const std::vector<par::Rect>& tiles) {
  std::vector<par::Rect> keys;
  keys.reserve(tiles.size());
  switch (ctx.mode) {
    case MapMode::FloatLut:
      if (!ctx.map.empty()) {
        for (const par::Rect& t : tiles)
          keys.push_back(
              source_bbox(ctx.map, t, ctx.src.width, ctx.src.height));
        return keys;
      }
      break;
    case MapMode::CompactLut:
      if (ctx.compact != nullptr) {
        for (const par::Rect& t : tiles)
          keys.push_back(source_bbox(*ctx.compact, t));
        return keys;
      }
      break;
    case MapMode::PackedLut:
    case MapMode::OnTheFly:
      break;
  }
  // No per-pixel source table to query: key on the output tiles. They are
  // never empty, so none get demoted to the fill tail.
  keys = tiles;
  return keys;
}

}  // namespace fisheye::core

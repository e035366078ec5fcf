// The AVX2 gather datapath vs the scalar reference, and the plan-time
// machinery around it: datapath=/tuned= spec options, effective-variant
// degrade (FISHEYE_FORCE_SCALAR, non-AVX2 hosts), the autotuner's
// resolve-once contract and exactness, and plan describability.
//
// Numerical contracts (simd/remap_gather.hpp): all three gather kernels are
// bit-exact against their scalar counterparts. The packed and compact ones
// run the SAME integer arithmetic; the float one runs core::sample_bilinear's
// own arithmetic, and the Scalar float bilinear entry resolves to it wherever
// the gather datapath is available, so every scalar float plan depends on
// it. The float SoA kernel's pixels must not depend on rect offset (vector
// body and scalar remainder of pass 1 agree). All hold with or without AVX2
// (the strip structure, not the ISA, defines the arithmetic), so this suite
// runs unconditionally.
#include <gtest/gtest.h>

#include <algorithm>
#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/backend_registry.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "core/remap.hpp"
#include "image/image.hpp"
#include "simd/remap_gather.hpp"
#include "simd/remap_simd.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace fisheye::core {
namespace {

using util::deg_to_rad;

img::Image8 random_image(int w, int h, int ch, std::uint64_t seed) {
  util::Rng rng(seed);
  img::Image8 im(w, h, ch);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w * ch; ++x)
      im.row(y)[x] = static_cast<std::uint8_t>(rng.next_below(256));
  return im;
}

WarpMap random_interior_map(int w, int h, int src_w, int src_h,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  WarpMap map;
  map.width = w;
  map.height = h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    map.src_x[i] = static_cast<float>(rng.uniform(1.0, src_w - 2.0));
    map.src_y[i] = static_cast<float>(rng.uniform(1.0, src_h - 2.0));
  }
  return map;
}

par::Rect random_rect(int w, int h, util::Rng& rng) {
  const int x0 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(w - 8)));
  const int y0 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(h - 4)));
  const int x1 = x0 + 8 +
                 static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(w - x0 - 7)));
  const int y1 = y0 + 4 +
                 static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(h - y0 - 3)));
  return {x0, y0, std::min(x1, w), std::min(y1, h)};
}

int max_abs_diff(const img::Image8& a, const img::Image8& b) {
  int worst = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width() * a.channels(); ++x) {
      const int d = std::abs(int(a.row(y)[x]) - int(b.row(y)[x]));
      worst = std::max(worst, d);
    }
  return worst;
}

TEST(GatherKernel, FloatWithinOneLevelOfScalarOnRandomRects) {
  // The float gather once quantized its weights to 8.8 and was held to one
  // level here; it now runs the per-pixel kernel's arithmetic, so the
  // bound is zero.
  const RemapOptions opts{Interp::Bilinear, img::BorderMode::Constant, 0};
  for (const int ch : {1, 3}) {
    const int w = 181, h = 67;
    const img::Image8 src = random_image(w, h, ch, 21);
    const WarpMap map = random_interior_map(w, h, w, h, 22);
    util::Rng rng(23);
    simd::SoaScratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const par::Rect rect = random_rect(w, h, rng);
      img::Image8 a(w, h, ch), b(w, h, ch);
      a.fill(9);
      b.fill(9);
      core::remap_rect(src.view(), a.view(), map, rect, opts);
      simd::remap_bilinear_gather(src.view(), b.view(), map, rect, 0, 0,
                                  opts, scratch);
      EXPECT_EQ(max_abs_diff(a, b), 0)
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

TEST(GatherKernel, PackedBitExactAgainstScalarOnRandomRects) {
  for (const int ch : {1, 3}) {
    const int w = 143, h = 59;
    const img::Image8 src = random_image(w, h, ch, 31);
    const WarpMap map = random_interior_map(w, h, w, h, 32);
    const PackedMap packed = pack_map(map, w, h);
    util::Rng rng(33);
    simd::SoaScratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const par::Rect rect = random_rect(w, h, rng);
      img::Image8 a(w, h, ch), b(w, h, ch);
      a.fill(5);
      b.fill(5);
      remap_packed_rect(src.view(), a.view(), packed, rect, 0);
      simd::remap_packed_gather(src.view(), b.view(), packed, rect, 0,
                                scratch);
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()))
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

TEST(GatherKernel, CompactBitExactAgainstScalarOnRandomRects) {
  for (const int ch : {1, 3}) {
    const int w = 128, h = 96;
    const img::Image8 src = random_image(w, h, ch, 41);
    const WarpMap map = random_interior_map(w, h, w, h, 42);
    const CompactMap cm = compact_map(map, w, h, 8);
    util::Rng rng(43);
    simd::SoaScratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const par::Rect rect = random_rect(w, h, rng);
      img::Image8 a(w, h, ch), b(w, h, ch);
      a.fill(3);
      b.fill(3);
      remap_compact_rect(src.view(), a.view(), cm, rect, 0);
      simd::remap_compact_gather(src.view(), b.view(), cm, rect, 0, scratch);
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()))
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

/// Two anonymous pages, the second PROT_NONE: the first page's last byte is
/// the last readable byte, so any read past it faults. ASan does not
/// instrument AVX2 gathers; this is what checks their dword-overrun guard.
class GuardedPage {
 public:
  GuardedPage() {
    void* p = mmap(nullptr, 2 * size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    base_ = static_cast<std::uint8_t*>(p);
    if (mprotect(base_ + size_, size_, PROT_NONE) != 0) {
      munmap(base_, 2 * size_);
      base_ = nullptr;
    }
  }
  ~GuardedPage() {
    if (base_ != nullptr) munmap(base_, 2 * size_);
  }
  GuardedPage(const GuardedPage&) = delete;
  GuardedPage& operator=(const GuardedPage&) = delete;

  [[nodiscard]] bool ok() const noexcept { return base_ != nullptr; }
  /// Start of a `bytes`-long block that ends on the guard page.
  [[nodiscard]] std::uint8_t* tail(std::size_t bytes) const noexcept {
    return base_ + size_ - bytes;
  }

 private:
  std::size_t size_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::uint8_t* base_ = nullptr;
};

TEST(GatherKernel, TightPitchLastRowIsSafeAndExact) {
  // pitch == width (single channel, 64-px-multiple row): the vector loop's
  // 4-byte gathers near the bottom-right corner must not read past the
  // buffer (the bot < total-3 lane check routes those through the scalar
  // fixup). The guard-page case below faults if one does.
  const int w = 128, h = 32;
  const img::Image8 src = random_image(w, h, 1, 51);
  ASSERT_EQ(src.pitch(), static_cast<std::size_t>(w));
  WarpMap map;
  map.width = w;
  map.height = h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  // Everything points at the last interior pixel rows/columns.
  util::Rng rng(52);
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    map.src_x[i] = static_cast<float>(rng.uniform(w - 6.0, w - 1.01));
    map.src_y[i] = static_cast<float>(rng.uniform(h - 4.0, h - 1.01));
  }
  const RemapOptions opts{Interp::Bilinear, img::BorderMode::Constant, 0};
  img::Image8 a(w, h, 1), b(w, h, 1);
  core::remap_rect(src.view(), a.view(), map, {0, 0, w, h}, opts);
  simd::SoaScratch scratch;
  simd::remap_bilinear_gather(src.view(), b.view(), map, {0, 0, w, h}, 0, 0,
                              opts, scratch);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()));

  // The same source copied to end on a guard page, every sample in the
  // bottom-right 2x2 footprint: a dword read there covers the last two
  // bytes of the buffer and two past it.
  GuardedPage page;
  ASSERT_TRUE(page.ok());
  const std::size_t total = static_cast<std::size_t>(w) * h;
  std::uint8_t* bytes = page.tail(total);
  for (int y = 0; y < h; ++y)
    std::copy(src.row(y), src.row(y) + w,
              bytes + static_cast<std::size_t>(y) * w);
  const img::ConstImageView<std::uint8_t> guarded(bytes, w, h, 1,
                                                  static_cast<std::size_t>(w));
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    map.src_x[i] = static_cast<float>(rng.uniform(w - 2.0, w - 1.0));
    map.src_y[i] = static_cast<float>(rng.uniform(h - 2.0, h - 1.0));
  }
  core::remap_rect(src.view(), a.view(), map, {0, 0, w, h}, opts);
  b.fill(0);
  simd::remap_bilinear_gather(guarded, b.view(), map, {0, 0, w, h}, 0, 0,
                              opts, scratch);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()));
  const PackedMap packed = pack_map(map, w, h);
  remap_packed_rect(src.view(), a.view(), packed, {0, 0, w, h}, 0);
  b.fill(0);
  simd::remap_packed_gather(guarded, b.view(), packed, {0, 0, w, h}, 0,
                            scratch);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(a.view(), b.view()));
}

// The float kernels' pass 1 is compiled to vector code, so its arithmetic
// is pinned on the values that probe it: NaN, infinities, huge magnitudes,
// signed zero, just-outside negatives, the w - 1 edge from both sides, and
// the weight-rounding ties k + (m + 0.5) / 256 (exact in float).
float salt_value(util::Rng& rng, int dim) {
  const float inf = std::numeric_limits<float>::infinity();
  const float edge = static_cast<float>(dim - 1);
  switch (rng.next_below(14)) {
    case 0: return std::numeric_limits<float>::quiet_NaN();
    case 1: return inf;
    case 2: return -inf;
    case 3: return 1e30f;
    case 4: return -1e30f;
    case 5: return -0.0f;
    case 6: return -0.5f;
    case 7: return static_cast<float>(dim - 1 - 1e-6);
    case 8: return static_cast<float>(dim - 1 + 1e-6);
    case 9: return std::nextafter(edge, 0.0f);
    case 10: return edge;
    default: {
      const auto k = static_cast<float>(
          rng.next_below(static_cast<std::uint64_t>(dim)));
      const auto m = static_cast<float>(rng.next_below(256));
      return k + (m + 0.5f) / 256.0f;
    }
  }
}

WarpMap salted_map(int w, int h, int src_w, int src_h, std::uint64_t seed) {
  util::Rng rng(seed);
  WarpMap map;
  map.width = w;
  map.height = h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    map.src_x[i] = rng.next_below(3) == 0
                       ? salt_value(rng, src_w)
                       : static_cast<float>(rng.uniform(-1.5, src_w + 0.5));
    map.src_y[i] = rng.next_below(3) == 0
                       ? salt_value(rng, src_h)
                       : static_cast<float>(rng.uniform(-1.5, src_h + 0.5));
  }
  return map;
}

/// Rects with odd x offsets and widths that are not multiples of 8, so the
/// vector body and the scalar remainder of every loop both run.
par::Rect odd_rect(int w, int h, util::Rng& rng) {
  const int x0 = static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(w / 2))) | 1;
  const int y0 = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(h / 2)));
  int width = 9 + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(w - x0 - 9)));
  if (width % 8 == 0) --width;
  const int height = 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(h - y0)));
  return {x0, y0, x0 + width, y0 + height};
}

int count_mismatches(const img::Image8& a, const img::Image8& b) {
  int bad = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width() * a.channels(); ++x)
      bad += a.row(y)[x] != b.row(y)[x];
  return bad;
}

/// The per-pixel float bilinear kernel on `rect` of a frame filled with 200:
/// the bytes every float bilinear kernel below must reproduce.
img::Image8 per_pixel(img::ConstImageView<std::uint8_t> src,
                      const WarpMap& map, par::Rect rect, int off_x, int off_y,
                      const RemapOptions& opts) {
  img::Image8 out(map.width, map.height, src.channels);
  out.fill(200);
  core::remap_rect_offset(src, out.view(), map, rect, off_x, off_y, opts);
  return out;
}

/// `src` from (x0, y0) to its bottom-right corner, copied into its own
/// buffer: the kind of window the simulators hand run_windowed.
img::Image8 window_of(const img::Image8& src, int x0, int y0) {
  const int ch = src.channels();
  img::Image8 win(src.width() - x0, src.height() - y0, ch);
  for (int y = 0; y < win.height(); ++y)
    std::copy(src.row(y0 + y) + static_cast<std::size_t>(x0) * ch,
              src.row(y0 + y) + static_cast<std::size_t>(src.width()) * ch,
              win.row(y));
  return win;
}

/// Runs every path that must equal the per-pixel kernel on `rect`: the
/// Scalar entry's resolved kernel under each border mode, called directly
/// and through run_windowed over an offset window; a direct
/// remap_bilinear_gather call; and, where the gather datapath runs, the
/// SimdGather entry (constant border only). Returns the pixel evaluations
/// compared.
long long expect_float_bilinear_exact(const img::Image8& src,
                                      const WarpMap& map, par::Rect rect,
                                      const std::string& what) {
  constexpr int kOffX = 3, kOffY = 2;
  const img::Image8 window = window_of(src, kOffX, kOffY);
  const int ch = src.channels();
  img::Image8 got(map.width, map.height, ch);
  simd::SoaScratch scratch;
  long long evaluated = 0;
  const auto expect_same = [&](const img::Image8& want, const char* path,
                               img::BorderMode border) {
    EXPECT_EQ(count_mismatches(want, got), 0)
        << what << ' ' << path << " border=" << img::border_name(border)
        << " rect=(" << rect.x0 << ',' << rect.y0 << ',' << rect.x1 << ','
        << rect.y1 << ')';
    evaluated += rect.area();
  };
  for (const img::BorderMode border :
       {img::BorderMode::Constant, img::BorderMode::Replicate,
        img::BorderMode::Reflect}) {
    const RemapOptions opts{Interp::Bilinear, border, 7};
    ExecContext ctx;
    ctx.src = src.view();
    ctx.dst = got.view();
    ctx.map = map;
    ctx.opts = opts;
    const ResolvedKernel scalar = resolve_kernel(ctx, KernelVariant::Scalar);
    EXPECT_EQ(scalar.key().variant, KernelVariant::Scalar);

    const img::Image8 want = per_pixel(src.view(), map, rect, 0, 0, opts);
    got.fill(200);
    scalar(src.view(), got.view(), rect);
    expect_same(want, "scalar entry", border);
    got.fill(200);
    simd::remap_bilinear_gather(src.view(), got.view(), map, rect, 0, 0, opts,
                                scratch);
    expect_same(want, "direct call", border);
    if (border == img::BorderMode::Constant && simd::gather_available()) {
      const ResolvedKernel gather =
          resolve_kernel(ctx, KernelVariant::SimdGather);
      EXPECT_EQ(gather.key().variant, KernelVariant::SimdGather);
      got.fill(200);
      gather(src.view(), got.view(), rect);
      expect_same(want, "simd-gather entry", border);
    }

    const img::Image8 want_win =
        per_pixel(window.view(), map, rect, kOffX, kOffY, opts);
    got.fill(200);
    scalar.run_windowed(window.view(), got.view(), rect, kOffX, kOffY);
    expect_same(want_win, "scalar entry windowed", border);
  }
  return evaluated;
}

TEST(GatherKernel, FloatMatchesItsContractByteForByteOnSaltedMaps) {
  // The float gather's contract is the per-pixel kernel's bytes. 181 wide
  // pads the pitch; 128 wide single-channel is a tight pitch, so the last
  // row's dword reads hit the buffer-end guard.
  for (const int ch : {1, 3}) {
    for (const auto& [w, h] : {std::pair{181, 67}, std::pair{128, 40}}) {
      const img::Image8 src = random_image(w, h, ch, 71);
      const WarpMap map = salted_map(w, h, w, h, 72 + ch);
      util::Rng rng(73);
      std::vector<par::Rect> rects{{0, 0, w, h},
                                   {0, 0, 1, 1},
                                   {w - 1, h - 1, w, h},
                                   {w / 2, h / 3, w / 2 + 1, h / 3 + 1}};
      for (int r = 0; r < 12; ++r) rects.push_back(odd_rect(w, h, rng));
      const std::string what = "salted ch=" + std::to_string(ch) +
                               " w=" + std::to_string(w);
      for (const par::Rect& rect : rects)
        expect_float_bilinear_exact(src, map, rect, what);
    }
  }
}

TEST(GatherKernel, FloatIsByteForByteThePerPixelKernel) {
  // Real maps, every pixel: a full 1080p frame, and a 200-degree lens whose
  // image circle leaves most of a 640x480 frame to the border modes. A
  // reordered blend moves a byte only a few times per frame, hence the
  // evaluation floor.
  long long evaluated = 0;
  struct RealMap {
    int w, h, ch;
    double fov_deg;
  };
  for (const RealMap m : {RealMap{1920, 1080, 1, 180.0},
                          RealMap{640, 480, 1, 200.0},
                          RealMap{640, 480, 3, 200.0}}) {
    const FisheyeCamera cam = FisheyeCamera::centered(
        LensKind::Equidistant, deg_to_rad(m.fov_deg), m.w, m.h);
    const PerspectiveView view(m.w, m.h, cam.lens().focal() * 0.5);
    const WarpMap map = build_map(cam, view);
    const img::Image8 src = random_image(m.w, m.h, m.ch, 74);
    evaluated += expect_float_bilinear_exact(
        src, map, {0, 0, m.w, m.h},
        "real " + std::to_string(m.w) + "x" + std::to_string(m.h) +
            " ch=" + std::to_string(m.ch));
  }
  EXPECT_GE(evaluated, 10'000'000);
}

TEST(SoaKernel, FloatPixelIsIndependentOfRectOffset) {
  // Each pixel's value may depend only on its map entry, never on whether
  // the vector body or the scalar remainder of pass 1 computed it.
  for (const int ch : {1, 3}) {
    const int w = 181, h = 67;
    const img::Image8 src = random_image(w, h, ch, 81);
    const WarpMap map = salted_map(w, h, w, h, 82 + ch);
    simd::SoaScratch scratch;
    img::Image8 ref(w, h, ch);
    simd::remap_bilinear_soa(src.view(), ref.view(), map, {0, 0, w, h}, 7,
                             scratch);
    util::Rng rng(83);
    for (int r = 0; r < 16; ++r) {
      const par::Rect rect = odd_rect(w, h, rng);
      img::Image8 want(w, h, ch), got(w, h, ch);
      want.fill(200);
      got.fill(200);
      for (int y = rect.y0; y < rect.y1; ++y)
        std::copy(ref.row(y) + static_cast<std::size_t>(rect.x0) * ch,
                  ref.row(y) + static_cast<std::size_t>(rect.x1) * ch,
                  want.row(y) + static_cast<std::size_t>(rect.x0) * ch);
      simd::remap_bilinear_soa(src.view(), got.view(), map, rect, 7,
                               scratch);
      EXPECT_EQ(count_mismatches(want, got), 0)
          << "ch=" << ch << " rect=(" << rect.x0 << ',' << rect.y0 << ','
          << rect.x1 << ',' << rect.y1 << ')';
    }
  }
}

/// `map`'s entries in `r`, copied into a map of their own (pitch == width).
WarpMap cropped_copy(MapView map, par::Rect r) {
  WarpMap crop;
  crop.width = r.width();
  crop.height = r.height();
  for (int y = r.y0; y < r.y1; ++y) {
    crop.src_x.insert(crop.src_x.end(), map.src_x + map.index(r.x0, y),
                      map.src_x + map.index(r.x1, y));
    crop.src_y.insert(crop.src_y.end(), map.src_y + map.index(r.x0, y),
                      map.src_y + map.index(r.x1, y));
  }
  return crop;
}

TEST(MapView, EveryFloatKernelReadsStridedWindowsExactly) {
  // Plans read windows of a larger table in place (the serving layer's
  // level LUTs): every float-LUT catalogue entry, under each border mode
  // it serves, must produce on a window view (pitch != width, odd origins,
  // right/bottom edge windows) the bytes it produces on a cropped copy of
  // the same entries, directly and through run_windowed's source offsets.
  // Entries resolve through effective_variant, so a host without the
  // gather datapath checks what it degrades to.
  constexpr int kMapW = 203, kMapH = 97, kSrcW = 61, kSrcH = 47;
  constexpr int kOffX = 3, kOffY = 2;
  util::Rng rng(91);
  WarpMap big;
  big.width = kMapW;
  big.height = kMapH;
  for (int i = 0; i < kMapW * kMapH; ++i) {
    big.src_x.push_back(static_cast<float>(rng.uniform(-3.0, kSrcW + 3.0)));
    big.src_y.push_back(static_cast<float>(rng.uniform(-3.0, kSrcH + 3.0)));
  }
  const std::vector<par::Rect> windows{
      {37, 11, 112, 52},                     // odd origin, interior
      {kMapW - 53, 5, kMapW, 34},            // right edge
      {13, kMapH - 31, 80, kMapH},           // bottom edge
      {kMapW - 41, kMapH - 23, kMapW, kMapH},  // bottom-right corner
      {kMapW - 1, 0, kMapW, kMapH},          // one column
      {0, 0, kMapW, kMapH}};                 // the whole map
  long long evaluated = 0;
  for (const int ch : {1, 3}) {
    const img::Image8 src = random_image(kSrcW, kSrcH, ch, 92 + ch);
    const img::Image8 src_win = window_of(src, kOffX, kOffY);
    for (const par::Rect& win : windows) {
      const MapView view = big.view().window(win);
      ASSERT_EQ(view.pitch, static_cast<std::size_t>(kMapW));
      const WarpMap crop = cropped_copy(big, win);
      const int w = win.width(), h = win.height();
      const std::vector<par::Rect> rects{
          {0, 0, w, h},
          {std::min(w / 3 | 1, w - 1), h / 4, w, std::max(h / 4 + 1, h - 1)}};
      for (const Interp interp : {Interp::Nearest, Interp::Bilinear,
                                  Interp::Bicubic, Interp::Lanczos3}) {
        for (const KernelVariant variant :
             {KernelVariant::Scalar, KernelVariant::SimdSoa,
              KernelVariant::SimdGather}) {
          for (const img::BorderMode border :
               {img::BorderMode::Constant, img::BorderMode::Replicate,
                img::BorderMode::Reflect}) {
            if (!kernel_supported({MapMode::FloatLut, interp, border,
                                   PixelLayout::InterleavedU8, variant}))
              continue;
            img::Image8 want(w, h, ch), got(w, h, ch);
            ExecContext ctx;
            ctx.src = src.view();
            ctx.opts = {interp, border, 7};
            ctx.dst = want.view();
            ctx.map = crop;
            const ResolvedKernel on_crop = resolve_kernel(ctx, variant);
            ctx.dst = got.view();
            ctx.map = view;
            const ResolvedKernel on_view = resolve_kernel(ctx, variant);
            ASSERT_EQ(on_crop.key(), on_view.key());
            const std::string what =
                std::string(interp_name(interp)) + ' ' +
                variant_name(on_view.key().variant) +
                " border=" + img::border_name(border) +
                " ch=" + std::to_string(ch) + " window=(" +
                std::to_string(win.x0) + ',' + std::to_string(win.y0) + ',' +
                std::to_string(win.x1) + ',' + std::to_string(win.y1) + ')';
            for (const par::Rect& rect : rects) {
              want.fill(200);
              got.fill(200);
              on_crop(src.view(), want.view(), rect);
              on_view(src.view(), got.view(), rect);
              EXPECT_EQ(count_mismatches(want, got), 0) << what;
              evaluated += rect.area();
              if (!on_view.windowed()) continue;
              want.fill(200);
              got.fill(200);
              on_crop.run_windowed(src_win.view(), want.view(), rect, kOffX,
                                   kOffY);
              on_view.run_windowed(src_win.view(), got.view(), rect, kOffX,
                                   kOffY);
              EXPECT_EQ(count_mismatches(want, got), 0)
                  << what << " run_windowed";
              evaluated += rect.area();
            }
          }
        }
      }
    }
  }
  // Not vacuous: per window and channel count, 14 entry x border points
  // (four scalar interpolations under three borders, SoA and gather at
  // constant), the scalar ones both directly and through run_windowed.
  EXPECT_GT(evaluated, 1'000'000);
}

// ---------------------------------------------------------------------------

constexpr int kW = 96;
constexpr int kH = 64;

struct Frame {
  img::Image8 src{kW, kH, 1};
  img::Image8 dst{kW, kH, 1};
  WarpMap map;

  Frame() {
    const FisheyeCamera cam = FisheyeCamera::centered(
        LensKind::Equidistant, deg_to_rad(170.0), kW, kH);
    const PerspectiveView view(kW, kH, cam.lens().focal());
    map = build_map(cam, view);
    src.fill(100);
  }

  [[nodiscard]] ExecContext ctx() {
    ExecContext c;
    c.src = src.view();
    c.dst = dst.view();
    c.map = map;
    c.mode = MapMode::FloatLut;
    return c;
  }
};

TEST(Datapath, PlanRecordsTheVariantThatActuallyRuns) {
  Frame f;
  const auto backend =
      BackendRegistry::create("simd:threads=1,datapath=gather");
  const ExecutionPlan plan = backend->plan(f.ctx());
  const KernelVariant expect = simd::gather_available()
                                   ? KernelVariant::SimdGather
                                   : KernelVariant::SimdSoa;
  EXPECT_EQ(plan.kernel().key().variant, expect);
  backend->execute(plan, f.ctx());  // and it runs
}

TEST(Datapath, ForceScalarEnvGroundsEveryVariant) {
  Frame f;
  f.src = random_image(kW, kH, 1, 91);
  // Grounded or not, the exact plans produce the per-pixel kernel's bytes.
  img::Image8 want(kW, kH, 1);
  core::remap_rect(f.src.view(), want.view(), f.map, {0, 0, kW, kH}, {});
  const auto run = [&f](const char* spec) {
    const auto backend = BackendRegistry::create(spec);
    const ExecutionPlan plan = backend->plan(f.ctx());
    f.dst.fill(0);
    backend->execute(plan, f.ctx());
    return plan.kernel().key().variant;
  };
  ASSERT_EQ(setenv("FISHEYE_FORCE_SCALAR", "1", 1), 0);
  for (const char* spec :
       {"simd:threads=1,datapath=gather", "simd:threads=1", "serial"}) {
    EXPECT_EQ(run(spec), KernelVariant::Scalar) << spec;
    EXPECT_EQ(count_mismatches(want, f.dst), 0) << spec;
  }
  ASSERT_EQ(unsetenv("FISHEYE_FORCE_SCALAR"), 0);
  // And fresh plans pick the SIMD paths back up (read per call, not
  // latched at startup), the byte-exact ones with the same bytes.
  EXPECT_EQ(run("simd:threads=1"), KernelVariant::SimdSoa);
  for (const char* spec : {"simd:threads=1,datapath=gather", "serial"}) {
    (void)run(spec);
    EXPECT_EQ(count_mismatches(want, f.dst), 0) << spec;
  }
}

TEST(Datapath, UnknownValuesAreRejectedNamingTheToken) {
  try {
    (void)BackendRegistry::create("simd:threads=1,datapath=avx9");
    FAIL() << "accepted datapath=avx9";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("datapath="), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("avx9"), std::string::npos)
        << e.what();
  }
}

TEST(Datapath, TunedAcceptsOnlyAuto) {
  // A tuned decision is spelled with the options it picks (datapath=,
  // tile=), so tuned= has one value. Slash tokens (datapath/strip/tile/
  // map), candidate labels and near-misses of "auto" are all rejected, and
  // so is tuned= on the aliases that do not take it.
  for (const char* spec :
       {"simd:tuned=gather/256/-/-", "cpu:threads=2,tuned=gather/128/-/-",
        "pool:tiles,tuned=-/-/128x64/-", "cpu:tuned=soa/-/-/compact:8",
        "cpu:tuned=datapath=gather", "pool:tiles,tuned=tile=64x64",
        "cpu:tuned=AUTO", "cpu:tuned=", "simd:tuned=bogus",
        "simd:tuned=auto/9", "serial:tuned=auto", "openmp:tuned=auto"}) {
    try {
      (void)BackendRegistry::create(spec);
      FAIL() << spec << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("tuned"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(Datapath, TunedAutoResolvesOncePlansAndRoundTrips) {
  Frame f;
  const auto backend = BackendRegistry::create("simd:threads=1,tuned=auto");
  EXPECT_EQ(backend->name(), "cpu:threads=1,datapath=soa,tuned=auto");
  const ExecutionPlan plan = backend->plan(f.ctx());
  // Resolved: the name is a plain cpu: spec naming the measured datapath.
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned="), std::string::npos) << resolved;
  EXPECT_EQ(resolved.rfind("cpu:threads=1,datapath=", 0), 0u) << resolved;
  backend->execute(plan, f.ctx());

  // The resolved spec is the whole record: it rebuilds the same plan.
  const auto again = BackendRegistry::create(resolved);
  EXPECT_EQ(again->name(), resolved);
  const ExecutionPlan replan = again->plan(f.ctx());
  EXPECT_EQ(replan.tiles(), plan.tiles());
  EXPECT_EQ(replan.kernel().key(), plan.kernel().key());
}

TEST(Datapath, PoolTunedAutoResolves) {
  Frame f;
  const auto backend =
      BackendRegistry::create("pool:tiles,threads=2,tuned=auto");
  const ExecutionPlan plan = backend->plan(f.ctx());
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned="), std::string::npos) << resolved;
  EXPECT_EQ(resolved.rfind("cpu:threads=2,tiles,tile=", 0), 0u) << resolved;
  const auto again = BackendRegistry::create(resolved);
  EXPECT_EQ(again->name(), resolved);
  EXPECT_EQ(again->plan(f.ctx()).tiles(), plan.tiles());
}

TEST(Datapath, TunedAutoNeverPicksALessExactDatapath) {
  // The candidates are the spec's own datapath and the exact gather, so a
  // tuned spec that names none never resolves to SoA, and its bytes are
  // the untuned spec's on a real map.
  const int w = 640, h = 480;
  const FisheyeCamera cam = FisheyeCamera::centered(
      LensKind::Equidistant, deg_to_rad(180.0), w, h);
  const PerspectiveView view(w, h, cam.lens().focal() * 0.5);
  const WarpMap map = build_map(cam, view);
  const img::Image8 src = random_image(w, h, 1, 95);
  const auto run = [&](const std::unique_ptr<Backend>& backend,
                       img::Image8& out) {
    ExecContext ctx;
    ctx.src = src.view();
    ctx.dst = out.view();
    ctx.map = map;
    const ExecutionPlan plan = backend->plan(ctx);
    backend->execute(plan, ctx);
  };
  for (const char* untuned : {"cpu:threads=1", "cpu:threads=1,map=packed"}) {
    img::Image8 want(w, h, 1), got(w, h, 1);
    run(BackendRegistry::create(untuned), want);
    const auto tuned =
        BackendRegistry::create(std::string(untuned) + ",tuned=auto");
    run(tuned, got);
    const std::string resolved = tuned->name();
    EXPECT_EQ(resolved.find("soa"), std::string::npos) << resolved;
    EXPECT_EQ(resolved.find("tuned="), std::string::npos) << resolved;
    EXPECT_EQ(count_mismatches(want, got), 0) << untuned << " -> " << resolved;
  }
}

TEST(Datapath, DescribeNamesKernelAndIsa) {
  Frame f;
  const auto backend = BackendRegistry::create("simd:threads=1");
  const ExecutionPlan plan = backend->plan(f.ctx());
  const std::string d = plan.describe();
  EXPECT_NE(d.find("cpu:threads=1,datapath=soa"), std::string::npos) << d;
  EXPECT_NE(d.find("float-lut"), std::string::npos) << d;
  EXPECT_NE(d.find(variant_name(plan.kernel().key().variant)),
            std::string::npos)
      << d;
  EXPECT_NE(d.find("isa="), std::string::npos) << d;
}

TEST(Datapath, GatherAvailabilityIsConsistent) {
  // gather_available() implies gather_compiled(); FISHEYE_FORCE_SCALAR
  // kills availability without touching compiledness.
  if (simd::gather_available()) {
    EXPECT_TRUE(simd::gather_compiled());
  }
  ASSERT_EQ(setenv("FISHEYE_FORCE_SCALAR", "1", 1), 0);
  EXPECT_FALSE(simd::gather_available());
  ASSERT_EQ(unsetenv("FISHEYE_FORCE_SCALAR"), 0);
}

}  // namespace
}  // namespace fisheye::core

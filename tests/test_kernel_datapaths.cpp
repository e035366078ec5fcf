// The AVX2 gather datapath vs the scalar reference, and the plan-time
// machinery around it: datapath=/tuned= spec options, effective-variant
// degrade (FISHEYE_FORCE_SCALAR, non-AVX2 hosts), the autotuner's
// resolve-once contract, and plan describability.
//
// Numerical contracts (simd/remap_gather.hpp): the packed and compact
// gather kernels run the SAME integer arithmetic as their scalar
// counterparts — bit-exact required; the float gather kernel quantizes
// bilinear weights to 8.8 fixed point — within one 8-bit level of scalar,
// and byte for byte equal to its own contract evaluated in the test. The
// float SoA kernel's pixels must not depend on rect offset or strip length
// (vector body and scalar remainder of pass 1 agree). All hold with or
// without AVX2 (the strip structure, not the ISA, defines the arithmetic),
// so this suite runs unconditionally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
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
      core::remap_rect(src.view(), a.view(), map, rect,
                       {Interp::Bilinear, img::BorderMode::Constant, 0});
      simd::remap_bilinear_gather(src.view(), b.view(), map, rect, 0,
                                  scratch);
      EXPECT_LE(max_abs_diff(a, b), 1)
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

TEST(GatherKernel, TightPitchLastRowIsSafeAndExact) {
  // pitch == width (single channel, 64-px-multiple row): the vector loop's
  // 4-byte gathers near the bottom-right corner must not read past the
  // buffer (the bot < total-3 lane check routes those through the scalar
  // fixup). ASan/valgrind guards the "safe" half; exactness is checked
  // here.
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
  img::Image8 a(w, h, 1), b(w, h, 1);
  core::remap_rect(src.view(), a.view(), map, {0, 0, w, h},
                   {Interp::Bilinear, img::BorderMode::Constant, 0});
  simd::SoaScratch scratch;
  simd::remap_bilinear_gather(src.view(), b.view(), map, {0, 0, w, h}, 0,
                              scratch);
  EXPECT_LE(max_abs_diff(a, b), 1);
}

TEST(GatherKernel, StripLengthDoesNotChangeResults) {
  const int w = 200, h = 48;
  const img::Image8 src = random_image(w, h, 1, 61);
  const WarpMap map = random_interior_map(w, h, w, h, 62);
  simd::SoaScratch scratch;
  img::Image8 ref(w, h, 1);
  simd::remap_bilinear_gather(src.view(), ref.view(), map, {0, 0, w, h}, 0,
                              scratch);
  for (const int strip : {8, 32, 100, 256, 100000}) {
    img::Image8 out(w, h, 1);
    simd::remap_bilinear_gather(src.view(), out.view(), map, {0, 0, w, h}, 0,
                                scratch, strip);
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << "strip=" << strip;
  }
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

/// remap_bilinear_gather's contract, evaluated per pixel: x0 = floor(sx),
/// ax = int((sx - x0) * 256 + 0.5) in float, valid iff 0 <= x0 < w - 1
/// (same for y), then the factored 8.8 blend rounded half-up; invalid
/// pixels get `fill`. Integer conversions run only on valid samples.
void gather_contract(const img::Image8& src, img::Image8& dst,
                     const WarpMap& map, par::Rect rect, std::uint8_t fill) {
  const int ch = src.channels();
  const auto last_x = static_cast<float>(src.width()) - 1.0f;
  const auto last_y = static_cast<float>(src.height()) - 1.0f;
  for (int y = rect.y0; y < rect.y1; ++y)
    for (int x = rect.x0; x < rect.x1; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * map.width + x;
      const float sx = map.src_x[i];
      const float sy = map.src_y[i];
      const float fx = std::floor(sx);
      const float fy = std::floor(sy);
      std::uint8_t* o = dst.row(y) + static_cast<std::size_t>(x) * ch;
      if (!(fx >= 0.0f && fy >= 0.0f && fx < last_x && fy < last_y)) {
        for (int c = 0; c < ch; ++c) o[c] = fill;
        continue;
      }
      const int x0 = static_cast<int>(fx);
      const int y0 = static_cast<int>(fy);
      const float tx = (sx - fx) * 256.0f;
      const float ty = (sy - fy) * 256.0f;
      const int ax = static_cast<int>(tx + 0.5f);
      const int ay = static_cast<int>(ty + 0.5f);
      const std::uint8_t* r0 = src.row(y0) + static_cast<std::size_t>(x0) * ch;
      const std::uint8_t* r1 = src.row(y0 + 1) + static_cast<std::size_t>(x0) * ch;
      for (int c = 0; c < ch; ++c) {
        const int t0 = (256 - ax) * r0[c] + ax * r0[ch + c];
        const int t1 = (256 - ax) * r1[c] + ax * r1[ch + c];
        const int v = (256 - ay) * t0 + ay * t1;
        o[c] = static_cast<std::uint8_t>((v + (1 << 15)) >> 16);
      }
    }
}

int count_mismatches(const img::Image8& a, const img::Image8& b) {
  int bad = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width() * a.channels(); ++x)
      bad += a.row(y)[x] != b.row(y)[x];
  return bad;
}

TEST(GatherKernel, FloatMatchesItsContractByteForByteOnSaltedMaps) {
  // 181 wide pads the pitch; 128 wide single-channel is a tight pitch, so
  // the last row's dword reads hit the buffer-end fixup path.
  for (const int ch : {1, 3}) {
    for (const auto& [w, h] : {std::pair{181, 67}, std::pair{128, 40}}) {
      const img::Image8 src = random_image(w, h, ch, 71);
      const WarpMap map = salted_map(w, h, w, h, 72 + ch);
      util::Rng rng(73);
      simd::SoaScratch scratch;
      std::vector<par::Rect> rects{{0, 0, w, h}};
      for (int r = 0; r < 12; ++r) rects.push_back(odd_rect(w, h, rng));
      for (const par::Rect& rect : rects)
        for (const int strip : {8, 13, 256}) {
          img::Image8 want(w, h, ch), got(w, h, ch);
          want.fill(200);
          got.fill(200);
          gather_contract(src, want, map, rect, 7);
          simd::remap_bilinear_gather(src.view(), got.view(), map, rect, 7,
                                      scratch, strip);
          EXPECT_EQ(count_mismatches(want, got), 0)
              << "ch=" << ch << " w=" << w << " strip=" << strip
              << " rect=(" << rect.x0 << ',' << rect.y0 << ',' << rect.x1
              << ',' << rect.y1 << ')';
        }
    }
  }
}

TEST(SoaKernel, FloatPixelIsIndependentOfRectOffsetAndStrip) {
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
      for (const int strip : {8, 13, 256}) {
        img::Image8 want(w, h, ch), got(w, h, ch);
        want.fill(200);
        got.fill(200);
        for (int y = rect.y0; y < rect.y1; ++y)
          std::copy(ref.row(y) + static_cast<std::size_t>(rect.x0) * ch,
                    ref.row(y) + static_cast<std::size_t>(rect.x1) * ch,
                    want.row(y) + static_cast<std::size_t>(rect.x0) * ch);
        simd::remap_bilinear_soa(src.view(), got.view(), map, rect, 7,
                                 scratch, strip);
        EXPECT_EQ(count_mismatches(want, got), 0)
            << "ch=" << ch << " strip=" << strip << " rect=(" << rect.x0
            << ',' << rect.y0 << ',' << rect.x1 << ',' << rect.y1 << ')';
      }
    }
  }
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
    c.map = &map;
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
  ASSERT_EQ(setenv("FISHEYE_FORCE_SCALAR", "1", 1), 0);
  Frame f;
  for (const char* spec :
       {"simd:threads=1,datapath=gather", "simd:threads=1"}) {
    const auto backend = BackendRegistry::create(spec);
    const ExecutionPlan plan = backend->plan(f.ctx());
    EXPECT_EQ(plan.kernel().key().variant, KernelVariant::Scalar) << spec;
  }
  ASSERT_EQ(unsetenv("FISHEYE_FORCE_SCALAR"), 0);
  // And fresh plans pick the SIMD paths back up (read per call, not
  // latched at startup).
  const auto backend = BackendRegistry::create("simd:threads=1");
  EXPECT_EQ(backend->plan(f.ctx()).kernel().key().variant,
            KernelVariant::SimdSoa);
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
  for (const char* spec :
       {"simd:tuned=bogus", "simd:tuned=auto/9", "pool:tuned=gather/x/-/-",
        "simd:tuned=gather/128/64/-", "simd:tuned=-/-/-/martian"}) {
    try {
      (void)BackendRegistry::create(spec);
      FAIL() << spec << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("tuned="), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(Datapath, ExplicitTunedTokenRoundTrips) {
  const auto backend =
      BackendRegistry::create("simd:threads=1,tuned=gather/128/-/-");
  EXPECT_NE(backend->name().find("tuned=gather/128/-/-"), std::string::npos)
      << backend->name();
  const auto again = BackendRegistry::create(backend->name());
  EXPECT_EQ(again->name(), backend->name());
}

TEST(Datapath, TunedAutoResolvesOncePlansAndRoundTrips) {
  AutotuneCache::instance().clear();
  Frame f;
  const auto backend = BackendRegistry::create("simd:threads=1,tuned=auto");
  EXPECT_NE(backend->name().find("tuned=auto"), std::string::npos);
  const ExecutionPlan plan = backend->plan(f.ctx());
  // Resolved: the name now carries the measured winner, not "auto".
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned=auto"), std::string::npos) << resolved;
  EXPECT_NE(resolved.find("tuned="), std::string::npos) << resolved;
  EXPECT_EQ(AutotuneCache::instance().stats().stores, 1u);
  backend->execute(plan, f.ctx());

  // The resolved token reconstructs the same backend without measuring.
  const auto again = BackendRegistry::create(resolved);
  EXPECT_EQ(again->name(), resolved);
  (void)again->plan(f.ctx());
  EXPECT_EQ(AutotuneCache::instance().stats().stores, 1u);

  // A second tuned=auto instance of the same shape hits the cache.
  const auto third = BackendRegistry::create("simd:threads=1,tuned=auto");
  (void)third->plan(f.ctx());
  const auto stats = AutotuneCache::instance().stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(third->name(), resolved);
}

TEST(Datapath, PoolTunedAutoResolves) {
  AutotuneCache::instance().clear();
  Frame f;
  const auto backend =
      BackendRegistry::create("pool:tiles,threads=2,tuned=auto");
  (void)backend->plan(f.ctx());
  const std::string resolved = backend->name();
  EXPECT_EQ(resolved.find("tuned=auto"), std::string::npos) << resolved;
  const auto again = BackendRegistry::create(resolved);
  EXPECT_EQ(again->name(), resolved);
}

TEST(Datapath, DescribeNamesKernelAndIsa) {
  Frame f;
  const auto backend = BackendRegistry::create("simd:threads=1");
  const ExecutionPlan plan = backend->plan(f.ctx());
  const std::string d = plan.describe();
  EXPECT_NE(d.find("simd:threads=1"), std::string::npos) << d;
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

// Standalone probes of the core, kernel and memory layers.
//
// All single-threaded at the frame1080 geometry. The kernel probe calls
// each catalogue entry's tile function directly over the whole frame, so
// no backend, pool or instrumentation is in the way; bytes per pixel are
// computed from estimate_bytes_in/out (an analytic count, not measured
// traffic). The roofline ceiling is a memcpy whose read + write volume
// equals the float-map kernel's working set — small enough to stay in a
// large shared L3, so it is an L3-resident ceiling, not DRAM bandwidth.
#include <unistd.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/corrector.hpp"
#include "core/kernel.hpp"
#include "trace.hpp"
#include "util/aligned.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace fisheye;

template <class Fn>
double time_ms(const char* span, Fn&& fn) {
  const std::int64_t t0 = trace::now_ns();
  fn();
  const std::int64_t t1 = trace::now_ns();
  trace::record(span, t0, t1);
  return static_cast<double>(t1 - t0) / 1e6;
}

struct MapDef {
  const char* name;
  core::MapMode mode;
};

constexpr MapDef kMaps[] = {{"float", core::MapMode::FloatLut},
                            {"packed", core::MapMode::PackedLut},
                            {"compact", core::MapMode::CompactLut}};

struct PathDef {
  const char* name;
  core::KernelVariant variant;
};

constexpr PathDef kPaths[] = {{"scalar", core::KernelVariant::Scalar},
                              {"soa", core::KernelVariant::SimdSoa},
                              {"gather", core::KernelVariant::SimdGather}};

/// Serial correct(prepared) minus the bare kernel call over the same single
/// tile. A small frame keeps the kernel short, so the difference — dispatch
/// plus per-tile instrumentation — is not lost in kernel-time noise.
double exec_overhead_us(std::uint64_t seed) {
  const int w = 96, h = 54;
  const std::vector<img::Image8> in = make_frames(w, h, 120.0, 1, seed);
  img::Image8 out(w, h, 1);
  const core::Corrector corr(
      core::Corrector::builder(w, h).fov_degrees(120.0).config());
  core::SerialBackend serial;
  const core::Corrector::Prepared prepared = corr.prepare(serial, 1);
  const core::ResolvedKernel& kern = prepared.plan.kernel();
  std::vector<double> diff_us;
  for (int rep = 0; rep < 3000; ++rep) {
    const std::int64_t t0 = trace::now_ns();
    corr.correct(prepared, in[0].cview(), out.view());
    const std::int64_t t1 = trace::now_ns();
    kern(in[0].cview(), out.view(), {0, 0, w, h});
    const std::int64_t t2 = trace::now_ns();
    diff_us.push_back(static_cast<double>((t1 - t0) - (t2 - t1)) / 1e3);
  }
  return median(diff_us);
}

}  // namespace

Metrics run_layer_probes(std::uint64_t seed) {
  Metrics L;
  const int px = kFrameW * kFrameH;
  const std::vector<img::Image8> in =
      make_frames(kFrameW, kFrameH, 180.0, 1, seed);
  img::Image8 out(kFrameW, kFrameH, 1);

  // --- core: map build, pack, compact ------------------------------------
  std::unique_ptr<core::Corrector> corr;
  std::vector<double> build_ms, pack_ms, compact_ms;
  std::optional<core::PackedMap> packed;
  std::optional<core::CompactMap> compact;
  for (int rep = 0; rep < 3; ++rep) {
    corr.reset();
    build_ms.push_back(time_ms("map.build", [&] {
      corr = std::make_unique<core::Corrector>(
          core::Corrector::builder(kFrameW, kFrameH)
              .fov_degrees(180.0)
              .config());
    }));
    pack_ms.push_back(time_ms("map.pack", [&] {
      packed = core::pack_map(*corr->map(), kFrameW, kFrameH, 14);
    }));
    compact_ms.push_back(time_ms("map.compact", [&] {
      compact = core::compact_map(*corr->map(), kFrameW, kFrameH, 8, 14);
    }));
  }
  L.set("core.map_build_ms", median(build_ms), "ms");
  L.set("core.pack_ms", median(pack_ms), "ms");
  L.set("core.compact_ms", median(compact_ms), "ms");
  L.set("core.exec_overhead_us", exec_overhead_us(seed), "us");

  // --- mem: copy ceiling at the float kernel's working-set size ----------
  const core::ExecContext base = corr->make_context(in[0].cview(), out.view());
  const std::size_t ws =
      core::estimate_bytes_in(base) + core::estimate_bytes_out(base);
  util::AlignedBuffer<std::uint8_t> a(ws / 2), b(ws / 2);
  std::memset(a.data(), 1, ws / 2);
  std::vector<double> copy_s;
  for (int rep = 0; rep < 17; ++rep) {
    const double ms =
        time_ms("mem.copy", [&] { std::memcpy(b.data(), a.data(), ws / 2); });
    if (rep >= 2) copy_s.push_back(ms / 1e3);
  }
  const double copy_gbps = static_cast<double>(ws) / median(copy_s) / 1e9;
  L.set("mem.copy_gbps", copy_gbps, "GB/s");
  L.set("mem.copy_ws_mb", static_cast<double>(ws) / 1e6, "MB");
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  L.set("mem.l3_mb", l3 > 0 ? static_cast<double>(l3) / (1 << 20) : 0.0, "MiB");

  // --- kernel: every bilinear catalogue entry, single thread -------------
  for (const MapDef& m : kMaps) {
    core::ExecContext ctx = base;
    ctx.mode = m.mode;
    ctx.packed = m.mode == core::MapMode::PackedLut ? &*packed : nullptr;
    ctx.compact = m.mode == core::MapMode::CompactLut ? &*compact : nullptr;
    const double bytes_px =
        static_cast<double>(core::estimate_bytes_in(ctx) +
                            core::estimate_bytes_out(ctx)) /
        px;
    L.set(std::string("kernel.bytes_px.") + m.name, bytes_px, "B/px");
    for (const PathDef& p : kPaths) {
      const core::KernelKey key{m.mode, core::Interp::Bilinear,
                                img::BorderMode::Constant,
                                core::PixelLayout::InterleavedU8, p.variant};
      if (!core::kernel_supported(key)) continue;
      const core::ResolvedKernel kern = core::resolve_kernel(ctx, p.variant);
      if (kern.key().variant != p.variant) continue;  // degraded on this host
      std::vector<double> ms;
      for (int rep = 0; rep < 8; ++rep) {
        const double t = time_ms("kernel", [&] {
          kern(in[0].cview(), out.view(), {0, 0, kFrameW, kFrameH});
        });
        if (rep > 0) ms.push_back(t);
      }
      const double s = median(ms) / 1e3;
      const std::string suffix = std::string(m.name) + "." + p.name;
      const double gbps = bytes_px * px / s / 1e9;
      L.set("kernel.ns_px." + suffix, s / px * 1e9, "ns/px");
      L.set("kernel.gbps." + suffix, gbps, "GB/s");
      L.set("kernel.pct_ceiling." + suffix, gbps / copy_gbps * 100.0, "%");
    }
  }
  return L;
}

}  // namespace pb

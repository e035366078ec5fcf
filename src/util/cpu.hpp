// Runtime CPU capability report used by the bench harness headers so that
// every printed table records the hardware it ran on.
#pragma once

#include <string>

namespace fisheye::util {

struct CpuInfo {
  unsigned hardware_threads = 1;
  bool sse2 = false;
  bool avx2 = false;
  bool avx512f = false;
  bool fma = false;

  /// One-line human-readable summary, e.g. "8 threads, avx2+fma".
  [[nodiscard]] std::string summary() const;

  /// Compact ISA token, e.g. "sse2+avx2+fma", or "scalar" when the CPU
  /// reports none of the probed extensions. Stamped into plan debug
  /// strings and bench JSON rows so every recorded number names the
  /// hardware datapath that produced it.
  [[nodiscard]] std::string isa() const;
};

/// Query the executing CPU (cached after the first call).
const CpuInfo& cpu_info() noexcept;

/// True when the FISHEYE_FORCE_SCALAR environment variable is set to a
/// non-empty value other than "0": a kill switch that makes kernel
/// resolution degrade every SIMD variant to the scalar datapath (and the
/// fallback path CI exercises without non-AVX2 hardware). Read fresh on
/// every call so tests can flip it around individual plans.
[[nodiscard]] bool force_scalar() noexcept;

}  // namespace fisheye::util

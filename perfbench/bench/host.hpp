// Host facts stamped into every result set, and the result-set writer.
// The comparison tool refuses to compare result sets whose host facts
// differ, so numbers from different machines never mix.
#pragma once

#include <string>

#include "common.hpp"

namespace pb {

struct HostFacts {
  unsigned nproc = 0;       ///< CPUs this process may run on
  std::string isa;          ///< util::cpu_info().isa()
  std::string cpu;          ///< util::cpu_info().summary()
  std::string build_type;   ///< CMake build type of this binary
  std::string compiler;
};

[[nodiscard]] HostFacts host_facts();

/// The metrics object {"name": {"value": v, "unit": u}, ...}.
[[nodiscard]] std::string json_metrics(const Metrics& m);

/// Write one result set record: workload, seed, host facts, resolved plans,
/// counts and metrics. Returns false on I/O failure.
bool write_result_file(const std::string& path, const std::string& workload,
                       std::uint64_t seed, double seconds, bool traced,
                       const HostFacts& host, const Result& res,
                       const Metrics& metrics);

}  // namespace pb

#include "host.hpp"

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "util/cpu.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

HostFacts host_facts() {
  HostFacts h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : std::thread::hardware_concurrency();
  h.isa = fisheye::util::cpu_info().isa();
  h.cpu = fisheye::util::cpu_info().summary();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = __VERSION__;
  return h;
}

namespace {

/// JSON text of a finite number with all its digits.
std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

}  // namespace

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const Metric& x : m.all()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(x.name) + ": {\"value\": " + json_number(x.value) +
           ", \"unit\": " + json_string(x.unit) + "}";
  }
  return out + "}";
}

bool write_result_file(const std::string& path, const std::string& workload,
                       std::uint64_t seed, double seconds, bool traced,
                       const HostFacts& host, const Result& res,
                       const Metrics& metrics) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"workload\": " << json_string(workload)
    << ",\n  \"seed\": " << seed << ",\n  \"seconds\": " << json_number(seconds)
    << ",\n  \"trace\": " << (traced ? 1 : 0) << ",\n  \"host\": {\"nproc\": "
    << host.nproc << ", \"isa\": " << json_string(host.isa)
    << ", \"cpu\": " << json_string(host.cpu)
    << ", \"build_type\": " << json_string(host.build_type)
    << ", \"compiler\": " << json_string(host.compiler) << "},\n  \"plans\": {";
  for (std::size_t i = 0; i < res.plans.size(); ++i)
    f << (i ? ", " : "") << json_string(res.plans[i].first) << ": "
      << json_string(res.plans[i].second);
  f << "},\n  \"attempted\": " << res.attempted
    << ",\n  \"failed\": " << res.failed
    << ",\n  \"metrics\": " << json_metrics(metrics) << "\n}\n";
  return static_cast<bool>(f);
}

}  // namespace pb

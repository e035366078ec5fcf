// perfbench — the repository benchmark program.
//
//   perfbench --workload <frame1080|streams8|ptz_zipf|ptz_pan> --seed N
//             --seconds S --trace 0|1 [--trace-file PATH] [--result-file PATH]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs it twice for S/2 each, untraced then traced (the difference
// is trace.overhead_pct), adds short traced passes of the workloads owning
// the layers this one does not exercise plus the standalone core/kernel/mem
// probes, and reports the per-layer metrics; the recorded spans are written
// as Chrome trace-event JSON to --trace-file.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "host.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using pb::Result;
using pb::RunOptions;

struct WorkloadEntry {
  const char* name;
  Result (*run)(const RunOptions&);
  const char* group;  ///< layers owned: workloads sharing a group share them
};

const WorkloadEntry kWorkloads[] = {
    {"frame1080", &pb::run_frame1080, "frame"},
    {"streams8", &pb::run_streams8, "stream"},
    {"ptz_zipf", &pb::run_ptz_zipf, "serve"},
    {"ptz_pan", &pb::run_ptz_pan, "serve"},
};

constexpr double kSidePassSeconds = 1.5;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload frame1080|streams8|ptz_zipf|"
               "ptz_pan --seed N --seconds S --trace 0|1 [--trace-file PATH]"
               " [--result-file PATH]\n";
  std::exit(2);
}

void add_counts(Result& into, const Result& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
}

/// One traced pass; its spans are appended to `spans`.
Result traced_pass(const WorkloadEntry& w, const RunOptions& base,
                   double seconds, std::vector<pb::trace::Span>& spans) {
  RunOptions opt = base;
  opt.seconds = seconds;
  opt.traced = true;
  opt.setup_reps = 1;
  opt.setup_seconds = 0.0;
  pb::trace::clear();
  pb::trace::set_enabled(true);
  Result r = w.run(opt);
  pb::trace::set_enabled(false);
  const std::vector<pb::trace::Span> s = pb::trace::collect();
  spans.insert(spans.end(), s.begin(), s.end());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_file, result_file;
  long long seed = -1;
  double seconds = 0.0;
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") workload = val;
    else if (arg == "--seed") seed = std::atoll(val.c_str());
    else if (arg == "--seconds") seconds = std::atof(val.c_str());
    else if (arg == "--trace") trace_flag = std::atoi(val.c_str());
    else if (arg == "--trace-file") trace_file = val;
    else if (arg == "--result-file") result_file = val;
    else usage("unknown argument " + arg);
  }
  const WorkloadEntry* self = nullptr;
  for (const WorkloadEntry& w : kWorkloads)
    if (workload == w.name) self = &w;
  if (self == nullptr) usage("unknown workload '" + workload + "'");
  if (seed < 0) usage("--seed must be a non-negative integer");
  if (!(seconds > 0.0)) usage("--seconds must be positive");
  if (trace_flag != 0 && trace_flag != 1) usage("--trace must be 0 or 1");

  RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.seconds = seconds;
  const bool traced = trace_flag == 1;
  const pb::HostFacts host = pb::host_facts();

  Result total;
  pb::Metrics metrics;
  try {
    if (!traced) {
      total = self->run(opt);
      metrics = total.e2e;
    } else {
      std::vector<pb::trace::Span> spans;
      RunOptions plain = opt;
      plain.seconds = seconds / 2;
      plain.setup_reps = 1;
      plain.setup_seconds = 0.0;
      const Result untraced = self->run(plain);
      const Result own = traced_pass(*self, opt, seconds / 2, spans);
      total.plans = own.plans;
      add_counts(total, untraced);
      add_counts(total, own);
      metrics = own.layer;
      metrics.set("trace.overhead_pct",
                  (untraced.e2e.get("mpx_s") / own.e2e.get("mpx_s") - 1.0) *
                      100.0,
                  "%");
      const std::string group = self->group;
      std::vector<std::string> done{group};
      for (const WorkloadEntry& w : kWorkloads) {
        bool seen = false;
        for (const std::string& g : done) seen = seen || g == w.group;
        if (seen) continue;
        done.emplace_back(w.group);
        const Result side = traced_pass(w, opt, kSidePassSeconds, spans);
        add_counts(total, side);
        metrics.merge_missing(side.layer);
      }
      pb::trace::clear();
      pb::trace::set_enabled(true);
      metrics.merge_missing(pb::run_layer_probes(opt.seed));
      pb::trace::set_enabled(false);
      const std::vector<pb::trace::Span> s = pb::trace::collect();
      spans.insert(spans.end(), s.begin(), s.end());
      metrics.set("trace.spans", static_cast<double>(spans.size()), "count");
      if (!trace_file.empty() && !pb::trace::write_chrome(trace_file, spans)) {
        std::cerr << "perfbench: cannot write " << trace_file << '\n';
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << '\n';
    return 1;
  }

  for (const pb::Metric& m : metrics.all()) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      return 1;
    }
  }

  std::cout << "host: nproc=" << host.nproc << " isa=" << host.isa
            << " build=" << host.build_type << " (" << host.cpu << ")\n";
  for (const auto& [spec, desc] : total.plans)
    std::cout << "plan " << spec << ": " << desc << '\n';
  for (const pb::Metric& m : metrics.all())
    std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';

  if (!result_file.empty() &&
      !pb::write_result_file(result_file, workload, opt.seed, seconds, traced,
                             host, total, metrics)) {
    std::cerr << "perfbench: cannot write " << result_file << '\n';
    return 1;
  }
  std::cout << "{\"correct\": " << (total.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << total.attempted
            << ", \"failed\": " << total.failed
            << ", \"metrics\": " << pb::json_metrics(metrics) << "}"
            << std::endl;
  return 0;
}

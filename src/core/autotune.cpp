#include "core/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <utility>

#include "core/camera.hpp"
#include "core/projection.hpp"
#include "runtime/timer.hpp"
#include "util/cpu.hpp"

namespace fisheye::core {

namespace {

const char* cache_file() {
  const char* path = std::getenv("FISHEYE_TUNE_CACHE");
  return (path != nullptr && path[0] != '\0') ? path : nullptr;
}

/// First line of every cache file. A file that does not start with exactly
/// this token — older format, different tool, truncation that ate the
/// header, binary garbage — is ignored wholesale and rewritten on the next
/// store(); decisions are cheap to re-measure and must never be poisoned.
/// Version 2 stores candidate labels ("datapath=gather", "tile=64x64").
constexpr const char* kDiskFormatTag = "fisheye-tune-cache/2";

/// A stored label is non-empty printable ASCII without spaces: what
/// candidates are named, so anything else is a damaged line.
bool plausible_label(const std::string& label) {
  return !label.empty() &&
         std::all_of(label.begin(), label.end(),
                     [](char c) { return c > ' ' && c <= '~'; });
}

}  // namespace

AutotuneCache& AutotuneCache::instance() {
  static AutotuneCache cache;
  return cache;
}

void AutotuneCache::load_disk_locked() {
  if (disk_loaded_) return;
  disk_loaded_ = true;
  const char* path = cache_file();
  if (path == nullptr) return;
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || line != kDiskFormatTag) return;
  // A hand-edited, torn or stale line never breaks tuning: it is skipped
  // here, or (a label no candidate carries any more) re-measured by
  // autotune_select.
  while (std::getline(in, line)) {
    if (in.eof()) break;  // the last line lost its newline: a torn write
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0) continue;
    std::string label = line.substr(tab + 1);
    if (!plausible_label(label)) continue;
    entries_.insert_or_assign(line.substr(0, tab), std::move(label));
  }
}

std::optional<std::string> AutotuneCache::lookup(const std::string& key) {
  const std::scoped_lock lock(mu_);
  load_disk_locked();
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void AutotuneCache::store(const std::string& key, const std::string& label) {
  const std::scoped_lock lock(mu_);
  load_disk_locked();
  entries_.insert_or_assign(key, label);
  ++stats_.stores;
  if (const char* path = cache_file()) {
    // Rewrite the whole file: it holds a handful of lines and rewriting
    // keeps it free of superseded duplicates (and repairs any corrupt or
    // version-skewed file the load pass ignored).
    std::ofstream out(path, std::ios::trunc);
    out << kDiskFormatTag << '\n';
    for (const auto& [k, v] : entries_) out << k << '\t' << v << '\n';
  }
}

void AutotuneCache::reload_disk() {
  const std::scoped_lock lock(mu_);
  entries_.clear();
  stats_ = Stats{};
  disk_loaded_ = false;
  load_disk_locked();
}

void AutotuneCache::clear() {
  const std::scoped_lock lock(mu_);
  entries_.clear();
  stats_ = Stats{};
  // Keep disk_loaded_: clear() means "forget decisions", not "reload".
}

AutotuneCache::Stats AutotuneCache::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

std::string autotune_cache_key(const ExecContext& ctx,
                               const std::string& base_spec) {
  std::string key = util::cpu_info().isa();
  key += '|';
  key += std::to_string(ctx.src.width) + 'x' + std::to_string(ctx.src.height) +
         'c' + std::to_string(ctx.src.channels);
  key += "->";
  key += std::to_string(ctx.dst.width) + 'x' + std::to_string(ctx.dst.height);
  key += '|';
  key += map_mode_name(ctx.mode);
  // Lens/view model identity: tuned decisions for one camera model must not
  // be replayed for another — the on-the-fly datapath's cost depends on the
  // model's inversion, and even LUT-mode maps differ in access pattern.
  if (ctx.camera != nullptr) {
    key += '|';
    key += ctx.camera->lens().name();
  }
  if (ctx.view != nullptr) {
    key += '|';
    key += ctx.view->name();
  }
  key += '|';
  key += base_spec;
  return key;
}

std::optional<CpuOptions> autotune_select(
    const ExecContext& ctx, const std::string& cache_key,
    const std::vector<AutotuneCandidate>& candidates,
    const AutotunePlanFn& plan_fn, const AutotuneExecFn& exec_fn, int warmup,
    int frames) {
  if (candidates.empty()) return std::nullopt;
  if (const auto label = AutotuneCache::instance().lookup(cache_key)) {
    for (const AutotuneCandidate& cand : candidates)
      if (cand.label == *label) return cand.options;
  }

  // Synthesized measurement frames: the caller's views may be null at plan
  // time, and probing must never write a caller's real output frame. A
  // diagonal gradient keeps the gathers on realistic (non-constant)
  // addresses without costing a map evaluation.
  img::Image8 src(ctx.src.width, ctx.src.height, ctx.src.channels);
  img::Image8 dst(ctx.dst.width, ctx.dst.height, ctx.src.channels);
  for (int y = 0; y < src.height(); ++y) {
    std::uint8_t* row = src.row(y);
    const std::size_t n =
        static_cast<std::size_t>(src.width()) * src.channels();
    for (std::size_t i = 0; i < n; ++i)
      row[i] = static_cast<std::uint8_t>((i + static_cast<std::size_t>(y)) &
                                         0xFF);
  }
  ExecContext mctx = ctx;
  mctx.src = src.cview();
  mctx.dst = dst.view();

  struct Scored {
    const AutotuneCandidate* cand = nullptr;
    ExecutionPlan plan;
    double seconds = std::numeric_limits<double>::infinity();
  };
  const auto probe = [&](Scored& s, int n) {
    for (int i = 0; i < n; ++i) {
      const rt::Stopwatch sw;
      exec_fn(s.plan, mctx);
      s.seconds = std::min(s.seconds, sw.elapsed_seconds());
    }
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const AutotuneCandidate& cand : candidates) {
    Scored s;
    s.cand = &cand;
    try {
      s.plan = plan_fn(mctx, cand.options);
      for (int i = 0; i < warmup; ++i) exec_fn(s.plan, mctx);
      probe(s, frames);
    } catch (const std::exception&) {
      continue;  // infeasible candidate (unsupported kernel point, ...)
    }
    scored.push_back(std::move(s));
  }
  if (scored.empty()) return std::nullopt;
  // Runoff between the top two: a single preemption spike during a
  // candidate's probe window is enough to crown the wrong winner, and a
  // wrong lock-in is paid on every subsequent frame. Re-probing only the
  // finalists keeps total probe cost ~O(candidates), not 2x.
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.seconds < b.seconds;
            });
  const std::size_t finalists = std::min<std::size_t>(2, scored.size());
  for (std::size_t i = 0; i < finalists; ++i) {
    try {
      probe(scored[i], frames);
    } catch (const std::exception&) {
      scored[i].seconds = std::numeric_limits<double>::infinity();
    }
  }
  const auto winner = std::min_element(
      scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(finalists),
      [](const Scored& a, const Scored& b) { return a.seconds < b.seconds; });
  if (!std::isfinite(winner->seconds)) return std::nullopt;
  AutotuneCache::instance().store(cache_key, winner->cand->label);
  return winner->cand->options;
}

}  // namespace fisheye::core

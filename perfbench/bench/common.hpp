// Shared vocabulary of the benchmark program: run options, the metric
// container every workload fills, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "image/image.hpp"

namespace pb {

/// How one workload function is asked to run.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget of this pass
  bool traced = false;    ///< record spans and compute per-layer metrics
  /// Set-up repeats at least `setup_reps` times, and more (up to 50) until
  /// the repetitions add up to `setup_seconds`; setup_s is their median.
  int setup_reps = 5;
  double setup_seconds = 1.0;
};

/// True while another set-up repetition is due under `opt`.
[[nodiscard]] bool more_setups(const RunOptions& opt,
                               const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric set.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  /// Copy every metric of `other` whose name is not present yet.
  void merge_missing(const Metrics& other);
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return items_;
  }

 private:
  std::vector<Metric> items_;
};

/// What one workload pass reports. `plans` holds (spec, describe()) pairs
/// of every execution plan the pass ran, stamped into the result set.
struct Result {
  Metrics e2e;
  Metrics layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> plans;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v` (copied, then sorted).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Length of the windows end-to-end statistics are taken over. Each window
/// gives its own percentile or rate, and the run reports the value of its
/// faster windows — the quartile of window values on the good side — so
/// the slow phases a shared host goes through decide as little as possible.
inline constexpr double kWindowSeconds = 2.5;

/// First quartile, over the non-empty `windows`, of each window's
/// q-quantile (for times, where lower is better).
[[nodiscard]] double fast_windows(
    const std::vector<std::vector<double>>& windows, double q);

/// Third quartile of per-window rates (for rates, where higher is better).
[[nodiscard]] inline double fast_rate(std::vector<double> per_window) {
  return quantile(std::move(per_window), 0.75);
}
[[nodiscard]] double geomean(const std::vector<double>& v);

/// Peak resident set of this process so far, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Deterministic gray fisheye frames (equidistant 180 degrees) of the
/// synthetic street scene, at scene times chosen by `seed`.
[[nodiscard]] std::vector<fisheye::img::Image8> make_frames(
    int width, int height, double fov_deg, int count, std::uint64_t seed);

/// Largest absolute per-sample difference between two equal-shape images.
[[nodiscard]] int max_abs_diff(fisheye::img::ConstImageView<std::uint8_t> a,
                               fisheye::img::ConstImageView<std::uint8_t> b);

}  // namespace pb

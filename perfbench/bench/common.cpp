#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/camera.hpp"
#include "util/rng.hpp"
#include "video/pipeline.hpp"

namespace pb {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double Metrics::get(const std::string& name) const {
  for (const Metric& m : items_)
    if (m.name == name) return m.value;
  return 0.0;
}

void Metrics::merge_missing(const Metrics& other) {
  for (const Metric& m : other.items_)
    if (!has(m.name)) items_.push_back(m);
}

bool more_setups(const RunOptions& opt, const std::vector<double>& samples) {
  double total = 0.0;
  for (const double x : samples) total += x;
  const auto n = static_cast<int>(samples.size());
  return n < opt.setup_reps || (total < opt.setup_seconds && n < 50);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double fast_windows(const std::vector<std::vector<double>>& windows,
                    double q) {
  std::vector<double> per;
  for (const std::vector<double>& w : windows)
    if (!w.empty()) per.push_back(quantile(w, q));
  return quantile(std::move(per), 0.25);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<fisheye::img::Image8> make_frames(int width, int height,
                                              double fov_deg, int count,
                                              std::uint64_t seed) {
  using namespace fisheye;
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, fov_deg * 3.14159265358979323846 / 180.0,
      width, height);
  const video::SyntheticVideoSource source(cam, width, height, 1);
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<img::Image8> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    frames.push_back(source.frame(static_cast<int>(rng.next_below(900))));
  return frames;
}

int max_abs_diff(fisheye::img::ConstImageView<std::uint8_t> a,
                 fisheye::img::ConstImageView<std::uint8_t> b) {
  int worst = 0;
  const int n = a.width * a.channels;
  for (int y = 0; y < a.height; ++y) {
    const std::uint8_t* ra = a.row(y);
    const std::uint8_t* rb = b.row(y);
    int row_worst = 0;
    for (int x = 0; x < n; ++x)
      row_worst = std::max(row_worst, std::abs(int{ra[x]} - int{rb[x]}));
    worst = std::max(worst, row_worst);
  }
  return worst;
}

}  // namespace pb

#include "stitch/stitcher.hpp"

#include <cmath>

#include "core/interp.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/matrix.hpp"

namespace fisheye::stitch {

PanoramaStitcher::PanoramaStitcher(std::vector<RigCamera> rig, int out_width,
                                   int out_height, double hfov, double vfov,
                                   BlendMode blend)
    : PanoramaStitcher(
          std::move(rig),
          core::EquirectangularView(out_width, out_height, hfov, vfov),
          blend) {}

PanoramaStitcher::PanoramaStitcher(std::vector<RigCamera> rig,
                                   const core::ViewProjection& view,
                                   BlendMode blend)
    : rig_(std::move(rig)),
      out_width_(view.width()),
      out_height_(view.height()),
      blend_(blend) {
  FE_EXPECTS(!rig_.empty());
  FE_EXPECTS(out_width_ > 1 && out_height_ > 1);
  for (const RigCamera& rc : rig_)
    FE_EXPECTS(rc.frame_width > 0 && rc.frame_height > 0);

  const std::size_t px =
      static_cast<std::size_t>(out_width_) * out_height_;
  maps_.resize(rig_.size());
  weights_.resize(rig_.size());
  for (std::size_t c = 0; c < rig_.size(); ++c) {
    maps_[c].width = out_width_;
    maps_[c].height = out_height_;
    maps_[c].src_x.assign(px, -1.0e9f);
    maps_[c].src_y.assign(px, -1.0e9f);
    weights_[c].assign(px, 0.0f);
  }

  // Per camera: project every output ray; weight by angular distance from
  // the camera axis with a cosine feather that reaches zero at the lens
  // field edge.
  for (std::size_t c = 0; c < rig_.size(); ++c) {
    const RigCamera& rc = rig_[c];
    const util::Mat3 cam_from_world = rc.world_from_cam.transposed();
    const double theta_max =
        std::min(rc.camera.lens().max_theta(), util::kHalfPi);
    for (int y = 0; y < out_height_; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * out_width_;
      for (int x = 0; x < out_width_; ++x) {
        const util::Vec3 world = view.ray_for_pixel(
            {static_cast<double>(x), static_cast<double>(y)});
        const util::Vec3 cam_ray = cam_from_world * world;
        if (cam_ray.z <= 0.0 && std::hypot(cam_ray.x, cam_ray.y) == 0.0)
          continue;  // straight behind
        const double theta =
            std::atan2(std::hypot(cam_ray.x, cam_ray.y), cam_ray.z);
        if (theta >= theta_max) continue;
        const util::Vec2 src = rc.camera.project(cam_ray);
        // Require the full bilinear footprint inside the frame.
        if (src.x < 0.0 || src.y < 0.0 || src.x > rc.frame_width - 1.0 ||
            src.y > rc.frame_height - 1.0)
          continue;
        maps_[c].src_x[row + x] = static_cast<float>(src.x);
        maps_[c].src_y[row + x] = static_cast<float>(src.y);
        // Cosine feather: 1 on-axis, 0 at the field edge.
        weights_[c][row + x] = static_cast<float>(
            0.5 * (1.0 + std::cos(util::kPi * theta / theta_max)));
      }
    }
  }

  // Coverage diagnostic.
  for (std::size_t i = 0; i < px; ++i) {
    bool covered = false;
    for (std::size_t c = 0; c < rig_.size() && !covered; ++c)
      covered = weights_[c][i] > 0.0f;
    uncovered_ += covered ? 0 : 1;
  }
}

void PanoramaStitcher::stitch_rows(
    const std::vector<img::ConstImageView<std::uint8_t>>& frames,
    img::ImageView<std::uint8_t> out, int y0, int y1,
    const std::vector<double>* gains) const {
  auto gain_of = [&](std::size_t c) -> float {
    return gains == nullptr ? 1.0f : static_cast<float>((*gains)[c]);
  };
  const int ch = out.channels;
  float acc[4];
  std::uint8_t sample[4];
  for (int y = y0; y < y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * out_width_;
    std::uint8_t* out_row = out.row(y);
    for (int x = 0; x < out_width_; ++x) {
      const std::size_t i = row + x;
      float wsum = 0.0f;
      for (int k = 0; k < ch; ++k) acc[k] = 0.0f;

      if (blend_ == BlendMode::Feather) {
        for (std::size_t c = 0; c < rig_.size(); ++c) {
          const float w = weights_[c][i];
          if (w <= 0.0f) continue;
          core::sample_bilinear(frames[c], maps_[c].src_x[i],
                                maps_[c].src_y[i],
                                img::BorderMode::Replicate, 0, sample);
          const float g = gain_of(c);
          for (int k = 0; k < ch; ++k) acc[k] += w * g * sample[k];
          wsum += w;
        }
      } else {  // NearestCamera
        std::size_t best = rig_.size();
        float best_w = 0.0f;
        for (std::size_t c = 0; c < rig_.size(); ++c)
          if (weights_[c][i] > best_w) {
            best_w = weights_[c][i];
            best = c;
          }
        if (best < rig_.size()) {
          core::sample_bilinear(frames[best], maps_[best].src_x[i],
                                maps_[best].src_y[i],
                                img::BorderMode::Replicate, 0, sample);
          const float g = gain_of(best);
          for (int k = 0; k < ch; ++k) acc[k] = g * sample[k];
          wsum = 1.0f;
        }
      }

      std::uint8_t* dst = out_row + static_cast<std::size_t>(x) * ch;
      if (wsum > 0.0f) {
        for (int k = 0; k < ch; ++k) {
          const float v = acc[k] / wsum + 0.5f;
          dst[k] = static_cast<std::uint8_t>(
              v < 0.0f ? 0 : (v > 255.0f ? 255 : v));
        }
      } else {
        for (int k = 0; k < ch; ++k) dst[k] = 0;
      }
    }
  }
}

img::Image8 PanoramaStitcher::stitch_impl(
    const std::vector<img::ConstImageView<std::uint8_t>>& frames,
    const std::vector<double>* gains, par::ThreadPool* pool) const {
  FE_EXPECTS(frames.size() == rig_.size());
  const int ch = frames.front().channels;
  FE_EXPECTS(ch >= 1 && ch <= 4);
  for (std::size_t c = 0; c < rig_.size(); ++c) {
    FE_EXPECTS(frames[c].width == rig_[c].frame_width &&
               frames[c].height == rig_[c].frame_height);
    FE_EXPECTS(frames[c].channels == ch);
  }
  img::Image8 out(out_width_, out_height_, ch);
  if (pool == nullptr) {
    stitch_rows(frames, out.view(), 0, out_height_, gains);
  } else {
    // Row chunks of 16 from a shared cursor: blend cost varies with how
    // many cameras overlap a row.
    par::ChunkCursor rows(static_cast<std::size_t>(out_height_), pool->size(),
                          par::Schedule::Dynamic, 16);
    pool->run([&](unsigned) {
      std::size_t b = 0, e = 0;
      while (rows.next(b, e))
        stitch_rows(frames, out.view(), static_cast<int>(b),
                    static_cast<int>(e), gains);
    });
  }
  return out;
}

img::Image8 PanoramaStitcher::stitch(
    const std::vector<img::ConstImageView<std::uint8_t>>& frames,
    par::ThreadPool* pool) const {
  return stitch_impl(frames, nullptr, pool);
}

img::Image8 PanoramaStitcher::stitch_with_gains(
    const std::vector<img::ConstImageView<std::uint8_t>>& frames,
    const std::vector<double>& gains, par::ThreadPool* pool) const {
  FE_EXPECTS(gains.size() == rig_.size());
  for (double g : gains) FE_EXPECTS(g > 0.0);
  return stitch_impl(frames, &gains, pool);
}

std::vector<double> PanoramaStitcher::estimate_gains(
    const std::vector<img::ConstImageView<std::uint8_t>>& frames) const {
  FE_EXPECTS(frames.size() == rig_.size());
  const std::size_t n = rig_.size();
  // Mean intensity of camera c over pixels it shares with camera d.
  std::vector<double> sum(n * n, 0.0);
  std::vector<double> cnt(n * n, 0.0);
  const std::size_t px = static_cast<std::size_t>(out_width_) * out_height_;
  std::uint8_t sample[4];
  for (std::size_t i = 0; i < px; ++i) {
    for (std::size_t c = 0; c < n; ++c) {
      if (weights_[c][i] <= 0.0f) continue;
      for (std::size_t d = c + 1; d < n; ++d) {
        if (weights_[d][i] <= 0.0f) continue;
        // Luma-ish mean of each camera at this shared output pixel.
        double vc = 0.0, vd = 0.0;
        core::sample_bilinear(frames[c], maps_[c].src_x[i],
                              maps_[c].src_y[i], img::BorderMode::Replicate,
                              0, sample);
        for (int k = 0; k < frames[c].channels; ++k) vc += sample[k];
        core::sample_bilinear(frames[d], maps_[d].src_x[i],
                              maps_[d].src_y[i], img::BorderMode::Replicate,
                              0, sample);
        for (int k = 0; k < frames[d].channels; ++k) vd += sample[k];
        sum[c * n + d] += vc;
        sum[d * n + c] += vd;
        cnt[c * n + d] += 1.0;
        cnt[d * n + c] += 1.0;
      }
    }
  }
  // Least squares on log-gains: for each overlapping pair,
  // log g_c - log g_d = log(mean_d / mean_c); anchor sum(log g) = 0.
  util::MatX a(n * (n - 1) / 2 + 1, n);
  std::vector<double> b(n * (n - 1) / 2 + 1, 0.0);
  std::size_t row = 0;
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t d = c + 1; d < n; ++d) {
      if (cnt[c * n + d] > 0.0 && sum[c * n + d] > 0.0 &&
          sum[d * n + c] > 0.0) {
        a(row, c) = 1.0;
        a(row, d) = -1.0;
        b[row] = std::log(sum[d * n + c] / sum[c * n + d]);
      }
      ++row;
    }
  for (std::size_t c = 0; c < n; ++c) a(row, c) = 1.0;  // anchor
  const std::vector<double> logg = util::solve_least_squares(a, b);
  std::vector<double> gains(n);
  for (std::size_t c = 0; c < n; ++c) gains[c] = std::exp(logg[c]);
  return gains;
}

}  // namespace fisheye::stitch

#include "core/cv_compat.hpp"

#include <cmath>

#include "core/execution_plan.hpp"
#include "core/kernel.hpp"
#include "core/lens_model.hpp"
#include "util/error.hpp"

namespace fisheye::cv_compat {

double kannala_brandt_theta(double theta, const std::array<double, 4>& d) {
  // The polynomial lives with the KannalaBrandt lens model; this wrapper
  // only preserves the OpenCV-shaped entry point.
  return core::KannalaBrandt::distort_theta(theta, d);
}

core::WarpMap init_undistort_rectify_map(const CameraMatrix& k,
                                         const std::array<double, 4>& d,
                                         const CameraMatrix& p, int out_w,
                                         int out_h) {
  FE_EXPECTS(k.fx > 0.0 && k.fy > 0.0 && p.fx > 0.0 && p.fy > 0.0);
  FE_EXPECTS(out_w > 0 && out_h > 0);
  core::WarpMap map;
  map.width = out_w;
  map.height = out_h;
  map.src_x.resize(map.pixel_count());
  map.src_y.resize(map.pixel_count());
  for (int y = 0; y < out_h; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * out_w;
    for (int x = 0; x < out_w; ++x) {
      // Undistorted normalized coordinates through P^-1 (R = identity).
      const double ax = (x - p.cx) / p.fx;
      const double ay = (y - p.cy) / p.fy;
      const double r = std::hypot(ax, ay);
      const double theta = std::atan(r);
      const double theta_d = kannala_brandt_theta(theta, d);
      const double scale = r > 1e-12 ? theta_d / r : 1.0;
      map.src_x[row + x] = static_cast<float>(k.fx * ax * scale + k.cx);
      map.src_y[row + x] = static_cast<float>(k.fy * ay * scale + k.cy);
    }
  }
  return map;
}

void remap(img::ConstImageView<std::uint8_t> src,
           img::ImageView<std::uint8_t> dst, core::MapView map,
           core::Interp interp, img::BorderMode border,
           std::uint8_t border_value) {
  core::ExecContext ctx;
  ctx.src = src;
  ctx.dst = dst;
  ctx.map = map;
  ctx.mode = core::MapMode::FloatLut;
  ctx.opts = {interp, border, border_value};
  core::resolve_kernel(ctx)(src, dst, {0, 0, dst.width, dst.height});
}

}  // namespace fisheye::cv_compat

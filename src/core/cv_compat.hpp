// OpenCV-compatible entry points.
//
// The ubiquitous fisheye pipeline is cv::fisheye::initUndistortRectifyMap +
// cv::remap. This shim exposes the same semantics (including OpenCV's
// Kannala-Brandt theta-polynomial distortion model, of which the pure
// equidistant lens is the k=0 special case) on this library's types, so
// downstream code and tests can be ported by changing includes only.
#pragma once

#include <array>

#include "core/interp.hpp"
#include "core/mapping.hpp"
#include "image/border.hpp"
#include "image/image.hpp"

namespace fisheye::cv_compat {

/// 3x3 intrinsic matrix in OpenCV layout, reduced to its used entries
/// (fx, fy, cx, cy; skew unsupported).
struct CameraMatrix {
  double fx = 0.0;
  double fy = 0.0;
  double cx = 0.0;
  double cy = 0.0;
};

/// Kannala-Brandt forward distortion: theta_d = theta * (1 + k1 theta^2 +
/// k2 theta^4 + k3 theta^6 + k4 theta^8). Exposed for tests.
double kannala_brandt_theta(double theta, const std::array<double, 4>& d);

/// cv::fisheye::initUndistortRectifyMap (R = identity): build the inverse
/// map from the undistorted camera `p` (size out_w x out_h) into the
/// fisheye image described by `k` and distortion `d`.
core::WarpMap init_undistort_rectify_map(const CameraMatrix& k,
                                         const std::array<double, 4>& d,
                                         const CameraMatrix& p, int out_w,
                                         int out_h);

/// cv::remap with INTER_* and BORDER_CONSTANT/REPLICATE/REFLECT semantics.
void remap(img::ConstImageView<std::uint8_t> src,
           img::ImageView<std::uint8_t> dst, core::MapView map,
           core::Interp interp = core::Interp::Bilinear,
           img::BorderMode border = img::BorderMode::Constant,
           std::uint8_t border_value = 0);

}  // namespace fisheye::cv_compat

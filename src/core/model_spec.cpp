#include "core/model_spec.hpp"

#include <cmath>

#include "core/backend_registry.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye::core {

namespace {

/// Strip the optional `lens=` / `view=` prefix so both the registry-token
/// form and the bare canonical form parse.
std::string strip_prefix(const std::string& text, const char* prefix) {
  const std::string p(prefix);
  if (text.rfind(p, 0) == 0) return text.substr(p.size());
  return text;
}

/// Double-valued counterpart of require_spec_range: user input, so out of
/// range is InvalidArgument naming the spec and option, never a contract.
void require_range(const BackendSpec& spec, const std::string& key, double v,
                   double lo, double hi) {
  if (std::isfinite(v) && v >= lo && v <= hi) return;
  throw InvalidArgument("spec '" + spec.text() + "': option '" + key + "=" +
                        std::to_string(v) + "' is out of range [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

LensKind parse_lens_kind(const BackendSpec& spec) {
  for (const LensKind kind :
       {LensKind::Equidistant, LensKind::Equisolid, LensKind::Orthographic,
        LensKind::Stereographic, LensKind::Rectilinear,
        LensKind::KannalaBrandt, LensKind::Division}) {
    if (spec.kind() == lens_kind_name(kind)) return kind;
  }
  throw InvalidArgument(
      "lens spec '" + spec.text() + "': unknown kind '" + spec.kind() +
      "' (equidistant, equisolid, orthographic, stereographic, rectilinear, "
      "kannala_brandt, division)");
}

/// The kind's default field of view: 180 degrees everywhere except the
/// division model, whose normalized-tan formulation saturates a hair short
/// of 180 — no image circle can hold its full hemisphere.
double default_fov_deg(LensKind kind) noexcept {
  return kind == LensKind::Division ? 160.0 : 180.0;
}

}  // namespace

LensSpec::LensSpec(LensKind kind_) : kind(kind_) {
  fov_deg = default_fov_deg(kind);
}

LensSpec LensSpec::parse(const std::string& text) {
  BackendSpec spec = BackendSpec::parse(strip_prefix(text, "lens="));
  LensSpec o(parse_lens_kind(spec));
  if (o.kind == LensKind::KannalaBrandt) {
    o.k[0] = spec.value_double("k1", o.k[0]);
    o.k[1] = spec.value_double("k2", o.k[1]);
    o.k[2] = spec.value_double("k3", o.k[2]);
    o.k[3] = spec.value_double("k4", o.k[3]);
    // A name table, not "k" + std::to_string(i + 1): GCC 12 raises a false
    // -Wrestrict on that concatenation in optimized builds.
    static const char* const kNames[] = {"k1", "k2", "k3", "k4"};
    for (int i = 0; i < 4; ++i)
      require_range(spec, kNames[i], o.k[i], -5.0, 5.0);
  }
  if (o.kind == LensKind::Division) {
    o.lambda = spec.value_double("lambda", o.lambda);
    require_range(spec, "lambda", o.lambda, -10.0, 0.0);
  }
  o.fov_deg = spec.value_double("fov", o.fov_deg);
  require_range(spec, "fov", o.fov_deg, 1e-3, 360.0);
  // Inapplicable parameters (k1 on an analytic lens, lambda on KB) were
  // not consumed above, so finish() rejects them by name here.
  spec.finish(
      "fov=<degrees>; kannala_brandt adds k1..k4=<coeff>; division adds "
      "lambda=<coeff>");
  // The field of view must sit inside the model's invertible domain
  // (rectilinear:fov=180 would need an infinite image circle).
  const auto unit = o.make(1.0);
  if (o.fov_rad() / 2.0 > unit->max_theta())
    throw InvalidArgument(
        "lens spec '" + spec.text() + "': option 'fov=" +
        std::to_string(o.fov_deg) + "' exceeds the " + lens_kind_name(o.kind) +
        " model's usable field of view (" +
        std::to_string(util::rad_to_deg(unit->max_theta()) * 2.0) + " deg)");
  return o;
}

std::string LensSpec::name() const {
  SpecBuilder b(lens_kind_name(kind));
  if (kind == LensKind::KannalaBrandt) {
    b.opt("k1", k[0]);
    b.opt("k2", k[1]);
    b.opt("k3", k[2]);
    b.opt("k4", k[3]);
  }
  if (kind == LensKind::Division) b.opt("lambda", lambda);
  if (fov_deg != default_fov_deg(kind)) b.opt("fov", fov_deg);
  return b.str();
}

double LensSpec::fov_rad() const noexcept { return util::deg_to_rad(fov_deg); }

std::unique_ptr<LensModel> LensSpec::make(double focal_px) const {
  switch (kind) {
    case LensKind::KannalaBrandt:
      return std::make_unique<KannalaBrandt>(focal_px, k);
    case LensKind::Division:
      return std::make_unique<DivisionModel>(focal_px, lambda);
    default:
      return make_lens(kind, focal_px);
  }
}

double LensSpec::focal_for_circle(double circle_radius_px) const {
  if (circle_radius_px <= 0.0)
    throw InvalidArgument("lens spec: image circle radius must be positive");
  // Every model is linear in focal (the division model is defined in
  // normalized coordinates to keep this true), so evaluate at focal = 1
  // and scale — same trick as focal_for_fov.
  const auto unit = make(1.0);
  const double half = fov_rad() / 2.0;
  if (half > unit->max_theta())
    throw InvalidArgument("lens spec '" + name() +
                          "': fov exceeds the model's usable field of view");
  const double unit_radius = unit->radius_from_theta(half);
  FE_EXPECTS(unit_radius > 0.0);
  return circle_radius_px / unit_radius;
}

const char* view_kind_name(ViewKind kind) noexcept {
  switch (kind) {
    case ViewKind::Perspective: return "perspective";
    case ViewKind::Cylindrical: return "cylindrical";
    case ViewKind::Equirect: return "equirect";
    case ViewKind::QuadView: return "quadview";
  }
  return "?";
}

ViewSpec::ViewSpec(ViewKind kind_) : kind(kind_) {
  if (kind == ViewKind::QuadView) fov_deg = 90.0;
}

ViewSpec ViewSpec::parse(const std::string& text) {
  BackendSpec spec = BackendSpec::parse(strip_prefix(text, "view="));
  ViewSpec o;
  bool known = false;
  for (const ViewKind kind : {ViewKind::Perspective, ViewKind::Cylindrical,
                              ViewKind::Equirect, ViewKind::QuadView}) {
    if (spec.kind() == view_kind_name(kind)) {
      o = ViewSpec(kind);
      known = true;
      break;
    }
  }
  if (!known)
    throw InvalidArgument("view spec '" + spec.text() + "': unknown kind '" +
                          spec.kind() +
                          "' (perspective, cylindrical, equirect, quadview)");
  switch (o.kind) {
    case ViewKind::Perspective:
      o.fov_deg = spec.value_double("fov", o.fov_deg);
      if (o.fov_deg != 0.0)  // 0 = match the caller's focal
        require_range(spec, "fov", o.fov_deg, 1e-3, 179.0);
      spec.finish("fov=<degrees> (0 = match the source focal)");
      break;
    case ViewKind::Cylindrical:
      o.hfov_deg = spec.value_double("hfov", o.hfov_deg);
      require_range(spec, "hfov", o.hfov_deg, 1e-3, 360.0);
      spec.finish("hfov=<degrees>");
      break;
    case ViewKind::Equirect:
      o.hfov_deg = spec.value_double("hfov", o.hfov_deg);
      o.vfov_deg = spec.value_double("vfov", o.vfov_deg);
      require_range(spec, "hfov", o.hfov_deg, 1e-3, 360.0);
      require_range(spec, "vfov", o.vfov_deg, 1e-3, 180.0);
      spec.finish("hfov=<degrees>, vfov=<degrees>");
      break;
    case ViewKind::QuadView:
      o.fov_deg = spec.value_double("fov", o.fov_deg);
      o.tilt_deg = spec.value_double("tilt", o.tilt_deg);
      require_range(spec, "fov", o.fov_deg, 1e-3, 179.0);
      require_range(spec, "tilt", o.tilt_deg, 0.0, 90.0);
      spec.finish("fov=<degrees>, tilt=<degrees>");
      break;
  }
  return o;
}

std::string ViewSpec::name() const {
  SpecBuilder b(view_kind_name(kind));
  switch (kind) {
    case ViewKind::Perspective:
      if (fov_deg != 0.0) b.opt("fov", fov_deg);
      break;
    case ViewKind::Cylindrical:
      if (hfov_deg != 180.0) b.opt("hfov", hfov_deg);
      break;
    case ViewKind::Equirect:
      if (hfov_deg != 180.0) b.opt("hfov", hfov_deg);
      if (vfov_deg != 90.0) b.opt("vfov", vfov_deg);
      break;
    case ViewKind::QuadView:
      if (fov_deg != 90.0) b.opt("fov", fov_deg);
      if (tilt_deg != 40.0) b.opt("tilt", tilt_deg);
      break;
  }
  return b.str();
}

std::unique_ptr<ViewProjection> ViewSpec::make(int width, int height,
                                               double focal_px) const {
  switch (kind) {
    case ViewKind::Perspective: {
      const double focal =
          fov_deg != 0.0
              ? 0.5 * width / std::tan(util::deg_to_rad(fov_deg) / 2.0)
              : focal_px;
      return std::make_unique<PerspectiveView>(width, height, focal);
    }
    case ViewKind::Cylindrical:
      return std::make_unique<CylindricalView>(
          width, height, util::deg_to_rad(hfov_deg), focal_px);
    case ViewKind::Equirect:
      return std::make_unique<EquirectangularView>(
          width, height, util::deg_to_rad(hfov_deg),
          util::deg_to_rad(vfov_deg));
    case ViewKind::QuadView:
      return std::make_unique<QuadView>(width, height,
                                        util::deg_to_rad(fov_deg),
                                        util::deg_to_rad(tilt_deg));
  }
  throw InvalidArgument("view spec: unknown kind");
}

}  // namespace fisheye::core

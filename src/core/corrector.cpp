#include "core/corrector.hpp"

#include "core/tile_order.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace fisheye::core {

Corrector::Corrector(const CorrectorConfig& config) : config_(config) {
  FE_EXPECTS(config.src_width > 0 && config.src_height > 0);
  // Field-of-view resolution: an explicit fov_rad overrides the lens spec;
  // otherwise the spec's fov (default 180 degrees) governs. Either way both
  // fields agree afterwards, so the spec's canonical name() tells the truth.
  if (config_.fov_rad == 0.0) {
    config_.fov_rad = config_.lens.fov_rad();
  } else {
    config_.lens.fov_deg = util::rad_to_deg(config_.fov_rad);
  }
  FE_EXPECTS(config_.fov_rad > 0.0);
  if (config_.out_width == 0) config_.out_width = config_.src_width;
  if (config_.out_height == 0) config_.out_height = config_.src_height;
  FE_EXPECTS(config_.out_width > 0 && config_.out_height > 0);
  FE_EXPECTS(config_.frac_bits >= 1 && config_.frac_bits <= 22);

  camera_ = std::make_unique<FisheyeCamera>(FisheyeCamera::centered(
      config_.lens, config_.src_width, config_.src_height));

  double out_focal = config_.out_focal;
  if (out_focal == 0.0) {
    // Match the centre-of-image resolution of the fisheye input: the output
    // perspective focal equals d(radius)/d(theta) at theta = 0.
    out_focal = camera_->lens().dradius_dtheta(0.0);
    config_.out_focal = out_focal;
  }
  view_ = config_.view.make(config_.out_width, config_.out_height, out_focal);

  if (config_.map_mode != MapMode::OnTheFly) {
    map_ = build_map(*camera_, *view_);
    if (config_.map_mode == MapMode::PackedLut) {
      FE_EXPECTS(config_.remap.interp == Interp::Bilinear);
      packed_ = pack_map(*map_, config_.src_width, config_.src_height,
                         config_.frac_bits);
    }
    if (config_.map_mode == MapMode::CompactLut) {
      FE_EXPECTS(config_.remap.interp == Interp::Bilinear);
      compact_ = compact_map(*map_, config_.src_width, config_.src_height,
                             config_.compact_stride, config_.frac_bits);
    }
  }
}

ExecContext Corrector::make_context(img::ConstImageView<std::uint8_t> src,
                                    img::ImageView<std::uint8_t> dst) const {
  FE_EXPECTS(src.width == config_.src_width &&
             src.height == config_.src_height);
  FE_EXPECTS(dst.width == config_.out_width &&
             dst.height == config_.out_height);
  FE_EXPECTS(src.channels == dst.channels);

  ExecContext ctx;
  ctx.src = src;
  ctx.dst = dst;
  ctx.map = map_ ? map_->view() : MapView{};
  ctx.packed = packed_ ? &*packed_ : nullptr;
  ctx.compact = compact_ ? &*compact_ : nullptr;
  ctx.camera = camera_.get();
  ctx.view = view_.get();
  ctx.opts = config_.remap;
  ctx.mode = config_.map_mode;
  ctx.fast_math = config_.fast_math;
  return ctx;
}

void Corrector::correct(img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst,
                        Backend& backend) const {
  backend.execute(make_context(src, dst));
}

Corrector::Prepared Corrector::prepare(Backend& backend, int channels) const {
  FE_EXPECTS(channels >= 1);
  // Planning reads only geometry, never pixels: shape-only views suffice.
  const img::ConstImageView<std::uint8_t> src(
      nullptr, config_.src_width, config_.src_height, channels,
      static_cast<std::size_t>(config_.src_width) * channels);
  const img::ImageView<std::uint8_t> dst{
      nullptr, config_.out_width, config_.out_height, channels,
      static_cast<std::size_t>(config_.out_width) * channels};
  return Prepared{&backend, backend.plan(make_context(src, dst))};
}

void Corrector::correct(const Prepared& prepared,
                        img::ConstImageView<std::uint8_t> src,
                        img::ImageView<std::uint8_t> dst) const {
  FE_EXPECTS(prepared.valid());
  prepared.backend->execute(prepared.plan, make_context(src, dst));
}

ExecutionPlan Corrector::prepare_stream(int channels, int tile_w,
                                        int tile_h) const {
  FE_EXPECTS(channels >= 1);
  // Shape-only views: planning reads geometry, never pixels.
  const img::ConstImageView<std::uint8_t> src(
      nullptr, config_.src_width, config_.src_height, channels,
      static_cast<std::size_t>(config_.src_width) * channels);
  const img::ImageView<std::uint8_t> dst{
      nullptr, config_.out_width, config_.out_height, channels,
      static_cast<std::size_t>(config_.out_width) * channels};
  return build_service_plan(make_context(src, dst), tile_w, tile_h,
                            kStreamPlanName);
}

ExecutionPlan build_service_plan(const ExecContext& ctx, int tile_w, int tile_h,
                                 std::string plan_name, int tile_region_w,
                                 int tile_region_h, const TileKeyFn& tile_key) {
  FE_EXPECTS(tile_w >= 8 && tile_h >= 8);
  if (tile_region_w == 0) tile_region_w = ctx.dst.width;
  if (tile_region_h == 0) tile_region_h = ctx.dst.height;
  FE_EXPECTS(tile_region_w >= 1 && tile_region_w <= ctx.dst.width);
  FE_EXPECTS(tile_region_h >= 1 && tile_region_h <= ctx.dst.height);

  const std::vector<par::Rect> tiles =
      par::partition(tile_region_w, tile_region_h, par::PartitionKind::Tiles,
                     0, tile_w, tile_h);
  std::vector<par::Rect> keys;
  if (tile_key) {
    keys.reserve(tiles.size());
    for (const par::Rect& t : tiles) keys.push_back(tile_key(t));
  } else {
    keys = source_locality_keys(ctx, tiles);
  }
  ExecutionPlan plan(plan_key(ctx, std::move(plan_name)),
                     order_tiles_by_keys(tiles, keys));
  plan.set_kernel(resolve_kernel(ctx, KernelVariant::Scalar));

  Workspace& ws = plan.workspace();
  const std::size_t n = plan.tiles().size();
  ws.bytes_in_estimate = estimate_bytes_in(ctx);
  ws.bytes_out_estimate = estimate_bytes_out(ctx);
  // Pre-size the per-tile slots so the first frame already allocates
  // nothing (begin_frame reuses this capacity from then on).
  plan.instrumentation().begin_frame(n);
  plan.instrumentation().bytes_in = ws.bytes_in_estimate;
  plan.instrumentation().bytes_out = ws.bytes_out_estimate;
  return plan;
}

}  // namespace fisheye::core

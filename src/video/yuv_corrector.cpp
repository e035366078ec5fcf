#include "video/yuv_corrector.hpp"

#include "core/remap.hpp"
#include "util/error.hpp"

namespace fisheye::video {

core::WarpMap decimate_map(const core::WarpMap& full, int factor) {
  FE_EXPECTS(factor >= 2);
  FE_EXPECTS(full.width % factor == 0 && full.height % factor == 0);
  core::WarpMap small;
  small.width = full.width / factor;
  small.height = full.height / factor;
  small.src_x.resize(small.pixel_count());
  small.src_y.resize(small.pixel_count());
  // 4:2:0-style siting: small pixel (x, y) sits at full-res position
  // (factor*x + (factor-1)/2.0) — between grid points for even factors —
  // so evaluate the full map there as the box average of its factor^2
  // block (the map is smooth at pixel scale), then rescale the source
  // coordinate into small-plane units: s_small = (s_full - off) / factor.
  const float offf = static_cast<float>(factor - 1) * 0.5f;
  const float inv = 1.0f / static_cast<float>(factor);
  const float norm = inv * inv;
  for (int y = 0; y < small.height; ++y)
    for (int x = 0; x < small.width; ++x) {
      float sx = 0.0f, sy = 0.0f;
      for (int dy = 0; dy < factor; ++dy)
        for (int dx = 0; dx < factor; ++dx) {
          const std::size_t fi =
              full.index(factor * x + dx, factor * y + dy);
          sx += full.src_x[fi];
          sy += full.src_y[fi];
        }
      const std::size_t si = small.index(x, y);
      small.src_x[si] = (sx * norm - offf) * inv;
      small.src_y[si] = (sy * norm - offf) * inv;
    }
  return small;
}

YuvCorrector::YuvCorrector(const core::CorrectorConfig& config)
    : luma_([&] {
        core::CorrectorConfig c = config;
        // The YUV path always needs the float luma map to derive chroma.
        c.map_mode = core::MapMode::FloatLut;
        return core::Corrector(c);
      }()),
      opts_(config.remap) {
  FE_EXPECTS(config.src_width % 2 == 0 && config.src_height % 2 == 0);
  FE_EXPECTS(luma_.config().out_width % 2 == 0 &&
             luma_.config().out_height % 2 == 0);
  chroma_map_ = decimate_map(*luma_.map(), 2);
}

img::Yuv420 YuvCorrector::correct_frame(const img::Yuv420& in,
                                        core::Backend& backend) const {
  FE_EXPECTS(in.width() == luma_.config().src_width &&
             in.height() == luma_.config().src_height);
  const int ow = luma_.config().out_width;
  const int oh = luma_.config().out_height;
  img::Yuv420 out{img::Image8(ow, oh, 1), img::Image8(ow / 2, oh / 2, 1),
                  img::Image8(ow / 2, oh / 2, 1)};

  // Luma through the configured backend.
  luma_.correct(in.y.view(), out.y.view(), backend);

  // Chroma planes through the half-resolution map. The neutral value for
  // out-of-circle chroma is 128 (grey), not the luma fill.
  core::RemapOptions chroma_opts = opts_;
  chroma_opts.fill = 128;
  core::ExecContext ctx;
  ctx.map = chroma_map_;
  ctx.opts = chroma_opts;
  ctx.mode = core::MapMode::FloatLut;
  ctx.src = in.u.view();
  ctx.dst = out.u.view();
  backend.execute(ctx);
  ctx.src = in.v.view();
  ctx.dst = out.v.view();
  backend.execute(ctx);
  return out;
}

}  // namespace fisheye::video

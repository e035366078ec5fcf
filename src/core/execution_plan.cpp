#include "core/execution_plan.hpp"

#include <sstream>
#include <utility>

#include "core/camera.hpp"
#include "core/projection.hpp"
#include "simd/remap_gather.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace fisheye::core {

PlanKey plan_key(const ExecContext& ctx, std::string backend_name) {
  PlanKey k;
  k.backend = std::move(backend_name);
  k.src_width = ctx.src.width;
  k.src_height = ctx.src.height;
  k.channels = ctx.src.channels;
  k.dst_width = ctx.dst.width;
  k.dst_height = ctx.dst.height;
  k.mode = ctx.mode;
  k.interp = ctx.opts.interp;
  k.border = ctx.opts.border;
  k.fill = ctx.opts.fill;
  k.fast_math = ctx.fast_math;
  k.map = map_identity(ctx);
  FE_EXPECTS(k.map.present);
  if (ctx.camera != nullptr) k.lens = ctx.camera->lens().name();
  if (ctx.view != nullptr) k.view = ctx.view->name();
  return k;
}

ExecContext ConvertedMap::apply(ExecContext ctx) const noexcept {
  ctx.mode = mode;
  if (packed) ctx.packed = &*packed;
  if (compact) ctx.compact = &*compact;
  return ctx;
}

ExecutionPlan::ExecutionPlan(PlanKey key, std::vector<par::Rect> tiles,
                             std::shared_ptr<void> state)
    : key_(std::move(key)),
      ws_(std::make_shared<Workspace>()),
      state_(std::move(state)),
      inst_(std::make_shared<PlanInstrumentation>()) {
  FE_EXPECTS(!tiles.empty());
  ws_->tiles = std::move(tiles);
  inst_->tile_seconds.reserve(ws_->tiles.size());
}

const std::vector<par::Rect>& ExecutionPlan::tiles() const noexcept {
  static const std::vector<par::Rect> kNone;
  return ws_ ? ws_->tiles : kNone;
}

bool ExecutionPlan::matches(const ExecContext& ctx,
                            std::string_view backend_name) const noexcept {
  if (!valid() || key_.backend != backend_name) return false;
  if (key_.src_width != ctx.src.width ||
      key_.src_height != ctx.src.height ||
      key_.channels != ctx.src.channels ||
      key_.dst_width != ctx.dst.width ||
      key_.dst_height != ctx.dst.height)
    return false;
  if (key_.mode != ctx.mode || key_.interp != ctx.opts.interp ||
      key_.border != ctx.opts.border || key_.fill != ctx.opts.fill ||
      key_.fast_math != ctx.fast_math)
    return false;
  const MapIdentity id = map_identity(ctx);
  return id.present && id == key_.map;
}

std::string ExecutionPlan::describe() const {
  if (!valid()) return "invalid plan";
  std::ostringstream os;
  os << key_.backend << ": " << key_.dst_width << 'x' << key_.dst_height
     << " in " << ws_->tiles.size()
     << (ws_->tiles.size() == 1 ? " tile" : " tiles");
  if (kernel_.valid())
    os << ", kernel " << map_mode_name(kernel_.key().mode) << " x "
       << interp_name(kernel_.key().interp) << " x "
       << variant_name(kernel_.key().variant);
  os << ", isa=" << util::cpu_info().isa();
  // The one-pass float gather runs gray float-LUT bilinear plans on the
  // Scalar and SimdGather entries (resolve_kernel binds both to it).
  const KernelKey& k = kernel_.key();
  const bool float_gather = kernel_.valid() && key_.channels == 1 &&
                            k.mode == MapMode::FloatLut &&
                            k.interp == Interp::Bilinear &&
                            k.variant != KernelVariant::SimdSoa;
  if (const int lanes = simd::gather_lanes(); float_gather && lanes != 0)
    os << ", gather=" << lanes;
  if (!key_.lens.empty()) os << ", lens=" << key_.lens;
  if (!key_.view.empty()) os << ", view=" << key_.view;
  return os.str();
}

rt::TileStats ExecutionPlan::tile_stats() const {
  FE_EXPECTS(valid());
  rt::TileStats t = rt::summarize_tiles(inst_->tile_seconds, inst_->bytes_in,
                                        inst_->bytes_out);
  t.local_tiles = inst_->local_tiles;
  t.stolen_tiles = inst_->stolen_tiles;
  t.steals = inst_->steals;
  return t;
}

}  // namespace fisheye::core

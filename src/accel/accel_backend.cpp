#include "accel/accel_backend.hpp"

#include <memory>
#include <sstream>

#include "core/backend_registry.hpp"
#include "util/error.hpp"

namespace fisheye::accel {

namespace {

/// Copy a frame's modeled byte traffic into the plan slots.
void record_modeled(const core::ExecutionPlan& plan,
                    const AccelFrameStats& stats) {
  core::PlanInstrumentation& inst = plan.instrumentation();
  inst.bytes_in = stats.bytes_in;
  inst.bytes_out = stats.bytes_out;
  inst.steals = stats.steals;  // Cell schedule=steal; zero elsewhere
  inst.modeled = true;
}

/// Emit `key=value` when the value differs from its default; printed with
/// default precision so the spec reparses to the same config.
template <class T>
void emit_if(core::SpecBuilder& spec, const char* key, const T& value,
             const T& def) {
  if (value != def) spec.opt(key, value);
}

void emit_cache_if(core::SpecBuilder& spec, const char* key,
                   const BlockCacheConfig& c, const BlockCacheConfig& def) {
  if (c.block_w != def.block_w || c.block_h != def.block_h ||
      c.sets != def.sets || c.ways != def.ways) {
    std::ostringstream os;
    os << c.block_w << 'x' << c.block_h << 'x' << c.sets << 'x' << c.ways;
    spec.opt(key, os.str());
  }
}

}  // namespace

// --- Cell ------------------------------------------------------------------

core::ExecutionPlan CellBackend::plan(const core::ExecContext& ctx) {
  std::shared_ptr<const core::ConvertedMap> converted;
  const core::ExecContext ectx = resolve_map(ctx, converted);
  FE_EXPECTS((ectx.mode == core::MapMode::FloatLut && !ectx.map.empty()) ||
             (ectx.mode == core::MapMode::CompactLut &&
              ectx.compact != nullptr));
  FE_EXPECTS(ectx.opts.interp == core::Interp::Bilinear);
  FE_EXPECTS(ectx.opts.border == img::BorderMode::Constant);
  auto platform =
      ectx.mode == core::MapMode::CompactLut
          ? std::make_shared<CellLikePlatform>(*ectx.compact,
                                               ectx.src.channels, config_)
          : std::make_shared<CellLikePlatform>(ectx.map, ectx.src.width,
                                               ectx.src.height,
                                               ectx.src.channels, config_);
  std::vector<par::Rect> tiles;
  tiles.reserve(platform->tiles().size());
  for (const SpeTile& t : platform->tiles()) tiles.push_back(t.out);
  std::vector<double> seconds = platform->tile_seconds();
  core::ExecutionPlan plan = make_plan(ctx, std::move(tiles),
                                       std::move(platform),
                                       std::move(converted));
  // The cost model is static: per-tile times are a property of the plan,
  // not of any particular frame. Fill the slots once.
  plan.instrumentation().tile_seconds = std::move(seconds);
  return plan;
}

void CellBackend::execute(const core::ExecutionPlan& plan,
                          const core::ExecContext& ctx) {
  check_plan(plan, ctx);
  CellLikePlatform* platform = plan.state<CellLikePlatform>();
  last_stats_ = platform->run_frame(ctx.src, ctx.dst, ctx.opts.fill);
  record_modeled(plan, last_stats_);
}

std::string CellBackend::name() const {
  const SpeConfig def;
  core::SpecBuilder spec("cell");
  emit_if(spec, "spes", config_.num_spes, def.num_spes);
  if (!config_.double_buffering) spec.opt("sbuf");
  if (config_.tile_w != def.tile_w || config_.tile_h != def.tile_h) {
    std::ostringstream os;
    os << config_.tile_w << 'x' << config_.tile_h;
    spec.opt("tile", os.str());
  }
  emit_if(spec, "ls", config_.local_store_bytes, def.local_store_bytes);
  if (config_.schedule != def.schedule) {
    switch (config_.schedule) {
      case TileSchedule::RoundRobin: spec.opt("schedule", "rr"); break;
      case TileSchedule::GreedyEft: spec.opt("schedule", "eft"); break;
      case TileSchedule::Lpt: spec.opt("schedule", "lpt"); break;
      case TileSchedule::Steal: spec.opt("schedule", "steal"); break;
    }
  }
  emit_if(spec, "cpp", config_.cost.cycles_per_pixel,
          def.cost.cycles_per_pixel);
  return decorate_spec(spec.str());
}

// --- GPU -------------------------------------------------------------------

core::ExecutionPlan GpuBackend::plan(const core::ExecContext& ctx) {
  FE_EXPECTS(ctx.mode == core::MapMode::FloatLut && !ctx.map.empty());
  FE_EXPECTS(ctx.opts.interp == core::Interp::Bilinear);
  FE_EXPECTS(ctx.opts.border == img::BorderMode::Constant);
  auto platform = std::make_shared<GpuPlatform>(ctx.map, config_);
  // The plan tiles are the thread-block grid.
  const int bd = config_.block_dim;
  std::vector<par::Rect> tiles;
  for (int y = 0; y < ctx.dst.height; y += bd)
    for (int x = 0; x < ctx.dst.width; x += bd)
      tiles.push_back({x, y, std::min(x + bd, ctx.dst.width),
                       std::min(y + bd, ctx.dst.height)});
  return make_plan(ctx, std::move(tiles), std::move(platform));
}

void GpuBackend::execute(const core::ExecutionPlan& plan,
                         const core::ExecContext& ctx) {
  check_plan(plan, ctx);
  last_stats_ =
      plan.state<GpuPlatform>()->run_frame(ctx.src, ctx.dst, ctx.opts.fill);
  // The roofline model has no per-block resolution: blocks are uniform by
  // construction (resident warps hide latency), so spread the frame time
  // evenly over the grid.
  core::PlanInstrumentation& inst = plan.instrumentation();
  const std::size_t blocks = plan.tiles().size();
  inst.tile_seconds.assign(blocks,
                           last_stats_.seconds / static_cast<double>(blocks));
  record_modeled(plan, last_stats_);
}

std::string GpuBackend::name() const {
  const GpuConfig def;
  core::SpecBuilder spec("gpu");
  emit_if(spec, "sms", config_.cost.num_sms, def.cost.num_sms);
  emit_if(spec, "clock", config_.cost.clock_hz / 1e9,
          def.cost.clock_hz / 1e9);
  emit_cache_if(spec, "tex", config_.tex_cache, def.tex_cache);
  emit_if(spec, "block", config_.block_dim, def.block_dim);
  return spec.str();
}

// --- FPGA ------------------------------------------------------------------

core::ExecutionPlan FpgaBackend::plan(const core::ExecContext& ctx) {
  std::shared_ptr<const core::ConvertedMap> converted;
  const core::ExecContext ectx = resolve_map(ctx, converted);
  FE_EXPECTS(
      (ectx.mode == core::MapMode::PackedLut && ectx.packed != nullptr) ||
      (ectx.mode == core::MapMode::CompactLut && ectx.compact != nullptr));
  auto platform =
      ectx.mode == core::MapMode::CompactLut
          ? std::make_shared<FpgaPlatform>(*ectx.compact, config_)
          : std::make_shared<FpgaPlatform>(*ectx.packed, config_);
  // One streaming pass over the frame: a single plan tile.
  return make_plan(ctx, {par::Rect{0, 0, ctx.dst.width, ctx.dst.height}},
                   std::move(platform), std::move(converted));
}

void FpgaBackend::execute(const core::ExecutionPlan& plan,
                          const core::ExecContext& ctx) {
  check_plan(plan, ctx);
  last_stats_ =
      plan.state<FpgaPlatform>()->run_frame(ctx.src, ctx.dst, ctx.opts.fill);
  core::PlanInstrumentation& inst = plan.instrumentation();
  inst.tile_seconds.assign(1, last_stats_.seconds);
  record_modeled(plan, last_stats_);
}

std::string FpgaBackend::name() const {
  const FpgaConfig def;
  core::SpecBuilder spec("fpga");
  emit_if(spec, "clock", config_.cost.clock_hz / 1e6,
          def.cost.clock_hz / 1e6);
  emit_cache_if(spec, "cache", config_.cache, def.cache);
  emit_if(spec, "bram", config_.lut_bram_bytes, def.lut_bram_bytes);
  emit_if(spec, "ddr", config_.cost.ddr_bytes_per_cycle,
          def.cost.ddr_bytes_per_cycle);
  return decorate_spec(spec.str());
}

}  // namespace fisheye::accel

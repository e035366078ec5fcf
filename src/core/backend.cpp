#include "core/backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "core/kernel.hpp"
#include "core/tile_order.hpp"
#include "image/image.hpp"
#include "parallel/work_stealing.hpp"
#include "runtime/timer.hpp"
#include "simd/remap_gather.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace fisheye::core {

std::string MapChoice::spec_text() const {
  if (!set()) return {};
  switch (*mode) {
    case MapMode::FloatLut: return "map=float";
    case MapMode::PackedLut: return "map=packed";
    case MapMode::CompactLut:
      return "map=compact:" + std::to_string(stride);
    case MapMode::OnTheFly: break;  // never produced by parse()
  }
  return {};
}

MapChoice MapChoice::parse(const std::string& value) {
  MapChoice c;
  if (value == "float") {
    c.mode = MapMode::FloatLut;
    return c;
  }
  if (value == "packed") {
    c.mode = MapMode::PackedLut;
    return c;
  }
  const std::string compact = "compact";
  if (value == compact || value.rfind(compact + ":", 0) == 0) {
    c.mode = MapMode::CompactLut;
    if (value.size() > compact.size()) {
      const std::string tail = value.substr(compact.size() + 1);
      int stride = 0;
      bool integral = true;
      try {
        std::size_t pos = 0;
        stride = std::stoi(tail, &pos);
        if (pos != tail.size()) integral = false;
      } catch (const std::exception&) {
        integral = false;
      }
      if (!integral)
        throw InvalidArgument("map=compact: stride expects an integer, got '" +
                              tail + "'");
      if (stride < 1 || stride > 64 || (stride & (stride - 1)) != 0)
        throw InvalidArgument("map=compact: stride must be a power of two "
                              "in [1, 64], got '" + tail + "'");
      c.stride = stride;
    }
    return c;
  }
  throw InvalidArgument("map=: unknown map format '" + value +
                        "' (valid: float, packed, compact:<stride>)");
}

KernelVariant DatapathChoice::parse(const std::string& value) {
  if (value == "scalar") return KernelVariant::Scalar;
  if (value == "soa") return KernelVariant::SimdSoa;
  if (value == "gather") return KernelVariant::SimdGather;
  throw InvalidArgument("datapath=: unknown datapath '" + value +
                        "' (valid: scalar, soa, gather)");
}

const char* DatapathChoice::token(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::Scalar: return "scalar";
    case KernelVariant::SimdSoa: return "soa";
    case KernelVariant::SimdGather: return "gather";
  }
  return "?";
}

par::Schedule ScheduleChoice::parse(const std::string& value) {
  if (value == "static") return par::Schedule::Static;
  if (value == "dynamic") return par::Schedule::Dynamic;
  if (value == "guided") return par::Schedule::Guided;
  if (value == "steal") return par::Schedule::Steal;
  throw InvalidArgument("schedule=: unknown schedule '" + value +
                        "' (valid: static, dynamic, guided, steal)");
}

void Backend::execute(const ExecContext& ctx) {
  if (!cached_plan_.matches(ctx, cached_name())) cached_plan_ = plan(ctx);
  execute(cached_plan_, ctx);
}

const std::string& Backend::cached_name() const {
  if (name_cache_.empty()) name_cache_ = name();
  return name_cache_;
}

ExecutionPlan Backend::make_plan(const ExecContext& ctx,
                                 std::vector<par::Rect> tiles,
                                 std::shared_ptr<void> state,
                                 std::shared_ptr<const ConvertedMap> converted,
                                 KernelVariant variant) const {
  ExecutionPlan p(plan_key(ctx, cached_name()), std::move(tiles),
                  std::move(state));
  const ExecContext ectx = converted ? converted->apply(ctx) : ctx;
  p.set_converted(std::move(converted));
  p.set_kernel(resolve_kernel(ectx, variant));
  Workspace& ws = p.workspace();
  ws.bytes_in_estimate = estimate_bytes_in(ectx);
  ws.bytes_out_estimate = estimate_bytes_out(ectx);
  return p;
}

void Backend::check_plan(const ExecutionPlan& plan,
                         const ExecContext& ctx) const {
  FE_EXPECTS(plan.matches(ctx, cached_name()));
}

ExecContext Backend::resolve_map(
    const ExecContext& ctx,
    std::shared_ptr<const ConvertedMap>& converted) const {
  converted = nullptr;
  if (!map_choice_.set()) return ctx;
  const MapMode want = *map_choice_.mode;
  const bool already =
      want == ctx.mode &&
      (want != MapMode::CompactLut ||
       (ctx.compact != nullptr && ctx.compact->stride == map_choice_.stride));
  if (already) return ctx;
  if (ctx.map.empty())
    throw InvalidArgument(name() + ": " + map_choice_.spec_text() +
                          " needs the context's float map to convert "
                          "from, but the context (mode " +
                          map_mode_name(ctx.mode) + ") carries none");
  if ((want == MapMode::PackedLut || want == MapMode::CompactLut) &&
      ctx.opts.interp != Interp::Bilinear)
    throw InvalidArgument(name() + ": " + map_choice_.spec_text() +
                          " supports bilinear interpolation only");
  auto conv = std::make_shared<ConvertedMap>();
  conv->mode = want;
  if (want == MapMode::PackedLut) {
    conv->packed = pack_map(ctx.map, ctx.src.width, ctx.src.height,
                            map_choice_.frac_bits);
  } else if (want == MapMode::CompactLut) {
    conv->compact = compact_map(ctx.map, ctx.src.width, ctx.src.height,
                                map_choice_.stride, map_choice_.frac_bits);
  } else if (want == MapMode::OnTheFly) {
    throw InvalidArgument(name() + ": map= cannot select on-the-fly");
  }
  // map=float is a mode rewrite only; ctx.map is already present.
  converted = std::move(conv);
  return converted->apply(ctx);
}

std::string Backend::decorate_spec(std::string spec) const {
  const std::string opt = map_choice_.spec_text();
  if (opt.empty()) return spec;
  spec += spec.find(':') == std::string::npos ? ':' : ',';
  return spec + opt;
}

CpuBackend::CpuBackend(CpuOptions options, unsigned threads)
    : options_(options) {
  if (threads == 0) threads = util::cpu_info().hardware_threads;
  if (threads > 1) {
    owned_pool_ = std::make_unique<par::ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

CpuBackend::CpuBackend(par::ThreadPool& pool, CpuOptions options)
    : options_(options), pool_(pool.size() > 1 ? &pool : nullptr) {}

void CpuBackend::autotune_on_first_plan() noexcept {
  tune_pending_ = true;
  forget_name();
}

std::string CpuBackend::name() const {
  std::ostringstream os;
  os << "cpu:threads=" << threads();
  if (options_.schedule != par::Schedule::Static)
    os << ",schedule=" << par::schedule_name(options_.schedule);
  if (options_.partition) {
    switch (*options_.partition) {
      case par::PartitionKind::RowBlocks: os << ",rows"; break;
      case par::PartitionKind::ColumnBlocks: os << ",cols"; break;
      case par::PartitionKind::RowCyclic: os << ",cyclic"; break;
      case par::PartitionKind::Tiles:
        os << ",tiles,tile=" << options_.tile_w << 'x' << options_.tile_h;
        break;
    }
    if (options_.chunks != 0 &&
        (*options_.partition == par::PartitionKind::RowBlocks ||
         *options_.partition == par::PartitionKind::ColumnBlocks))
      os << '=' << options_.chunks;
  } else if (options_.chunks != 0) {
    os << ",chunks=" << options_.chunks;
  }
  if (options_.datapath != KernelVariant::Scalar)
    os << ",datapath=" << DatapathChoice::token(options_.datapath);
  std::string spec = decorate_spec(os.str());
  if (tune_pending_) spec += ",tuned=auto";
  return spec;
}

ExecutionPlan CpuBackend::plan(const ExecContext& ctx) {
  maybe_autotune(ctx);
  return plan_with(ctx, options_);
}

ExecutionPlan CpuBackend::plan_with(const ExecContext& ctx,
                                    const CpuOptions& o) {
  std::shared_ptr<const ConvertedMap> converted;
  const ExecContext ectx = resolve_map(ctx, converted);
  std::vector<par::Rect> tiles;
  if (!o.partition && threads() == 1) {
    tiles = {par::Rect{0, 0, ctx.dst.width, ctx.dst.height}};
  } else {
    const int chunks =
        o.chunks != 0 ? o.chunks : static_cast<int>(threads()) * 4;
    tiles = par::partition(ctx.dst.width, ctx.dst.height,
                           o.partition.value_or(par::PartitionKind::RowBlocks),
                           chunks, o.tile_w, o.tile_h);
  }
  const bool steal = o.schedule == par::Schedule::Steal;
  if (steal) {
    // Reorder the partition by source locality once, at plan time, and
    // pre-split it into the lanes' initial runs. The effective
    // (post map=) context supplies the source boxes — it is what execute()
    // will actually gather from.
    tiles = order_tiles_by_source_locality(ectx, std::move(tiles));
  }
  ExecutionPlan p = make_plan(ctx, std::move(tiles), nullptr,
                              std::move(converted), o.datapath);
  if (steal) {
    // The tiles are stored in steal order; each lane's initial run of
    // positions is balanced by tile area.
    Workspace& ws = p.workspace();
    ws.steal_runs = par::balanced_runs(
        ws.tiles.size(), threads(), [&](std::size_t i) {
          return static_cast<double>(ws.tiles[i].area());
        });
  }
  return p;
}

void CpuBackend::maybe_autotune(const ExecContext& ctx) {
  if (!tune_pending_) return;
  // Each candidate is these options with one knob rewritten; a value
  // already listed is not timed twice.
  std::vector<CpuOptions> cands;
  const auto add = [&cands](const CpuOptions& o) {
    if (std::find(cands.begin(), cands.end(), o) == cands.end())
      cands.push_back(o);
  };
  if (!options_.partition) {
    // Whole frame or default row blocks: the spec's own datapath against
    // the gather, which is exact on every map, so the pick is never less
    // exact than what the spec asked for (SoA is timed only when named).
    const auto add_datapath = [&](KernelVariant v) {
      CpuOptions o = options_;
      o.datapath = v;
      add(o);
    };
    add_datapath(options_.datapath);
    if (simd::gather_available()) add_datapath(KernelVariant::SimdGather);
  } else if (*options_.partition == par::PartitionKind::Tiles) {
    // The tile shape is a measured axis only under a Tiles partition
    // (row/column/cyclic decompositions ignore tile=): the spec's own
    // shape and four fixed ones.
    const auto add_tile = [&](int w, int h) {
      CpuOptions o = options_;
      o.tile_w = w;
      o.tile_h = h;
      add(o);
    };
    add_tile(options_.tile_w, options_.tile_h);
    constexpr int kTiles[][2] = {{32, 32}, {64, 64}, {128, 64}, {128, 32}};
    for (const auto& wh : kTiles) add_tile(wh[0], wh[1]);
  }
  if (cands.size() > 1) {
    const std::optional<CpuOptions> best = fastest(ctx, cands);
    // No candidate planned: stay pending, and let the untuned plan
    // surface the real error.
    if (!best) return;
    options_ = *best;
  }
  tune_pending_ = false;
  forget_name();
}

std::optional<CpuOptions> CpuBackend::fastest(
    const ExecContext& ctx, const std::vector<CpuOptions>& candidates) {
  constexpr int kFrames = 3;  // timed runs per probe, after one warm-up
  // Synthesized measurement frames: the caller's views may be null at plan
  // time, and probing must never write a caller's real output frame. A
  // diagonal gradient keeps the gathers on realistic (non-constant)
  // addresses without costing a map evaluation.
  img::Image8 src(ctx.src.width, ctx.src.height, ctx.src.channels);
  img::Image8 dst(ctx.dst.width, ctx.dst.height, ctx.src.channels);
  for (int y = 0; y < src.height(); ++y) {
    std::uint8_t* row = src.row(y);
    const std::size_t n =
        static_cast<std::size_t>(src.width()) * src.channels();
    for (std::size_t i = 0; i < n; ++i)
      row[i] = static_cast<std::uint8_t>((i + static_cast<std::size_t>(y)) &
                                         0xFF);
  }
  ExecContext mctx = ctx;
  mctx.src = src.cview();
  mctx.dst = dst.view();

  struct Scored {
    const CpuOptions* options = nullptr;
    ExecutionPlan plan;
    double seconds = std::numeric_limits<double>::infinity();
  };
  const auto probe = [&](Scored& s) {
    for (int i = 0; i < kFrames; ++i) {
      const rt::Stopwatch sw;
      execute(s.plan, mctx);
      s.seconds = std::min(s.seconds, sw.elapsed_seconds());
    }
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const CpuOptions& o : candidates) {
    Scored s;
    s.options = &o;
    try {
      s.plan = plan_with(mctx, o);
      execute(s.plan, mctx);
      probe(s);
    } catch (const std::exception&) {
      continue;  // infeasible candidate (unsupported kernel point, ...)
    }
    scored.push_back(std::move(s));
  }
  if (scored.empty()) return std::nullopt;
  // Runoff between the top two: a single preemption spike during a
  // candidate's probe window is enough to crown the wrong winner, and a
  // wrong lock-in is paid on every subsequent frame. Re-probing only the
  // finalists keeps total probe cost ~O(candidates), not 2x.
  const auto faster = [](const Scored& a, const Scored& b) {
    return a.seconds < b.seconds;
  };
  std::sort(scored.begin(), scored.end(), faster);
  const std::size_t finalists = std::min<std::size_t>(2, scored.size());
  for (std::size_t i = 0; i < finalists; ++i) {
    try {
      probe(scored[i]);
    } catch (const std::exception&) {
      scored[i].seconds = std::numeric_limits<double>::infinity();
    }
  }
  const auto winner = std::min_element(
      scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(finalists),
      faster);
  if (!std::isfinite(winner->seconds)) return std::nullopt;
  return *winner->options;
}

void CpuBackend::execute(const ExecutionPlan& plan, const ExecContext& ctx) {
  check_plan(plan, ctx);
  const ResolvedKernel& kernel = plan.kernel();
  const std::vector<par::Rect>& tiles = plan.tiles();
  const std::size_t n = tiles.size();
  PlanInstrumentation& inst = plan.instrumentation();
  inst.begin_frame(n);
  const auto run_tile = [&](std::size_t i) {
    const rt::Stopwatch sw;
    kernel(ctx.src, ctx.dst, tiles[i]);
    inst.tile_seconds[i] = sw.elapsed_seconds();
  };
  const unsigned lanes = threads();
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) run_tile(i);
  } else if (options_.schedule == par::Schedule::Static) {
    pool_->run([&](unsigned lane) {
      const auto [b, e] = par::static_block(n, lanes, lane);
      for (std::size_t i = b; i < e; ++i) run_tile(i);
    });
  } else if (options_.schedule == par::Schedule::Steal) {
    const Workspace& ws = plan.workspace();
    if (!steal_) steal_ = std::make_unique<par::StealScheduler>(lanes);
    steal_->begin_frame(ws.steal_runs);
    pool_->run([&](unsigned lane) {
      // A tile that throws must still count as run, or the other lanes
      // would wait for it: hold the lane's first error until its loop ends.
      std::exception_ptr error;
      steal_->work(lane, [&](std::size_t i) {
        try {
          run_tile(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      });
      if (error) std::rethrow_exception(error);
    });
    const par::StealStats ss = steal_->stats();
    inst.local_tiles = ss.local;
    inst.stolen_tiles = ss.stolen;
    inst.steals = ss.steals;
  } else {
    par::ChunkCursor cursor(n, lanes, options_.schedule);
    pool_->run([&](unsigned) { cursor.drain(run_tile); });
  }
  // The plan-time analytic traffic estimate (the simulators report
  // modeled counts instead).
  inst.bytes_in = plan.workspace().bytes_in_estimate;
  inst.bytes_out = plan.workspace().bytes_out_estimate;
  inst.modeled = false;
}

}  // namespace fisheye::core

// F21 — Work-stealing thread-scaling sweep on a skewed frame.
//
// Companion to F2b: fixes the workload (the off-axis PTZ view whose real
// gather work is concentrated on one side of the frame, the rest constant
// fill) and sweeps thread count x schedule. A static tile split cannot
// scale on this frame — adding threads adds idle lanes on the fill side —
// while dynamic pays shared-cursor traffic and interleaves distant tiles
// on each worker. The steal schedule's claim is that plan-time Morton
// ordering plus steal-half keeps per-worker source locality AND repairs
// the imbalance, so its scaling curve should track or beat dynamic and
// clearly beat static from 4 threads up. The steal counters make the
// mechanism visible: steals grow with thread count, local tiles dominate.
#include "core/projection.hpp"

#include "bench_common.hpp"

namespace {

using namespace fisheye;

bench::BackendRun run_map_spec(const core::WarpMap& map,
                               img::ConstImageView<std::uint8_t> src,
                               img::ImageView<std::uint8_t> dst,
                               const std::string& spec, int reps) {
  const std::unique_ptr<core::Backend> backend = bench::make_backend(spec);
  core::ExecContext ctx;
  ctx.src = src;
  ctx.dst = dst;
  ctx.map = map;
  ctx.mode = core::MapMode::FloatLut;
  const core::ExecutionPlan plan = backend->plan(ctx);
  rt::RunStats run =
      rt::measure([&] { backend->execute(plan, ctx); }, reps, 1);
  return {std::move(run), plan.tile_stats(), backend->name()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fisheye;
  bench::init(argc, argv);
  rt::print_banner("F21",
                   "steal-schedule thread scaling, skewed 1080p frame");

  const int w = 1920, h = 1080;
  const img::Image8 src = bench::make_input(w, h);
  const int reps = bench::reps_for(w, h, 12);

  // Same skewed workload as F2b: narrow lens, hard right pan.
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(100.0), w, h);
  const core::PerspectiveView ptz = core::PerspectiveView::ptz(
      w, h, util::deg_to_rad(75.0), util::deg_to_rad(15.0),
      util::deg_to_rad(110.0));
  const core::WarpMap ptz_map = core::build_map(cam, ptz);
  img::Image8 out(w, h, 1);

  // Serial reference for the speedup column.
  const double serial_s =
      run_map_spec(ptz_map, src.view(), out.view(), "serial", reps)
          .run.median;

  util::Table table({"threads", "schedule", "ms/frame", "speedup",
                     "imbalance", "stolen", "steals"});
  for (const int threads : {1, 2, 4, 8}) {
    for (const std::string sched : {"static", "dynamic", "guided", "steal"}) {
      const bench::BackendRun r = run_map_spec(
          ptz_map, src.view(), out.view(),
          "pool:" + sched + ",tiles,tile=128x64,threads=" +
              std::to_string(threads),
          reps);
      table.row()
          .add(threads)
          .add(sched)
          .add(r.run.median * 1e3, 2)
          .add(serial_s / r.run.median, 2)
          .add(r.tiles.imbalance, 2)
          .add(static_cast<unsigned long long>(r.tiles.stolen_tiles))
          .add(static_cast<unsigned long long>(r.tiles.steals));
    }
  }
  table.print(std::cout, "F21: steal scaling");
  std::cout << "expected shape: static flattens early (idle fill-side "
               "lanes); dynamic and steal keep scaling, with steal matching "
               "dynamic's balance at a fraction of its scheduling traffic - "
               "counters show most tiles stay local to their planned run.\n";
  return 0;
}

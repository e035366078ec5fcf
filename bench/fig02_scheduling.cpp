// F2 — Scheduling policy and decomposition comparison.
//
// Per-pixel work varies radially (pixels outside the image circle are pure
// fill), so static decompositions can be imbalanced. Part (a) compares
// every schedule x partition combination at 1080p on 4 threads — the
// centred workload, where dynamic/guided/steal must stay within a few
// percent of each other. Part (b) is the workload scheduling exists for:
// an off-axis virtual-PTZ view concentrates all real work on one side of
// the frame, so a static split leaves most threads idle; it compares the
// schedules at 8 threads and reports the steal schedule's counters
// (local/stolen tiles, steal operations).
#include "core/projection.hpp"

#include <algorithm>

#include "bench_common.hpp"

namespace {

using namespace fisheye;

/// Bench context for a hand-built map (the off-axis view the Corrector
/// front door does not construct): plan once, measure steady-state frames.
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
  rt::print_banner("F2",
                   "schedule x decomposition at 1080p, 4 threads, bilinear");

  const int w = 1920, h = 1080;
  const img::Image8 src = bench::make_input(w, h);
  const core::Corrector corr = core::Corrector::builder(w, h).build();
  const int reps = bench::reps_for(w, h, 12);

  util::Table table(
      {"schedule", "partition", "tiles", "ms/frame", "fps", "imbalance"});
  for (const std::string sched : {"static", "dynamic", "guided", "steal"}) {
    for (const std::string part : {"rows", "cyclic", "tiles", "cols"}) {
      const bench::BackendRun r = bench::run_spec(
          corr, src.view(),
          "pool:" + sched + "," + part + ",tile=128x64,threads=4", reps);
      table.row()
          .add(sched)
          .add(part)
          .add(r.tiles.tiles)
          .add(r.run.median * 1e3, 2)
          .add(rt::fps_from_seconds(r.run.median), 1)
          .add(r.tiles.imbalance, 2);
      table.annotate(r.name);
    }
  }
  table.print(std::cout, "F2: scheduling policies");

  // (b) Radially/laterally skewed workload: a narrow lens panned hard
  // right puts all real gather work in one part of the output while the
  // rest is constant fill, so a static tile split is maximally imbalanced
  // at 8 threads. This is where plan-time Morton ordering + stealing must
  // beat static while matching the shared-cursor dynamic schedule.
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(100.0), w, h);
  const core::PerspectiveView ptz = core::PerspectiveView::ptz(
      w, h, util::deg_to_rad(75.0), util::deg_to_rad(15.0),
      util::deg_to_rad(110.0));
  const core::WarpMap ptz_map = core::build_map(cam, ptz);
  img::Image8 out(w, h, 1);

  util::Table skewed({"schedule", "ms/frame", "fps", "imbalance", "local",
                      "stolen", "steals", "vs static"});
  // CI asserts the steal row's "vs static" ratio on this table, so part
  // (b) keeps a few reps even in quick mode — a single rep on a shared
  // runner is too noisy to gate on.
  const int skew_reps = std::max(reps, 3);
  double static_ms = 0.0;
  for (const std::string sched : {"static", "dynamic", "guided", "steal"}) {
    const bench::BackendRun r = run_map_spec(
        ptz_map, src.view(), out.view(),
        "pool:" + sched + ",tiles,tile=128x64,threads=8", skew_reps);
    const double ms = r.run.median * 1e3;
    if (sched == "static") static_ms = ms;
    skewed.row()
        .add(sched)
        .add(ms, 2)
        .add(rt::fps_from_seconds(r.run.median), 1)
        .add(r.tiles.imbalance, 2)
        .add(static_cast<unsigned long long>(r.tiles.local_tiles))
        .add(static_cast<unsigned long long>(r.tiles.stolen_tiles))
        .add(static_cast<unsigned long long>(r.tiles.steals))
        .add(static_ms / ms, 2);
  }
  skewed.print(std::cout, "F2b: skewed workload, 8 threads");

  std::cout << "expected shape: (a) dynamic/guided/steal absorb the radial "
               "load imbalance and tie within a few percent; column blocks "
               "lose to poor row-major locality. (b) the skewed PTZ frame "
               "separates them - static eats the imbalance, steal repairs "
               "it with a handful of steals while keeping each worker on "
               "source-adjacent tiles.\n";
  return 0;
}

// F24 — Process-level sharding: 1 -> N worker processes on one host,
// frames through one shared-memory frame (src/shard). Measured on this
// machine (fps, p99 latency, shm transport), side by side with the
// cluster simulator's model of the same strip decomposition over an
// ideal-latency interconnect — the modeled column shows what the strip
// math promises, the measured one what fork + shm + supervision deliver
// on this host's core count.
#include <cstring>
#include <thread>
#include <tuple>

#include "bench_common.hpp"
#include "cluster/cluster_sim.hpp"
#include "runtime/timer.hpp"
#include "shard/shard_backend.hpp"

namespace {

struct Sharded {
  double fps = 0.0;
  double p99_ms = 0.0;
  double transport_mb = 0.0;  ///< shm bytes per frame (src in + strips out)
  std::size_t fallbacks = 0;
  std::size_t respawns = 0;
  std::string spec;
};

Sharded run_sharded(const fisheye::core::Corrector& corr,
                    fisheye::img::ConstImageView<std::uint8_t> src,
                    int workers, int frames) {
  using namespace fisheye;
  const auto backend = bench::make_backend(
      "shard:workers=" + std::to_string(workers));
  auto& sb = dynamic_cast<shard::ShardBackend&>(*backend);
  img::Image8 out(corr.config().out_width, corr.config().out_height,
                  src.channels);
  const core::Corrector::Prepared prepared = corr.prepare(*backend, 1);
  corr.correct(prepared, src, out.view());  // warm: fleet up, pages faulted
  const rt::ShardStats before = sb.last_stats();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const rt::Stopwatch sw;
    corr.correct(prepared, src, out.view());
    samples.push_back(sw.elapsed_seconds());
  }
  const rt::ShardStats after = sb.last_stats();
  Sharded r;
  r.fps = 1.0 / rt::percentile(samples, 50.0);
  r.p99_ms = rt::percentile(samples, 99.0) * 1e3;
  const std::size_t moved =
      (after.transport_in_bytes + after.transport_out_bytes) -
      (before.transport_in_bytes + before.transport_out_bytes);
  r.transport_mb =
      static_cast<double>(moved) / static_cast<double>(frames) / 1e6;
  r.fallbacks = after.fallback_strips - before.fallback_strips;
  r.respawns = after.respawns;
  r.spec = backend->name();
  return r;
}

double modeled_fps(const fisheye::core::Corrector& corr,
                   fisheye::img::ConstImageView<std::uint8_t> src,
                   int ranks) {
  using namespace fisheye;
  const auto backend = bench::make_backend(
      "cluster:ranks=" + std::to_string(ranks) + ",net=ib");
  img::Image8 out(corr.config().out_width, corr.config().out_height,
                  src.channels);
  corr.correct(src, out.view(), *backend);
  return dynamic_cast<const cluster::ClusterSimBackend&>(*backend)
      .last_stats()
      .fps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fisheye;
  bench::init(argc, argv);
  rt::print_banner("F24",
                   "process sharding: shm frame ring, forked workers");
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "host cores: " << cores << "\n";

  for (const auto& [w, h, label] :
       {std::tuple{1280, 720, "720p"}, std::tuple{1920, 1080, "1080p"}}) {
    const img::Image8 src = bench::make_input(w, h);
    const core::Corrector corr = core::Corrector::builder(w, h).build();
    const int frames = bench::quick() ? 3 : (h >= 1080 ? 20 : 40);

    util::Table table({"processes", "cores", "fps", "speedup", "p99 ms",
                       "shm MB/frame", "fallbacks", "modeled fps (cluster)"});
    double base_fps = 0.0;
    for (const int workers : {1, 2, 4, 8}) {
      const Sharded r = run_sharded(corr, src.view(), workers, frames);
      if (workers == 1) base_fps = r.fps;
      table.row()
          .add(workers)
          .add(static_cast<int>(cores))
          .add(r.fps, 1)
          .add(base_fps > 0.0 ? r.fps / base_fps : 0.0, 2)
          .add(r.p99_ms, 2)
          .add(r.transport_mb, 2)
          .add(r.fallbacks)
          .add(modeled_fps(corr, src.view(), workers), 1);
      table.annotate(r.spec);
    }
    table.print(std::cout,
                std::string("F24a: process sweep at ") + label);
  }

  // Ingest mode: the supervisor's staging copy vs rendering directly into
  // the shared source frame (zero-copy source path). The row keeps its
  // "ring-slot" label so results compare across versions.
  {
    const int w = 1920, h = 1080;
    const img::Image8 src = bench::make_input(w, h);
    const core::Corrector corr = core::Corrector::builder(w, h).build();
    const int frames = bench::quick() ? 3 : 20;
    const int workers = 4;
    const auto backend = bench::make_backend(
        "shard:workers=" + std::to_string(workers));
    auto& sb = dynamic_cast<shard::ShardBackend&>(*backend);
    img::Image8 out(w, h, 1);
    const core::Corrector::Prepared prepared = corr.prepare(*backend, 1);
    corr.correct(prepared, src.view(), out.view());

    util::Table ingest({"ingest", "fps", "src copy MB/frame"});
    const std::size_t row_bytes = static_cast<std::size_t>(w);
    for (const bool zero_copy : {false, true}) {
      std::vector<double> samples;
      rt::ShardStats t0 = sb.last_stats();
      for (int f = 0; f < frames; ++f) {
        const rt::Stopwatch sw;
        if (zero_copy) {
          const img::View8 in = sb.next_input();
          for (int y = 0; y < h; ++y)
            std::memcpy(in.row(y), src.view().row(y), row_bytes);
          corr.correct(prepared, in, out.view());
        } else {
          corr.correct(prepared, src.view(), out.view());
        }
        samples.push_back(sw.elapsed_seconds());
      }
      rt::ShardStats t1 = sb.last_stats();
      ingest.row()
          .add(zero_copy ? "ring-slot (zero-copy)" : "staged copy")
          .add(1.0 / rt::percentile(samples, 50.0), 1)
          .add(static_cast<double>(t1.transport_in_bytes -
                                   t0.transport_in_bytes) /
                   frames / 1e6,
               2);
      ingest.annotate(sb.name());
    }
    ingest.print(std::cout, "F24b: ingest path at 1080p, 4 processes");
  }

  std::cout << "expected shape: near-linear fps scaling while processes "
               "<= cores (strips are embarrassingly parallel; the ring "
               "moves ~2 frames of bytes per frame), then flat — the "
               "modeled cluster column shows the same knee without fork "
               "or shm costs. Zero-copy ingest removes the source copy "
               "from the supervisor's critical path.\n";
  return 0;
}

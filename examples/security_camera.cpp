// Security-camera scenario: one ceiling fisheye feeds several virtual
// pan-tilt-zoom operators simultaneously — the surveillance use case that
// motivated real-time fisheye correction.
//
//   ./security_camera [frames] [out_dir]
//
// Runs a short clip: each frame is corrected into four PTZ views on the
// thread pool; the first frame's views are written as PPMs and per-view
// throughput is reported.
#include <iostream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/mapping.hpp"
#include "image/io_pnm.hpp"
#include "runtime/timer.hpp"
#include "video/pipeline.hpp"

int main(int argc, char** argv) try {
  using namespace fisheye;
  const int frames = argc > 1 ? std::max(1, std::atoi(argv[1])) : 30;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  const int width = 1280, height = 720;
  const auto camera = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), width, height);
  const video::SyntheticVideoSource source(camera, width, height, 3);

  // Four fixed virtual operators: wide overview plus three zoomed patrols.
  struct Operator {
    const char* name;
    double pan_deg, tilt_deg, hfov_deg;
  };
  const Operator operators[] = {
      {"overview", 0.0, 5.0, 100.0},
      {"gate-left", -45.0, 8.0, 45.0},
      {"gate-right", 45.0, 8.0, 45.0},
      {"zoom-centre", 0.0, 12.0, 30.0},
  };

  // Build one warp map per view (one-time setup).
  const int vw = 640, vh = 360;
  std::vector<core::WarpMap> maps;
  for (const Operator& op : operators) {
    const core::PerspectiveView view = core::PerspectiveView::ptz(
        vw, vh, util::deg_to_rad(op.pan_deg), util::deg_to_rad(op.tilt_deg),
        util::deg_to_rad(op.hfov_deg));
    maps.push_back(core::build_map(camera, view));
  }

  par::ThreadPool pool(0);
  const core::RemapOptions opts{core::Interp::Bilinear,
                                img::BorderMode::Constant, 0};
  std::vector<img::Image8> views;
  for (std::size_t v = 0; v < maps.size(); ++v) views.emplace_back(vw, vh, 3);

  double total_s = 0.0;
  for (int f = 0; f < frames; ++f) {
    const img::Image8 frame = source.frame(f);
    const rt::Stopwatch sw;
    // All views of one frame in parallel: the natural decomposition when
    // several operators watch one camera.
    par::ChunkCursor next_view(maps.size(), pool.size(),
                               par::Schedule::Dynamic);
    pool.run([&](unsigned) {
      next_view.drain([&](std::size_t v) {
        core::remap_rect(frame.view(), views[v].view(), maps[v],
                         {0, 0, vw, vh}, opts);
      });
    });
    total_s += sw.elapsed_seconds();
    if (f == 0) {
      for (std::size_t v = 0; v < maps.size(); ++v) {
        const std::string path = out_dir + "/security_" +
                                 operators[v].name + ".ppm";
        img::write_pnm(path, views[v].view());
        std::cout << "wrote " << path << '\n';
      }
    }
  }
  std::cout << frames << " frames x " << maps.size() << " PTZ views: "
            << 1e3 * total_s / frames << " ms/frame ("
            << frames / total_s << " fps aggregate, "
            << maps.size() * frames / total_s << " views/s)\n";
  return 0;
} catch (const fisheye::Error& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}

// Distributed-memory (message-passing) execution simulator.
//
// The scale-out port of the kernel: a root node holds the frame, scatters
// work to R ranks over an interconnect, ranks compute their strips, and
// results gather back — the classic MPI master/worker layout for image
// pipelines. As with the accelerator simulators, execution is functional
// (each rank really computes from only the bytes it was "sent" — a private
// copy of its source window, so distribution bugs corrupt output and are
// caught by tests) while time is a hybrid model: per-strip compute is
// measured on this host (scaled by a per-node speed factor), communication
// is latency + size/bandwidth per message with sends serialized at the
// root (single NIC).
//
// Two distribution strategies, the real design decision of such ports:
//  * StripScatter — each rank receives only its strip's map slice plus the
//    source bounding box its strip actually samples (minimal traffic,
//    needs the bbox analysis);
//  * FullBroadcast — each rank receives the whole source frame plus its
//    map slice (simple, bandwidth-hungry; wins only on tiny rank counts or
//    fat links).
#pragma once

#include <vector>

#include "accel/cost_model.hpp"
#include "core/backend.hpp"

namespace fisheye::cluster {

/// Point-to-point interconnect model.
struct InterconnectModel {
  const char* name = "custom";
  double latency_s = 10e-6;
  double bandwidth_bytes_per_s = 1e9;

  /// Time for one message of `bytes`.
  [[nodiscard]] double message_time(std::size_t bytes) const noexcept {
    return latency_s +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }

  static InterconnectModel gigabit_ethernet() {
    return {"gige", 50e-6, 118e6};
  }
  static InterconnectModel infiniband_qdr() {
    return {"ib-qdr", 1.3e-6, 3.2e9};
  }
  static InterconnectModel ten_gige() { return {"10gige", 20e-6, 1.18e9}; }
};

enum class Distribution { StripScatter, FullBroadcast };

[[nodiscard]] constexpr const char* distribution_name(Distribution d) noexcept {
  switch (d) {
    case Distribution::StripScatter: return "strip-scatter";
    case Distribution::FullBroadcast: return "full-broadcast";
  }
  return "?";
}

struct ClusterConfig {
  int ranks = 4;
  InterconnectModel network = InterconnectModel::gigabit_ethernet();
  Distribution distribution = Distribution::StripScatter;
  /// Per-node compute speed relative to this host (cluster nodes of the
  /// era were often slower per core than the measurement machine).
  double node_speed = 1.0;
};

/// Per-frame result beyond the functional output.
struct ClusterFrameStats {
  double seconds = 0.0;        ///< modeled end-to-end frame time
  double fps = 0.0;
  double compute_seconds = 0.0;   ///< sum over ranks (work)
  std::size_t bytes_scattered = 0;
  std::size_t bytes_gathered = 0;
  int ranks = 0;
  /// Speedup over doing all measured strip work on one node.
  double speedup = 0.0;
  double efficiency = 0.0;  ///< speedup / ranks
};

/// core::Backend adapter: FloatLut + bilinear + constant border (the
/// production configuration; matches the accelerator backends).
///
/// The plan is the distribution decision: the strip decomposition plus the
/// per-strip source bounding-box analysis (what each rank must be sent),
/// computed once per (geometry, map) instead of per frame. Registered with
/// BackendRegistry as "cluster" (see cluster_registry.cpp).
class ClusterSimBackend final : public core::Backend {
 public:
  explicit ClusterSimBackend(ClusterConfig config) : config_(config) {}

  using Backend::execute;
  [[nodiscard]] core::ExecutionPlan plan(
      const core::ExecContext& ctx) override;
  void execute(const core::ExecutionPlan& plan,
               const core::ExecContext& ctx) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const ClusterFrameStats& last_stats() const noexcept {
    return last_stats_;
  }
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }

 private:
  ClusterConfig config_;
  ClusterFrameStats last_stats_;
};

}  // namespace fisheye::cluster

// Process-level sharding backend: one supervisor, N forked workers.
//
// The paper scales the remap across cores of one address space (pool,
// OpenMP) and across simulated machines (cluster:). This backend is the
// step between the two that production video servers actually deploy:
// REAL processes on one host, so a crashed or wedged decoder takes down
// its strip, not the server. The supervisor owns the Corrector plan and a
// SharedFrame (shared_frame.hpp): one shared source and one shared output
// frame, since the supervisor runs one frame at a time. Each worker is a
// fork of the planned process executing the same resolved scalar kernel
// over its row strip of every frame (source in, strips out, sequence
// counters + futex doorbells). The mapping is also the only control
// channel: a worker inherits its strip and heartbeat period through fork,
// and reports liveness by bumping the heartbeat word of its WorkerSlab on
// start and after every doorbell wait.
//
// Supervision: a monitor thread reaps crashed workers (waitpid), respawns
// them with a bumped epoch (a fork that fails leaves the shard dead and is
// retried on the next tick), marks silent ones stalled after a heartbeat
// timeout, and SIGKILLs workers that stay wedged. A worker whose
// supervisor dies exits on its next wait tick (its parent pid changed). A
// frame never waits on a dead or stalled worker past the frame deadline —
// the supervisor computes the missing strips itself with the same kernel,
// so output is bit-exact (the scalar kernel is deterministic) and every
// frame completes; `kill -9` costs at most one frame's latency, not the
// stream.
//
// Spec: shard:<N> | shard:workers=N[,timeout_ms=T][,heartbeat_ms=H]
//       [,map=...]   (see shard_registry.cpp)
//
// Construction does NOT fork — the fleet (frame + processes + monitor) is
// created at plan() time, when the frame geometry is known, and torn down
// with the plan's state. Steady-state execute() is allocation-free and
// zero-copy on the source when the caller writes frames directly into
// next_input().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "image/image.hpp"
#include "runtime/stats.hpp"

namespace fisheye::shard {

struct ShardOptions {
  int workers = 4;  ///< processes to fork (clamped to output rows at plan)
  /// Frame deadline: after this long the supervisor stops waiting and
  /// computes unfinished strips locally.
  int timeout_ms = 2000;
  /// Worker heartbeat period; a worker silent for ~4 heartbeats is
  /// stalled (strips lease to the supervisor), ~10 gets SIGKILLed.
  int heartbeat_ms = 100;
};

/// One worker's supervision snapshot (tests and the bench poke at this).
struct ShardWorkerInfo {
  int shard = 0;            ///< strip index == worker index
  long pid = -1;            ///< current process (-1 while dead)
  bool live = false;        ///< heartbeating and assigned
  std::uint32_t epoch = 0;  ///< respawn generation (1 = original fork)
};

class WorkerFleet;

/// See the header comment. Thread-safety follows Backend: plan() from any
/// thread, one frame in flight per plan. The fleet lives in the plan's
/// shared state, so copies of the plan share the same worker processes.
class ShardBackend final : public core::Backend {
 public:
  explicit ShardBackend(ShardOptions options = {});
  ~ShardBackend() override;

  using Backend::execute;
  [[nodiscard]] core::ExecutionPlan plan(const core::ExecContext& ctx) override;
  void execute(const core::ExecutionPlan& plan,
               const core::ExecContext& ctx) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const ShardOptions& options() const noexcept {
    return options_;
  }

  /// Cumulative transport/supervision counters of the most recent fleet.
  [[nodiscard]] rt::ShardStats last_stats() const;
  /// Per-worker supervision snapshots of the most recent fleet.
  [[nodiscard]] std::vector<ShardWorkerInfo> workers_info() const;

  /// The shared source frame every execute() reads. A caller that
  /// renders/decodes the next frame directly into this view skips the
  /// supervisor's source copy entirely (execute detects src.data == this
  /// view's data).
  [[nodiscard]] img::View8 next_input() const;

 private:
  ShardOptions options_;
  /// Most recent plan's fleet (shared with the plan's state), kept so the
  /// accessors above work without holding the plan.
  std::shared_ptr<WorkerFleet> fleet_;
};

}  // namespace fisheye::shard

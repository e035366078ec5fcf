// Process-sharding backend: correctness and supervision. The hard
// guarantees under test: shard output is bit-exact with serial (same
// scalar kernel, disjoint strips, regardless of which side of the fork
// computes a strip); a SIGKILLed worker costs at most frame latency —
// never a wrong pixel — and is respawned; a stopped (silent) worker is
// detected as stalled and its strips lease back to the supervisor; a late
// worker never publishes its strip of an earlier frame into a later one;
// a respawn whose fork fails leaves the host running; workers whose
// supervisor dies exit, and they hold none of the host's descriptors.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>

#ifdef __linux__
#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif

#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "image/image.hpp"
#include "runtime/timer.hpp"
#include "shard/shard_backend.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "video/pipeline.hpp"

namespace fisheye::shard {
namespace {

using core::Corrector;
using util::deg_to_rad;

constexpr int kW = 96;
constexpr int kH = 64;

img::Image8 fisheye_frame(int index, int ch = 1) {
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, deg_to_rad(180.0), kW, kH);
  const video::SyntheticVideoSource source(cam, kW, kH, ch);
  return source.frame(index);
}

/// Wait (bounded) until `pred` holds; returns whether it did.
template <class Pred>
bool eventually(Pred pred, double timeout_s = 10.0) {
  const rt::Stopwatch sw;
  while (sw.elapsed_seconds() < timeout_s) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

#ifdef __linux__
/// Installs a seccomp filter that fails clone and clone3 with EAGAIN in
/// every thread of this process, so neither fork nor a new thread can
/// start. Returns false when the host has no seccomp (or an unknown arch).
bool forbid_clone() {
#if defined(__x86_64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_AARCH64;
#else
  constexpr std::uint32_t kArch = 0;
#endif
  if (kArch == 0) return false;
  sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, kArch, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_clone, 2, 0),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_clone3, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | EAGAIN),
  };
  const sock_fprog prog{static_cast<unsigned short>(std::size(filter)),
                        filter};
  return prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         syscall(SYS_seccomp, SECCOMP_SET_MODE_FILTER,
                 SECCOMP_FILTER_FLAG_TSYNC, &prog) == 0;
}
#endif

struct Harness {
  Corrector corr = Corrector::builder(kW, kH).fov_degrees(180.0).build();
  core::SerialBackend serial;

  img::Image8 reference(const img::Image8& src) {
    img::Image8 ref(kW, kH, src.view().channels);
    corr.correct(src.view(), ref.view(), serial);
    return ref;
  }
};

TEST(Shard, MatchesSerialBitExact) {
  Harness h;
  for (const int ch : {1, 3}) {
    ShardOptions o;
    o.workers = 4;
    o.heartbeat_ms = 20;
    ShardBackend backend(o);
    const Corrector::Prepared prepared = h.corr.prepare(backend, ch);
    for (int i = 0; i < 4; ++i) {
      const img::Image8 src = fisheye_frame(i, ch);
      const img::Image8 ref = h.reference(src);
      img::Image8 out(kW, kH, ch);
      h.corr.correct(prepared, src.view(), out.view());
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
          << backend.name() << " ch=" << ch << " frame " << i;
    }
    const rt::ShardStats st = backend.last_stats();
    EXPECT_EQ(st.workers, 4);
    EXPECT_EQ(st.frames, 4u);
    EXPECT_EQ(st.respawns, 0u);
  }
}

TEST(Shard, KilledWorkerIsRespawnedAndFramesStayBitExact) {
  Harness h;
  ShardOptions o;
  o.workers = 3;
  o.heartbeat_ms = 20;
  o.timeout_ms = 300;
  ShardBackend backend(o);
  const Corrector::Prepared prepared = h.corr.prepare(backend, 1);

  const img::Image8 src = fisheye_frame(0);
  const img::Image8 ref = h.reference(src);
  img::Image8 out(kW, kH, 1);
  h.corr.correct(prepared, src.view(), out.view());
  ASSERT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));

  std::vector<ShardWorkerInfo> info = backend.workers_info();
  ASSERT_EQ(info.size(), 3u);
  const long victim = info[1].pid;
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(static_cast<pid_t>(victim), SIGKILL), 0);

  // Every frame during the outage is complete and bit-exact — the
  // supervisor computes the dead shard's strip itself.
  for (int i = 0; i < 3; ++i) {
    out.fill(0);
    h.corr.correct(prepared, src.view(), out.view());
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()))
        << "frame during outage " << i;
  }

  // The monitor reaps and respawns shard 1 with a bumped epoch.
  ASSERT_TRUE(eventually([&] {
    const std::vector<ShardWorkerInfo> now = backend.workers_info();
    return now[1].live && now[1].pid > 0 && now[1].pid != victim &&
           now[1].epoch >= 2;
  })) << "worker was not respawned";
  EXPECT_GE(backend.last_stats().respawns, 1u);

  // Post-recovery frames are bit-exact, and the respawned worker takes
  // its strip back (a frame with no supervisor fallback).
  ASSERT_TRUE(eventually([&] {
    const std::size_t before = backend.last_stats().fallback_strips;
    out.fill(0);
    h.corr.correct(prepared, src.view(), out.view());
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
    return backend.last_stats().fallback_strips == before;
  })) << "respawned worker never resumed computing its strip";
}

TEST(Shard, StalledWorkerLeasesStripToSupervisor) {
  Harness h;
  ShardOptions o;
  o.workers = 2;
  o.heartbeat_ms = 20;
  o.timeout_ms = 150;
  ShardBackend backend(o);
  const Corrector::Prepared prepared = h.corr.prepare(backend, 1);

  const img::Image8 src = fisheye_frame(0);
  const img::Image8 ref = h.reference(src);
  img::Image8 out(kW, kH, 1);
  h.corr.correct(prepared, src.view(), out.view());
  ASSERT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));

  const long victim = backend.workers_info()[0].pid;
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(static_cast<pid_t>(victim), SIGSTOP), 0);

  // Frames stay bit-exact while the worker is silent; the monitor marks
  // it stalled (backpressure: the supervisor stops waiting on it).
  ASSERT_TRUE(eventually([&] {
    out.fill(0);
    h.corr.correct(prepared, src.view(), out.view());
    EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
    return backend.last_stats().stalls >= 1;
  })) << "stall was never detected";

  // Once stalled, frames no longer pay the deadline wait for that shard.
  const std::size_t before = backend.last_stats().fallback_strips;
  out.fill(0);
  h.corr.correct(prepared, src.view(), out.view());
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_GE(backend.last_stats().fallback_strips - before, 1u);

  // Resume (or, if the supervisor already escalated to SIGKILL, respawn):
  // either way the shard must come back live, and frames stay bit-exact.
  kill(static_cast<pid_t>(victim), SIGCONT);
  ASSERT_TRUE(eventually([&] {
    return backend.workers_info()[0].live;
  })) << "worker never came back after SIGCONT";
  out.fill(0);
  h.corr.correct(prepared, src.view(), out.view());
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

TEST(Shard, LateWorkerNeverPublishesAStaleStrip) {
  // Six distinct frames in rotation, so a strip of an earlier frame shows
  // as a wrong pixel. A stopped worker misses frames and wakes mid-stream
  // with old work; only its strips of the frame in flight may be copied
  // out of the shared output frame.
  constexpr int kDistinct = 6;
  Harness h;
  std::vector<img::Image8> srcs, refs;
  for (int i = 0; i < kDistinct; ++i) {
    srcs.push_back(fisheye_frame(i));
    refs.push_back(h.reference(srcs.back()));
  }
  ShardOptions o;
  o.workers = 3;
  o.timeout_ms = 40;
  o.heartbeat_ms = 20;
  ShardBackend backend(o);
  const Corrector::Prepared prepared = h.corr.prepare(backend, 1);
  img::Image8 out(kW, kH, 1);
  int frame = 0;
  const auto run = [&](int frames, const char* phase) {
    for (int i = 0; i < frames; ++i, ++frame) {
      const int f = frame % kDistinct;
      out.fill(0);
      h.corr.correct(prepared, srcs[f].view(), out.view());
      EXPECT_TRUE(img::equal_pixels<std::uint8_t>(refs[f].view(), out.view()))
          << phase << ": frame " << frame;
    }
  };
  run(kDistinct, "warm-up");

  const long victim = backend.workers_info()[1].pid;
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(static_cast<pid_t>(victim), SIGSTOP), 0);
  run(12, "stopped");
  // The monitor may already have killed and respawned it; then SIGCONT
  // reaches no one and the respawned worker is the late one.
  kill(static_cast<pid_t>(victim), SIGCONT);
  run(24, "resumed");
  ASSERT_TRUE(eventually([&] {
    run(1, "rejoining");
    return backend.workers_info()[1].live;
  })) << "worker never came back";
  run(12, "live again");
}

TEST(Shard, FailedRespawnLeavesTheHostRunning) {
#ifndef __linux__
  GTEST_SKIP() << "failing fork on demand needs seccomp";
#else
  // A host process plans a fleet, then makes every fork in every one of
  // its threads fail with EAGAIN and kills a worker: the monitor's respawn
  // fails. The host must keep correcting frames, bit-exact, with the
  // supervisor computing the dead shard's strip.
  constexpr int kNoSeccomp = 77;
  const pid_t host = fork();
  ASSERT_GE(host, 0);
  if (host == 0) {
    int code = 1;
    try {
      Harness h;
      ShardOptions o;
      o.workers = 2;
      o.timeout_ms = 100;
      o.heartbeat_ms = 20;
      ShardBackend backend(o);
      const Corrector::Prepared prepared = h.corr.prepare(backend, 1);
      const img::Image8 src = fisheye_frame(0);
      const img::Image8 ref = h.reference(src);
      img::Image8 out(kW, kH, 1);
      h.corr.correct(prepared, src.view(), out.view());
      if (!forbid_clone()) {
        code = kNoSeccomp;
      } else {
        kill(static_cast<pid_t>(backend.workers_info()[1].pid), SIGKILL);
        // The monitor reaps the worker and tries to fork its successor.
        eventually([&] { return backend.workers_info()[1].pid < 0; });
        bool exact = true;
        for (int i = 0; i < 20; ++i) {
          out.fill(0);
          h.corr.correct(prepared, src.view(), out.view());
          exact = exact &&
                  img::equal_pixels<std::uint8_t>(ref.view(), out.view());
        }
        code = exact && backend.last_stats().respawns == 0 ? 0 : 2;
      }
    } catch (...) {
      code = 3;
    }
    _exit(code);
  }
  int status = 0;
  while (waitpid(host, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == kNoSeccomp)
    GTEST_SKIP() << "seccomp is unavailable here";
  const bool signaled = WIFSIGNALED(status);
  ASSERT_FALSE(signaled) << "the host died of signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: no frame ran, 2: a frame differed or a respawn was counted, "
         "3: the host threw";
#endif
}

TEST(Shard, WorkersExitWhenTheSupervisorDies) {
#ifndef __linux__
  GTEST_SKIP() << "adopting orphaned workers needs PR_SET_CHILD_SUBREAPER";
#else
  constexpr int kWorkers = 2;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // As a child subreaper this process adopts the workers once their
  // supervisor is gone, so waitpid sees whether they exit.
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t supervisor = fork();
  if (supervisor < 0) prctl(PR_SET_CHILD_SUBREAPER, 0);
  ASSERT_GE(supervisor, 0);
  if (supervisor == 0) {
    // The supervisor leads its own process group, so the cleanup below
    // can reach every worker even if their pids never arrive.
    setpgid(0, 0);
    close(fds[0]);
    try {
      Harness h;
      ShardOptions o;
      o.workers = kWorkers;
      o.heartbeat_ms = 20;
      ShardBackend backend(o);
      const Corrector::Prepared prepared = h.corr.prepare(backend, 1);
      const img::Image8 src = fisheye_frame(0);
      img::Image8 out(kW, kH, 1);
      h.corr.correct(prepared, src.view(), out.view());
      long pids[kWorkers];
      const std::vector<ShardWorkerInfo> info = backend.workers_info();
      for (int i = 0; i < kWorkers; ++i) pids[i] = info[i].pid;
      if (write(fds[1], pids, sizeof pids) != static_cast<ssize_t>(sizeof pids))
        _exit(1);
      // Die without tearing the fleet down: no shutdown flag is set.
      raise(SIGKILL);
    } catch (...) {
    }
    _exit(1);
  }
  setpgid(supervisor, supervisor);
  close(fds[1]);

  // Read exactly the pids, not to EOF: the workers inherit the pipe.
  long pids[kWorkers] = {};
  std::size_t got = 0;
  while (got < sizeof pids) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t n =
        read(fds[0], reinterpret_cast<char*>(pids) + got, sizeof pids - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  if (got != sizeof pids) kill(supervisor, SIGKILL);
  int status = 0;
  while (waitpid(supervisor, &status, 0) < 0 && errno == EINTR) {
  }

  // The workers are this process's children now; each must exit by itself.
  bool reaped[kWorkers] = {};
  const rt::Stopwatch sw;
  for (;;) {
    bool all = true;
    for (int i = 0; i < kWorkers; ++i) {
      if (!reaped[i] && pids[i] > 0 &&
          waitpid(static_cast<pid_t>(pids[i]), &status, WNOHANG) == pids[i])
        reaped[i] = true;
      all = all && reaped[i];
    }
    if (all || sw.elapsed_seconds() >= 2.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Leave nothing behind: kill and reap what survived, then stop adopting.
  kill(-supervisor, SIGKILL);
  while (waitpid(-supervisor, &status, 0) > 0 || errno == EINTR) {
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0);

  ASSERT_EQ(got, sizeof pids) << "the supervisor never reported its workers";
  for (int i = 0; i < kWorkers; ++i)
    EXPECT_TRUE(reaped[i]) << "worker " << pids[i]
                           << " outlived its supervisor by 2 s";
#endif
}

TEST(Shard, WorkersDropInheritedDescriptors) {
  // A pipe the host opened before planning: once the host closes its write
  // end, the reader sees EOF, because no worker kept a copy.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  Harness h;
  ShardOptions o;
  o.workers = 2;
  o.heartbeat_ms = 20;
  ShardBackend backend(o);
  const Corrector::Prepared prepared = h.corr.prepare(backend, 1);
  const img::Image8 src = fisheye_frame(0);
  img::Image8 out(kW, kH, 1);
  h.corr.correct(prepared, src.view(), out.view());
  close(fds[1]);
  pollfd pfd{fds[0], POLLIN, 0};
  char byte = 0;
  const bool eof = poll(&pfd, 1, 1000) == 1 && read(fds[0], &byte, 1) == 0;
  close(fds[0]);
  EXPECT_TRUE(eof) << "a worker still holds the pipe's write end after 1 s";
}

TEST(Shard, ZeroCopyIngestSkipsSourceTransport) {
  Harness h;
  ShardOptions o;
  o.workers = 2;
  o.heartbeat_ms = 20;
  ShardBackend backend(o);
  const Corrector::Prepared prepared = h.corr.prepare(backend, 1);

  const img::Image8 src = fisheye_frame(0);
  const img::Image8 ref = h.reference(src);
  img::Image8 out(kW, kH, 1);

  // Copied path: transport counts the source.
  h.corr.correct(prepared, src.view(), out.view());
  const rt::ShardStats copied = backend.last_stats();
  EXPECT_GT(copied.transport_in_bytes, 0u);

  // Zero-copy path: render straight into the shared source frame;
  // execute() detects the aliasing and skips the staging copy.
  const img::View8 in = backend.next_input();
  ASSERT_EQ(in.width, kW);
  ASSERT_EQ(in.height, kH);
  for (int y = 0; y < kH; ++y)
    std::memcpy(in.row(y), src.view().row(y), static_cast<std::size_t>(kW));
  out.fill(0);
  h.corr.correct(prepared, in, out.view());
  const rt::ShardStats zero = backend.last_stats();
  EXPECT_EQ(zero.transport_in_bytes, copied.transport_in_bytes)
      << "zero-copy frame still staged its source";
  EXPECT_GT(zero.transport_out_bytes, copied.transport_out_bytes);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
}

TEST(Shard, RegistrySpecRoundTripsAndClampsToRows) {
  const std::unique_ptr<core::Backend> b =
      core::BackendRegistry::create("shard:4");
  EXPECT_EQ(b->name(), "shard:workers=4");
  const std::unique_ptr<core::Backend> b2 =
      core::BackendRegistry::create(b->name());
  EXPECT_EQ(b2->name(), b->name());
  EXPECT_EQ(core::BackendRegistry::create("shard:2,timeout_ms=100")->name(),
            "shard:workers=2,timeout_ms=100");
  // One frame in flight needs one shared frame; the old slot count is gone.
  EXPECT_THROW((void)core::BackendRegistry::create("shard:ring=2"),
               InvalidArgument);

  // More workers than output rows: the plan clamps the fleet, and the
  // tiny frame still corrects bit-exactly.
  Harness h;
  ShardOptions o;
  o.workers = 16;
  o.heartbeat_ms = 20;
  ShardBackend wide(o);
  const Corrector tiny = Corrector::builder(32, 8).fov_degrees(180.0).build();
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, deg_to_rad(180.0), 32, 8);
  const video::SyntheticVideoSource source(cam, 32, 8, 1);
  const img::Image8 src = source.frame(0);
  img::Image8 ref(32, 8, 1), out(32, 8, 1);
  tiny.correct(src.view(), ref.view(), h.serial);
  tiny.correct(src.view(), out.view(), wide);
  EXPECT_TRUE(img::equal_pixels<std::uint8_t>(ref.view(), out.view()));
  EXPECT_EQ(wide.last_stats().workers, 8);  // one strip per row
}

}  // namespace
}  // namespace fisheye::shard

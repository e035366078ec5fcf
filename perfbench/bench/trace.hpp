// In-memory span recorder for the benchmark's own call sites.
//
// Spans are recorded only while tracing is enabled; each thread appends to
// its own buffer (no lock on the record path), and the buffers outlive
// their threads so worker-side spans survive pool teardown. At the end of
// a traced run the spans are merged, turned into per-layer numbers, and
// written out as Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb::trace {

struct Span {
  const char* name = "";  ///< static string: frame, kernel, request, ...
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t id = 0;      ///< request/frame identity (shared by a request's spans)
  std::uint64_t parent = 0;  ///< id of the span that caused this one (0 = root)
  std::uint32_t tid = 0;
};

[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds since the recorder's epoch.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Append a finished span (no-op while disabled).
void record(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
            std::uint64_t id = 0, std::uint64_t parent = 0);

/// RAII span: measures its own lifetime.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t id = 0,
                 std::uint64_t parent = 0) noexcept
      : name_(name), id_(id), parent_(parent),
        t0_(enabled() ? now_ns() : -1) {}
  ~Scope() {
    if (t0_ >= 0) record(name_, t0_, now_ns(), id_, parent_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t t0_;
};

/// Every span recorded so far, from all threads. Call only while no
/// thread is recording.
[[nodiscard]] std::vector<Span> collect();

/// Durations (ns) of the spans named `name` in `spans`.
[[nodiscard]] std::vector<double> durations_ns(const std::vector<Span>& spans,
                                               const char* name);

/// Drop every recorded span (buffers keep their capacity).
void clear();

/// Write `spans` as Chrome trace-event JSON; returns false on I/O failure.
bool write_chrome(const std::string& path, const std::vector<Span>& spans);

}  // namespace pb::trace

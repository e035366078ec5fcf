#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace pb::trace {

namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};

std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<std::unique_ptr<Buffer>>& registry() {
  static std::vector<std::unique_ptr<Buffer>> buffers;
  return buffers;
}

Buffer& local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(std::size_t{1} << 15);
    const std::lock_guard<std::mutex> lock(registry_mu());
    owned->tid = static_cast<std::uint32_t>(registry().size() + 1);
    buf = owned.get();
    registry().push_back(std::move(owned));
  }
  return *buf;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void record(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
            std::uint64_t id, std::uint64_t parent) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  b.spans.push_back({name, t0_ns, t1_ns, id, parent, b.tid});
}

std::vector<Span> collect() {
  const std::lock_guard<std::mutex> lock(registry_mu());
  std::vector<Span> out;
  for (const auto& b : registry())
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::vector<double> durations_ns(const std::vector<Span>& spans,
                                 const char* name) {
  std::vector<double> out;
  const std::string key(name);
  for (const Span& s : spans)
    if (key == s.name) out.push_back(static_cast<double>(s.t1_ns - s.t0_ns));
  return out;
}

void clear() {
  const std::lock_guard<std::mutex> lock(registry_mu());
  for (const auto& b : registry()) b->spans.clear();
}

bool write_chrome(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}%s\n",
                 s.name, s.tid, static_cast<double>(s.t0_ns) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pb::trace

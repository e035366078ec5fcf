// BackendRegistry registration for the process-sharding backend ("shard"
// kind). Forced out of the static archive by the linker anchor below.
#include <memory>

#include "core/backend_registry.hpp"
#include "shard/shard_backend.hpp"

extern "C" void fisheye_shard_register_backends() {}

namespace fisheye::shard {

namespace {

constexpr const char* kShardOptions =
    "<N>|workers=N, timeout_ms=N, heartbeat_ms=N, "
    "map=float|packed|compact:<stride>";

std::unique_ptr<core::Backend> make_shard(core::BackendSpec& spec) {
  ShardOptions o;
  o.workers = spec.bare_int(o.workers);
  o.workers = spec.value_int("workers", o.workers);
  core::require_spec_range(spec, "workers", o.workers, 1, 64);
  o.timeout_ms = spec.value_int("timeout_ms", o.timeout_ms);
  core::require_spec_range(spec, "timeout_ms", o.timeout_ms, 1, 600000);
  o.heartbeat_ms = spec.value_int("heartbeat_ms", o.heartbeat_ms);
  core::require_spec_range(spec, "heartbeat_ms", o.heartbeat_ms, 1, 60000);
  auto backend = std::make_unique<ShardBackend>(o);
  core::apply_map_option(spec, *backend);
  spec.finish(kShardOptions);
  return backend;
}

const core::BackendRegistrar register_shard{"shard", kShardOptions,
                                            make_shard};

}  // namespace

}  // namespace fisheye::shard

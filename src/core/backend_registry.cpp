#include "core/backend_registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/cpu.hpp"
#include "util/error.hpp"

namespace fisheye::core {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

int parse_int(const std::string& spec, const std::string& key,
              const std::string& val) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(val, &used);
    if (used != val.size()) throw std::invalid_argument(val);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("backend spec '" + spec + "': option '" + key +
                          "' expects an integer, got '" + val + "'");
  }
}

double parse_double(const std::string& spec, const std::string& key,
                    const std::string& val) {
  try {
    std::size_t used = 0;
    const double v = std::stod(val, &used);
    if (used != val.size()) throw std::invalid_argument(val);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("backend spec '" + spec + "': option '" + key +
                          "' expects a number, got '" + val + "'");
  }
}

std::vector<int> parse_x_list(const std::string& spec, const std::string& key,
                              const std::string& val) {
  std::vector<int> out;
  for (const std::string& part : split(val, 'x'))
    out.push_back(parse_int(spec, key, part));
  return out;
}

}  // namespace

void require_spec_range(const BackendSpec& spec, const std::string& key,
                        long long v, long long lo, long long hi) {
  if (v < lo || v > hi)
    throw InvalidArgument("backend spec '" + spec.text() + "': option '" +
                          key + "' must be in [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "], got " + std::to_string(v));
}

BackendSpec BackendSpec::parse(const std::string& spec) {
  BackendSpec s;
  s.text_ = spec;
  const std::size_t colon = spec.find(':');
  s.kind_ = spec.substr(0, colon);
  if (s.kind_.empty())
    throw InvalidArgument("backend spec '" + spec + "': empty kind");
  if (colon == std::string::npos) return s;
  for (const std::string& part : split(spec.substr(colon + 1), ',')) {
    if (part.empty())
      throw InvalidArgument("backend spec '" + spec + "': empty option");
    Option opt;
    const std::size_t eq = part.find('=');
    opt.key = part.substr(0, eq);
    if (opt.key.empty())
      throw InvalidArgument("backend spec '" + spec + "': option '" + part +
                            "' has no name");
    if (eq != std::string::npos) {
      opt.has_value = true;
      opt.val = part.substr(eq + 1);
    }
    s.options_.push_back(std::move(opt));
  }
  return s;
}

bool BackendSpec::flag(const std::string& name) {
  for (Option& o : options_)
    if (!o.has_value && o.key == name) {
      o.used = true;
      return true;
    }
  return false;
}

std::optional<std::string> BackendSpec::value(const std::string& key) {
  for (Option& o : options_)
    if (o.has_value && o.key == key) {
      o.used = true;
      return o.val;
    }
  return std::nullopt;
}

int BackendSpec::value_int(const std::string& key, int def) {
  const auto v = value(key);
  return v ? parse_int(text_, key, *v) : def;
}

int BackendSpec::bare_int(int def) {
  for (Option& o : options_) {
    if (o.has_value || o.used) continue;
    if (o.key.empty() ||
        o.key.find_first_not_of("0123456789") != std::string::npos)
      continue;
    o.used = true;
    return parse_int(text_, o.key, o.key);
  }
  return def;
}

double BackendSpec::value_double(const std::string& key, double def) {
  const auto v = value(key);
  return v ? parse_double(text_, key, *v) : def;
}

std::pair<int, int> BackendSpec::value_dims(const std::string& key, int def_w,
                                            int def_h) {
  const auto v = value(key);
  if (!v) return {def_w, def_h};
  const std::vector<int> dims = parse_x_list(text_, key, *v);
  if (dims.size() != 2)
    throw InvalidArgument("backend spec '" + text_ + "': option '" + key +
                          "' expects WxH, got '" + *v + "'");
  return {dims[0], dims[1]};
}

std::vector<int> BackendSpec::value_int_list(const std::string& key,
                                             std::vector<int> def) {
  const auto v = value(key);
  if (!v) return def;
  std::vector<int> list = parse_x_list(text_, key, *v);
  if (list.size() != def.size())
    throw InvalidArgument("backend spec '" + text_ + "': option '" + key +
                          "' expects " + std::to_string(def.size()) +
                          " x-separated integers, got '" + *v + "'");
  return list;
}

void BackendSpec::finish(const std::string& valid) const {
  for (const Option& o : options_) {
    if (o.used) continue;
    throw InvalidArgument("backend spec '" + text_ + "': unknown option '" +
                          o.key + "' for kind '" + kind_ + "' (valid: " +
                          valid + ")");
  }
}

// ---------------------------------------------------------------------------

void apply_map_option(BackendSpec& spec, Backend& backend) {
  const auto v = spec.value("map");
  if (!v) return;
  try {
    backend.set_map_choice(MapChoice::parse(*v));
  } catch (const InvalidArgument& e) {
    throw InvalidArgument("backend spec '" + spec.text() + "': " +
                          e.what());
  }
}

namespace {

/// Parse a spec's `schedule=` option through ScheduleChoice, prefixing
/// errors with the offending spec text. Returns `def` when absent.
par::Schedule schedule_option(BackendSpec& spec, par::Schedule def) {
  const auto v = spec.value("schedule");
  if (!v) return def;
  try {
    return ScheduleChoice::parse(*v);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument("backend spec '" + spec.text() + "': " + e.what());
  }
}

/// Parse a spec's `tuned=` option, whose one value is `auto`. No-op when
/// absent.
void apply_tuned_option(BackendSpec& spec, CpuBackend& backend) {
  const auto v = spec.value("tuned");
  if (!v) return;
  if (*v != "auto")
    throw InvalidArgument("backend spec '" + spec.text() +
                          "': tuned=: expected 'auto', got '" + *v + "'");
  backend.autotune_on_first_plan();
}

/// Parse a spec's `threads=` option, range-checked; `def` when absent.
int threads_option(BackendSpec& spec, int def) {
  const int threads = spec.value_int("threads", def);
  require_spec_range(spec, "threads", threads, 0, 1024);
  return threads;
}

/// Parse a spec's `datapath=` option through DatapathChoice, prefixing
/// errors with the offending spec text. Returns `def` when absent.
KernelVariant datapath_option(BackendSpec& spec, KernelVariant def) {
  const auto v = spec.value("datapath");
  if (!v) return def;
  try {
    return DatapathChoice::parse(*v);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument("backend spec '" + spec.text() + "': " + e.what());
  }
}

/// The partition options `cpu` shares with its `pool` alias:
/// rows[=N]|cols[=N]|cyclic|tiles, chunks=N and tile=WxH.
void partition_options(BackendSpec& spec, CpuOptions& o) {
  if (const auto rows = spec.value("rows")) {
    o.partition = par::PartitionKind::RowBlocks;
    o.chunks = parse_int(spec.text(), "rows", *rows);
  } else if (spec.flag("rows")) {
    o.partition = par::PartitionKind::RowBlocks;
  } else if (const auto cols = spec.value("cols")) {
    o.partition = par::PartitionKind::ColumnBlocks;
    o.chunks = parse_int(spec.text(), "cols", *cols);
  } else if (spec.flag("cols")) {
    o.partition = par::PartitionKind::ColumnBlocks;
  } else if (spec.flag("cyclic")) {
    o.partition = par::PartitionKind::RowCyclic;
  } else if (spec.flag("tiles")) {
    o.partition = par::PartitionKind::Tiles;
  }
  o.chunks = spec.value_int("chunks", o.chunks);
  std::tie(o.tile_w, o.tile_h) = spec.value_dims("tile", o.tile_w, o.tile_h);
  require_spec_range(spec, "chunks/rows/cols", o.chunks, 0, 1 << 20);
  require_spec_range(spec, "tile", o.tile_w, 1, 1 << 16);
  require_spec_range(spec, "tile", o.tile_h, 1, 1 << 16);
}

/// Consume map= and tuned= into `backend`, then reject leftover options.
std::unique_ptr<Backend> finish_cpu(BackendSpec& spec,
                                    std::unique_ptr<CpuBackend> backend,
                                    const char* valid) {
  apply_map_option(spec, *backend);
  apply_tuned_option(spec, *backend);
  spec.finish(valid);
  return backend;
}

constexpr const char* kCpuOptions =
    "threads=N, schedule=static|dynamic|guided|steal, "
    "rows[=N]|cols[=N]|cyclic|tiles, chunks=N, tile=WxH, "
    "datapath=scalar|soa|gather, map=float|packed|compact:<stride>, "
    "tuned=auto";

std::unique_ptr<Backend> make_cpu(BackendSpec& spec) {
  CpuOptions o;
  o.schedule = schedule_option(spec, o.schedule);
  partition_options(spec, o);
  o.datapath = datapath_option(spec, o.datapath);
  const int threads = threads_option(spec, 1);
  return finish_cpu(
      spec,
      std::make_unique<CpuBackend>(o, static_cast<unsigned>(threads)),
      kCpuOptions);
}

constexpr const char* kPoolOptions =
    "static|dynamic|guided|steal (or schedule=static|dynamic|guided|steal), "
    "rows[=N]|cyclic|tiles|cols[=N], chunks=N, "
    "tile=WxH, threads=N, map=float|packed|compact:<stride>, "
    "tuned=auto";

/// `pool`: cpu over a named partition (rows by default), any number of
/// threads (0 = hardware concurrency, the default).
std::unique_ptr<Backend> make_pool(BackendSpec& spec) {
  CpuOptions o;
  o.partition = par::PartitionKind::RowBlocks;
  if (spec.flag("dynamic")) o.schedule = par::Schedule::Dynamic;
  if (spec.flag("guided")) o.schedule = par::Schedule::Guided;
  if (spec.flag("steal")) o.schedule = par::Schedule::Steal;
  spec.flag("static");  // the default; accepted for symmetry
  o.schedule = schedule_option(spec, o.schedule);
  partition_options(spec, o);
  const int threads = threads_option(spec, 0);
  return finish_cpu(
      spec,
      std::make_unique<CpuBackend>(o, static_cast<unsigned>(threads)),
      kPoolOptions);
}

constexpr const char* kSimdOptions =
    "threads=N (1 = no pool), datapath=scalar|soa|gather, "
    "map=float|packed|compact:<stride>, tuned=auto";

/// `simd`: cpu with the SoA datapath by default, the dynamic schedule on
/// more than one thread, and the process-wide pool when threads= is absent.
std::unique_ptr<Backend> make_simd(BackendSpec& spec) {
  const std::optional<std::string> tv = spec.value("threads");
  const int threads = tv ? parse_int(spec.text(), "threads", *tv) : -1;
  if (tv) require_spec_range(spec, "threads", threads, 0, 1024);
  CpuOptions o;
  if (threads != 1) o.schedule = par::Schedule::Dynamic;
  o.datapath = datapath_option(spec, KernelVariant::SimdSoa);
  return finish_cpu(
      spec,
      threads < 0 ? std::make_unique<CpuBackend>(par::default_pool(), o)
                  : std::make_unique<CpuBackend>(
                        o, static_cast<unsigned>(threads)),
      kSimdOptions);
}

constexpr const char* kOpenMpOptions =
    "threads=N, schedule=static|dynamic|guided|steal, "
    "map=float|packed|compact:<stride>";

/// `openmp`: the tiles the study's OpenMP loops ran, planned as a cpu spec
/// with `threads` lanes (0, the default, = the hardware thread count):
/// static is one row block per lane, dynamic and guided take the 4 x
/// threads row blocks from the shared cursor, steal runs 64x64 tiles.
std::unique_ptr<Backend> make_openmp(BackendSpec& spec) {
  int threads = threads_option(spec, 0);
  if (threads == 0)
    threads = static_cast<int>(util::cpu_info().hardware_threads);
  CpuOptions o;
  o.schedule = schedule_option(spec, o.schedule);
  switch (o.schedule) {
    case par::Schedule::Static:
      o.partition = par::PartitionKind::RowBlocks;
      o.chunks = threads;
      break;
    case par::Schedule::Dynamic:
    case par::Schedule::Guided:
      o.schedule = par::Schedule::Dynamic;
      // One thread plans a whole-frame tile unless row blocks are named.
      if (threads == 1) {
        o.partition = par::PartitionKind::RowBlocks;
        o.chunks = 4;
      }
      break;
    case par::Schedule::Steal:
      o.partition = par::PartitionKind::Tiles;
      break;
  }
  auto backend =
      std::make_unique<CpuBackend>(o, static_cast<unsigned>(threads));
  apply_map_option(spec, *backend);
  spec.finish(kOpenMpOptions);
  return backend;
}

}  // namespace

BackendRegistry::BackendRegistry() {
  // Core CPU kinds are registered here rather than via static objects so
  // they exist the moment anyone reaches the registry. `serial`, `pool`,
  // `simd` and `openmp` are aliases: each builds a CpuBackend named by a
  // cpu: spec.
  add("cpu", kCpuOptions, make_cpu);
  add("serial", "cpu alias, one thread; map=float|packed|compact:<stride>",
      [](BackendSpec& spec) -> std::unique_ptr<Backend> {
        auto backend = std::make_unique<CpuBackend>();
        apply_map_option(spec, *backend);
        spec.finish("map=float|packed|compact:<stride>");
        return backend;
      });
  add("pool", std::string("cpu alias; ") + kPoolOptions, make_pool);
  add("simd", std::string("cpu alias; ") + kSimdOptions, make_simd);
  add("openmp", std::string("cpu alias; ") + kOpenMpOptions, make_openmp);
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(std::string kind, std::string summary,
                          Factory factory) {
  const std::scoped_lock lock(mu_);
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), kind,
      [](const auto& e, const std::string& k) { return e.first < k; });
  if (it != entries_.end() && it->first == kind) {
    it->second = Entry{std::move(summary), std::move(factory)};
    return;
  }
  entries_.insert(it, {std::move(kind),
                       Entry{std::move(summary), std::move(factory)}});
}

bool BackendRegistry::has(const std::string& kind) const {
  const std::scoped_lock lock(mu_);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return e.first == kind; });
}

std::vector<std::string> BackendRegistry::kinds() const {
  const std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.first);
  return out;
}

std::vector<std::pair<std::string, std::string>> BackendRegistry::help()
    const {
  const std::scoped_lock lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.emplace_back(e.first, e.second.summary);
  return out;
}

std::unique_ptr<Backend> BackendRegistry::create(const std::string& spec) {
  BackendSpec parsed = BackendSpec::parse(spec);
  BackendRegistry& reg = instance();
  Factory factory;
  std::string summary;
  {
    const std::scoped_lock lock(reg.mu_);
    const auto it = std::find_if(
        reg.entries_.begin(), reg.entries_.end(),
        [&](const auto& e) { return e.first == parsed.kind(); });
    if (it == reg.entries_.end()) {
      std::ostringstream os;
      os << "unknown backend kind '" << parsed.kind() << "' in spec '"
         << spec << "'; registered kinds:";
      for (const auto& e : reg.entries_) os << ' ' << e.first;
      throw InvalidArgument(os.str());
    }
    factory = it->second.factory;
    summary = it->second.summary;
  }
  std::unique_ptr<Backend> backend = factory(parsed);
  // Registry-level backstop: even if a factory forgets its own finish(),
  // no spec with unconsumed (typo'd or unknown) options ever constructs a
  // backend silently — the leftover token is named in the error.
  parsed.finish(summary);
  return backend;
}

}  // namespace fisheye::core

// String-spec backend factory.
//
// A backend spec is `kind[:option,option,...]` where each option is a bare
// flag (`dbuf`) or `key=value` (`threads=4`, `tile=128x32`). Examples:
//
//   cpu:threads=4,schedule=steal,tiles,datapath=gather
//   serial                      (aliases of cpu: serial, pool, simd,
//   pool:dynamic,rows=16,threads=8          openmp)
//   pool:guided,tiles,tile=128x64
//   simd:threads=4
//   openmp:threads=4,schedule=dynamic
//   cell:spes=4,sbuf            (linking fisheye_accel)
//   gpu:sms=16,clock=1.5
//   fpga:clock=100,cache=32x8x8x1
//   cluster:ranks=8,net=ib      (linking fisheye_cluster)
//
// Backend::name() returns the canonical spec of the instance, so any
// backend can be reconstructed with BackendRegistry::create(b.name()).
// Core CPU kinds are always registered; the accelerator and cluster kinds
// self-register from their libraries (every bench/example/test links them).
// Unknown kinds and unknown options fail with InvalidArgument
// diagnostics that list what is available.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"

namespace fisheye::core {

/// Assembles a canonical `kind[:opt,opt,...]` spec string; backends use it
/// to implement name() so that create(name()) round-trips.
class SpecBuilder {
 public:
  explicit SpecBuilder(std::string kind) : spec_(std::move(kind)) {}

  SpecBuilder& opt(const std::string& option) {
    spec_ += first_ ? ':' : ',';
    spec_ += option;
    first_ = false;
    return *this;
  }

  template <class T>
  SpecBuilder& opt(const std::string& key, const T& value) {
    std::ostringstream os;
    os << key << '=' << value;
    return opt(os.str());
  }

  [[nodiscard]] const std::string& str() const noexcept { return spec_; }

 private:
  std::string spec_;
  bool first_ = true;
};

/// Parsed spec with consumption tracking: factories pull the options they
/// understand, then finish() rejects anything left over by name.
class BackendSpec {
 public:
  /// Splits `spec` into kind and options. Throws InvalidArgument on
  /// empty kinds, empty options, or malformed syntax.
  static BackendSpec parse(const std::string& spec);

  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

  /// True when flag `name` appears (consumed).
  bool flag(const std::string& name);
  /// The value of `key=...` if present (consumed).
  std::optional<std::string> value(const std::string& key);
  /// `key=N` as int; `def` when absent. Throws on non-numeric values.
  int value_int(const std::string& key, int def);
  /// First unconsumed bare all-digit option as int (`shard:4`); `def` when
  /// absent. The shorthand form of a kind's primary count option.
  int bare_int(int def);
  /// `key=X` as double; `def` when absent.
  double value_double(const std::string& key, double def);
  /// `key=WxH` as a dimension pair; `{def_w, def_h}` when absent.
  std::pair<int, int> value_dims(const std::string& key, int def_w,
                                 int def_h);
  /// `key=AxBxCxD` as four ints; `def` when absent.
  std::vector<int> value_int_list(const std::string& key,
                                  std::vector<int> def);

  /// Throws InvalidArgument naming the first unconsumed option;
  /// `valid` describes the options this kind accepts.
  void finish(const std::string& valid) const;

 private:
  struct Option {
    std::string key;
    std::string val;
    bool has_value = false;
    bool used = false;
  };

  std::string text_;
  std::string kind_;
  std::vector<Option> options_;
};

/// Process-wide factory keyed by spec kind.
class BackendRegistry {
 public:
  /// The factory receives the parsed spec with the kind already consumed;
  /// it must consume its options and call finish().
  using Factory = std::function<std::unique_ptr<Backend>(BackendSpec&)>;

  static BackendRegistry& instance();

  /// Register `kind`; `summary` is a one-line option synopsis shown in
  /// diagnostics and help(). Re-registering a kind replaces it.
  void add(std::string kind, std::string summary, Factory factory);

  [[nodiscard]] bool has(const std::string& kind) const;
  /// Registered kinds, sorted.
  [[nodiscard]] std::vector<std::string> kinds() const;
  /// (kind, summary) pairs, sorted by kind — for CLI usage text.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> help() const;

  /// Parse `spec` and build the backend. Throws InvalidArgument for
  /// unknown kinds (listing registered ones) or bad options.
  static std::unique_ptr<Backend> create(const std::string& spec);

 private:
  BackendRegistry();

  struct Entry {
    std::string summary;
    Factory factory;
  };

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Entry>> entries_;  ///< sorted by kind
};

/// Consume the spec's `map=` option (if present) into `backend`'s map
/// choice. Shared by every factory whose kind supports representation
/// conversion; throws InvalidArgument naming the offending token for
/// unknown map formats or bad strides.
void apply_map_option(BackendSpec& spec, Backend& backend);

/// Factory-level bounds check: throws InvalidArgument (user input, not a
/// contract violation) when `v` falls outside [lo, hi], naming the spec and
/// option. Every factory validates its numeric options with this so no
/// spec string can reach an internal FE_EXPECTS deeper in the stack.
void require_spec_range(const BackendSpec& spec, const std::string& key,
                        long long v, long long lo, long long hi);

/// Static-object helper for self-registering translation units.
struct BackendRegistrar {
  BackendRegistrar(std::string kind, std::string summary,
                   BackendRegistry::Factory factory) {
    BackendRegistry::instance().add(std::move(kind), std::move(summary),
                                    std::move(factory));
  }
};

}  // namespace fisheye::core

// Robustness: no backend spec string, however malformed, may crash the
// process or trip an internal contract. Every BackendSpec::parse or
// BackendRegistry::create outcome is either a constructed backend or an
// InvalidArgument naming the problem. Deterministic "fuzzing": random byte
// soup, structured token soup assembled from the real option vocabulary,
// and targeted out-of-range values for every numeric option.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/backend_registry.hpp"
#include "core/model_spec.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fisheye::core {
namespace {

/// Parse must either succeed or throw InvalidArgument; anything else
/// (another exception type, a contract abort) fails the test.
void expect_parse_no_crash(const std::string& spec) {
  try {
    (void)BackendSpec::parse(spec);
  } catch (const InvalidArgument&) {
    // expected for garbage
  }
}

/// Same guarantee one level up: registry create either builds a working
/// backend (whose name() must itself round-trip through parse) or throws
/// InvalidArgument.
void expect_create_no_crash(const std::string& spec) {
  try {
    const std::unique_ptr<Backend> b = BackendRegistry::create(spec);
    ASSERT_NE(b, nullptr) << spec;
    EXPECT_FALSE(b->name().empty()) << spec;
  } catch (const InvalidArgument&) {
    // expected for out-of-range or unknown options
  }
}

TEST(FuzzBackendSpec, ParseRandomByteSoup) {
  util::Rng rng(401);
  for (int trial = 0; trial < 500; ++trial) {
    std::string spec(rng.next_below(64), '\0');
    for (char& c : spec) c = static_cast<char>(rng.next_below(256));
    expect_parse_no_crash(spec);
  }
}

TEST(FuzzBackendSpec, ParsePunctuationSoup) {
  // The separators themselves, in every broken arrangement.
  util::Rng rng(402);
  const char alphabet[] = {':', ',', '=', 'x', 'a', '1', '-', '.', ' '};
  for (int trial = 0; trial < 500; ++trial) {
    std::string spec(rng.next_below(24), '\0');
    for (char& c : spec)
      c = alphabet[rng.next_below(sizeof(alphabet))];
    expect_parse_no_crash(spec);
  }
}

// Token soup: random but plausible specs assembled from the real kind and
// option vocabulary, so the corpus exercises every factory's validation
// paths rather than dying at the parser.
TEST(FuzzBackendSpec, CreateTokenSoupNeverCrashes) {
  const std::vector<std::string> kinds = {
      "cpu",  "serial", "pool",    "simd",  "openmp", "cell",
      "gpu",  "fpga",   "cluster", "shard", "bogus",  ""};
  const std::vector<std::string> keys = {
      "threads", "rows",  "cols", "chunks", "tile", "spes", "ls",
      "sms",     "clock", "tex",  "cache",  "block", "bram", "ddr",
      "ranks",   "net",   "speed", "map",   "schedule", "cpp", "junk",
      "datapath", "tuned", "workers", "ring", "timeout_ms", "heartbeat_ms"};
  const std::vector<std::string> values = {
      "-1",       "0",     "1",       "2",     "3",        "4",
      "7",        "8",     "64",      "100000", "99999999999999",
      "3.5",      "-2.5",  "zzz",     "",      "16x16",    "0x0",
      "32x8x8x1", "3x8x8x1", "8x8x8x0", "float", "packed",
      "compact:4", "compact:3", "compact:zz", "steal", "dynamic",
      "rr",       "gige",  "ib",   "scalar", "soa",   "gather", "auto",
      "AUTO",     "auto/9", "gather/256/-/-", "datapath=gather",
      "tile=64x64"};
  const std::vector<std::string> flags = {"dbuf", "sbuf", "scatter",
                                          "bcast", "tiles", "junkflag"};
  util::Rng rng(403);
  for (int trial = 0; trial < 400; ++trial) {
    std::string spec = kinds[rng.next_below(kinds.size())];
    const std::size_t nopts = rng.next_below(4);
    for (std::size_t i = 0; i < nopts; ++i) {
      spec += i == 0 ? ':' : ',';
      if (rng.next_below(4) == 0) {
        spec += flags[rng.next_below(flags.size())];
      } else {
        spec += keys[rng.next_below(keys.size())];
        spec += '=';
        spec += values[rng.next_below(values.size())];
      }
    }
    expect_create_no_crash(spec);
  }
}

// Every numeric option has a factory-level range guard, so hostile values
// surface as InvalidArgument instead of reaching a contract check (or an
// allocation sized from the value) deeper in the stack.
TEST(FuzzBackendSpec, OutOfRangeValuesThrowInvalidArgument) {
  const char* bad[] = {
      "pool:threads=-2",    "pool:threads=100000", "pool:rows=-1",
      "pool:tile=0x0",      "pool:tile=100000x100000",
      "simd:threads=-2",    "simd:threads=100000",
      "cpu:threads=-2",     "cpu:threads=100000",  "cpu:tile=0x0",
      "cpu:datapath=avx9",
      "cell:spes=0",        "cell:spes=100000",    "cell:tile=1x1",
      "cell:ls=16",         "cell:cpp=0",          "cell:cpp=-1",
      "gpu:sms=0",          "gpu:sms=100000",      "gpu:block=2",
      "gpu:block=64",       "gpu:tex=3x8x8x1",     "gpu:tex=8x8x8x0",
      "fpga:cache=5x8x8x1", "fpga:cache=8x8x8x100", "fpga:bram=-5",
      "fpga:ddr=-1",        "cluster:ranks=0",     "cluster:ranks=100000",
      "cluster:speed=0",    "cluster:speed=-2",
      "shard:0",            "shard:-1",            "shard:65",
      "shard:workers=0",    "shard:workers=100000",
      "shard:timeout_ms=0", "shard:heartbeat_ms=0",
      "shard:heartbeat_ms=99999999", "shard:4,8",  "shard:workers=zzz",
      "simd:datapath=avx9", "simd:datapath=",      "pool:datapath=soa",
      "simd:tuned=zzz",     "simd:tuned=auto/9",   "simd:tuned=gather/256/-/-",
      "cpu:tuned=AUTO",     "cpu:tuned=",          "pool:tuned=tile=64x64",
      "serial:tuned=auto",  "openmp:tuned=auto",
  };
  for (const char* spec : bad)
    EXPECT_THROW((void)BackendRegistry::create(spec), InvalidArgument)
        << spec;
}

TEST(FuzzBackendSpec, UnknownOptionsNameTheToken) {
  // Satellite guarantee: a typo'd option is rejected with the offending
  // token in the message, for every registered kind.
  for (const std::string& kind : BackendRegistry::instance().kinds()) {
    try {
      (void)BackendRegistry::create(kind + ":bogus_option=1");
      FAIL() << kind << " accepted an unknown option";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("bogus_option"),
                std::string::npos)
          << kind << ": " << e.what();
    }
  }
}

// Serve specs ride the same convention and get the same guarantee: parse
// either yields options (whose canonical spec() round-trips) or throws
// InvalidArgument — never a crash, never a contract abort.
void expect_serve_parse_no_crash(const std::string& spec) {
  try {
    const serve::ServeOptions o = serve::ServeOptions::parse(spec);
    EXPECT_EQ(serve::ServeOptions::parse(o.spec()).spec(), o.spec()) << spec;
  } catch (const InvalidArgument&) {
    // expected for garbage
  }
}

TEST(FuzzBackendSpec, ServeRandomByteSoupNeverCrashes) {
  util::Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::string spec = "serve";
    const std::size_t n = rng.next_below(32);
    for (std::size_t i = 0; i < n; ++i)
      spec += static_cast<char>(rng.next_below(256));
    expect_serve_parse_no_crash(spec);
  }
}

TEST(FuzzBackendSpec, ServeTokenSoupNeverCrashes) {
  const std::vector<std::string> keys = {
      "lanes", "queue_depth", "pending", "cache_budget", "quantum",
      "coalesce", "map", "frac", "tile", "threads", "junk"};
  const std::vector<std::string> values = {
      "-1", "0", "1", "2", "4", "16", "17", "64", "65", "256", "4096",
      "100000", "99999999999999999999", "3.5", "zzz", "", "on", "off",
      "maybe", "float", "packed", "compact:8", "compact:0", "compact:zz",
      "16x16", "0x0", "8K", "128M", "2G", "1T", "12Q", "Mlots", "16k",
      "0x10", "-8M"};
  util::Rng rng(405);
  for (int trial = 0; trial < 400; ++trial) {
    std::string spec = "serve";
    const std::size_t nopts = rng.next_below(5);
    for (std::size_t i = 0; i < nopts; ++i) {
      spec += i == 0 ? ':' : ',';
      spec += keys[rng.next_below(keys.size())];
      spec += '=';
      spec += values[rng.next_below(values.size())];
    }
    expect_serve_parse_no_crash(spec);
  }
}

TEST(FuzzBackendSpec, ServeOutOfRangeValuesThrowInvalidArgument) {
  const char* bad[] = {
      "serve:lanes=0",          "serve:lanes=-1",
      "serve:lanes=100000",     "serve:queue_depth=0",
      "serve:queue_depth=65",   "serve:pending=0",
      "serve:pending=99999999", "serve:quantum=0",
      "serve:quantum=3",        "serve:quantum=1024",
      "serve:coalesce=yes",     "serve:map=onthefly",
      "serve:map=compact:0",    "serve:frac=0",
      "serve:frac=23",          "serve:tile=0x0",
      "serve:tile=7x7",         "serve:tile=1024x1024",
      "serve:cache_budget=-1",  "serve:cache_budget=1T",
      "serve:cache_budget=K",   "serve:cache_budget=9999999999999999999",
      "serve:map=compact:16,quantum=4",
      "pool:lanes=2",           "serve:unknown_opt=3",
  };
  for (const char* spec : bad)
    EXPECT_THROW((void)serve::ServeOptions::parse(spec), InvalidArgument)
        << spec;
}

TEST(FuzzBackendSpec, InRangeSpecsRoundTrip) {
  // Positive control for the fuzz corpus: well-formed specs build, and the
  // canonical name reparses to an equivalent backend.
  const char* good[] = {
      "serial",
      "pool:dynamic,rows=4,threads=2",
      "simd:threads=2",
      "simd:threads=1,tuned=auto",
      "cell:spes=4,sbuf,tile=64x16",
      "gpu:sms=16,block=16,tex=32x8x8x1",
      "fpga:clock=100,cache=32x8x8x1",
      "cluster:ranks=4,net=gige,scatter",
      "shard:4",
      "shard:workers=2,timeout_ms=500,heartbeat_ms=50",
  };
  for (const char* spec : good) {
    const std::unique_ptr<Backend> b = BackendRegistry::create(spec);
    ASSERT_NE(b, nullptr) << spec;
    const std::unique_ptr<Backend> b2 = BackendRegistry::create(b->name());
    EXPECT_EQ(b2->name(), b->name()) << spec;
  }
}

// Lens/view specs (core/model_spec.hpp) ride the same convention: parse
// either yields a value whose canonical name() round-trips, or throws
// InvalidArgument — never a crash, never a contract abort.
void expect_lens_parse_no_crash(const std::string& spec) {
  try {
    const LensSpec o = LensSpec::parse(spec);
    EXPECT_EQ(LensSpec::parse(o.name()).name(), o.name()) << spec;
  } catch (const InvalidArgument&) {
    // expected for garbage
  }
}

void expect_view_parse_no_crash(const std::string& spec) {
  try {
    const ViewSpec o = ViewSpec::parse(spec);
    EXPECT_EQ(ViewSpec::parse(o.name()).name(), o.name()) << spec;
  } catch (const InvalidArgument&) {
    // expected for garbage
  }
}

TEST(FuzzModelSpec, RandomByteSoupNeverCrashes) {
  util::Rng rng(406);
  for (int trial = 0; trial < 500; ++trial) {
    std::string spec(rng.next_below(48), '\0');
    for (char& c : spec) c = static_cast<char>(rng.next_below(256));
    expect_lens_parse_no_crash(spec);
    expect_view_parse_no_crash(spec);
    // The registry-token prefix form takes the same path.
    expect_lens_parse_no_crash("lens=" + spec);
    expect_view_parse_no_crash("view=" + spec);
  }
}

TEST(FuzzModelSpec, TokenSoupNeverCrashes) {
  const std::vector<std::string> kinds = {
      "equidistant", "equisolid",  "orthographic", "stereographic",
      "rectilinear", "kannala_brandt", "division",
      "perspective", "cylindrical", "equirect", "quadview", "bogus", ""};
  const std::vector<std::string> keys = {"k1",   "k2",   "k3",   "k4",
                                         "lambda", "fov",  "hfov", "vfov",
                                         "tilt", "junk"};
  const std::vector<std::string> values = {
      "-1",  "0",    "1",     "2",   "90",   "160", "180", "181", "360",
      "361", "-0.25", "0.25", "-5",  "5",    "6",   "-11", "1e9", "-1e9",
      "nan", "inf",  "-inf",  "zzz", "",     "3..5", "0x10", "1e",
      "--2", "1,2"};
  util::Rng rng(407);
  for (int trial = 0; trial < 400; ++trial) {
    std::string spec = kinds[rng.next_below(kinds.size())];
    const std::size_t nopts = rng.next_below(5);
    for (std::size_t i = 0; i < nopts; ++i) {
      spec += i == 0 ? ':' : ',';
      spec += keys[rng.next_below(keys.size())];
      spec += '=';
      spec += values[rng.next_below(values.size())];
    }
    expect_lens_parse_no_crash(spec);
    expect_view_parse_no_crash(spec);
  }
}

TEST(FuzzModelSpec, OutOfRangeValuesThrowInvalidArgument) {
  const char* bad_lens[] = {
      "kannala_brandt:k1=9",      "kannala_brandt:k3=-6",
      "kannala_brandt:k4=nan",    "division:lambda=1",
      "division:lambda=-11",      "division:lambda=inf",
      "equidistant:fov=0",        "equidistant:fov=361",
      "equidistant:fov=-90",      "equidistant:fov=nan",
      "equidistant:k1=0.1",       "division:k2=0.1",
      "kannala_brandt:lambda=-1", "rectilinear:fov=180",
      "orthographic:fov=200",     "stereographic:junk=1",
      "fisheye",                  "",
  };
  for (const char* spec : bad_lens)
    EXPECT_THROW((void)LensSpec::parse(spec), InvalidArgument) << spec;

  const char* bad_view[] = {
      "perspective:fov=180",  "perspective:fov=-1",
      "perspective:hfov=90",  "cylindrical:hfov=0",
      "cylindrical:hfov=361", "cylindrical:tilt=10",
      "equirect:vfov=181",    "equirect:hfov=nan",
      "quadview:fov=0",       "quadview:fov=179.5",
      "quadview:tilt=91",     "quadview:tilt=-1",
      "quadview:hfov=90",     "fishbowl",
      "",
  };
  for (const char* spec : bad_view)
    EXPECT_THROW((void)ViewSpec::parse(spec), InvalidArgument) << spec;
}

}  // namespace
}  // namespace fisheye::core

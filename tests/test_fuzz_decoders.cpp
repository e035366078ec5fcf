// Robustness: the file decoders must never crash, loop, or allocate
// absurdly on malformed input — every outcome is either a valid image or
// an IoError. Deterministic "fuzzing": random byte soup, truncated valid
// files, and random single-byte mutations of valid files.
#include <gtest/gtest.h>

#include <string>

#include "core/map_io.hpp"
#include "core/mapping.hpp"
#include "core/projection.hpp"
#include "image/io_bmp.hpp"
#include "image/io_pnm.hpp"
#include "image/synth.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace fisheye::img {
namespace {

template <class DecodeFn>
void expect_no_crash(DecodeFn&& decode, const std::string& bytes) {
  try {
    const Image8 im = decode(bytes);
    // If it decoded, the result must be sane.
    EXPECT_GT(im.width(), 0);
    EXPECT_GT(im.height(), 0);
    EXPECT_LE(static_cast<long long>(im.width()) * im.height(),
              1LL << 28);
  } catch (const IoError&) {
    // expected for garbage
  } catch (const InvalidArgument&) {
    // contract rejection is acceptable too
  }
}

TEST(FuzzPnm, RandomByteSoup) {
  util::Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = rng.next_below(512);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_below(256));
    expect_no_crash([](const std::string& b) { return decode_pnm(b); },
                    bytes);
  }
}

TEST(FuzzPnm, SoupWithValidMagic) {
  util::Rng rng(102);
  const char* magics[] = {"P5\n", "P6\n", "P2\n", "P3\n"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = magics[trial % 4];
    const std::size_t len = rng.next_below(256);
    for (std::size_t i = 0; i < len; ++i)
      bytes += static_cast<char>(rng.next_below(256));
    expect_no_crash([](const std::string& b) { return decode_pnm(b); },
                    bytes);
  }
}

TEST(FuzzPnm, TruncationsOfValidFile) {
  const Image8 im = make_gradient(31, 17);
  const std::string valid = encode_pnm(im.view());
  for (std::size_t cut = 0; cut < valid.size(); cut += 7)
    expect_no_crash([](const std::string& b) { return decode_pnm(b); },
                    valid.substr(0, cut));
}

TEST(FuzzPnm, SingleByteMutationsOfValidFile) {
  const Image8 im = make_checkerboard(16, 16, 4);
  const std::string valid = encode_pnm(im.view());
  util::Rng rng(103);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = valid;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(rng.next_below(256));
    expect_no_crash([](const std::string& b) { return decode_pnm(b); },
                    mutated);
  }
}

TEST(FuzzBmp, RandomByteSoup) {
  util::Rng rng(201);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = rng.next_below(512);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_below(256));
    expect_no_crash([](const std::string& b) { return decode_bmp(b); },
                    bytes);
  }
}

TEST(FuzzBmp, SoupWithValidMagic) {
  util::Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = "BM";
    const std::size_t len = 52 + rng.next_below(256);
    for (std::size_t i = 0; i < len; ++i)
      bytes += static_cast<char>(rng.next_below(256));
    expect_no_crash([](const std::string& b) { return decode_bmp(b); },
                    bytes);
  }
}

TEST(FuzzBmp, TruncationsOfValidFile) {
  Image8 im(13, 9, 3);
  im.fill(42);
  const std::string valid = encode_bmp(im.view());
  for (std::size_t cut = 0; cut < valid.size(); cut += 5)
    expect_no_crash([](const std::string& b) { return decode_bmp(b); },
                    valid.substr(0, cut));
}

TEST(FuzzBmp, SingleByteMutationsOfValidFile) {
  Image8 im(12, 8, 3);
  const std::string valid = encode_bmp(im.view());
  util::Rng rng(203);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = valid;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(rng.next_below(256));
    expect_no_crash([](const std::string& b) { return decode_bmp(b); },
                    mutated);
  }
}

// Map decoders get the same treatment: every outcome on malformed input is
// a decoded map or an IoError -- never a crash, hang, or giant allocation.
void expect_map_no_crash(const std::string& bytes) {
  try {
    const core::CompactMap m = core::decode_compact_map(bytes);
    EXPECT_GT(m.width, 0);
    EXPECT_GT(m.height, 0);
    EXPECT_EQ(m.gx.size(),
              static_cast<std::size_t>(m.grid_w) * m.grid_h);
  } catch (const IoError&) {
    // expected for garbage
  }
}

std::string valid_compact_bytes() {
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::deg_to_rad(180.0), 24, 18);
  const core::PerspectiveView view(24, 18, cam.lens().focal());
  const core::WarpMap map = core::build_map(cam, view);
  return core::encode_map(core::compact_map(map, 24, 18, 4));
}

TEST(FuzzCompactMap, RandomByteSoup) {
  util::Rng rng(301);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes(rng.next_below(512), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_below(256));
    expect_map_no_crash(bytes);
  }
}

TEST(FuzzCompactMap, SoupWithValidMagicAndKind) {
  util::Rng rng(302);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = "FEMAP1\n";
    bytes += '\x02';  // compact kind tag
    const std::size_t len = rng.next_below(256);
    for (std::size_t i = 0; i < len; ++i)
      bytes += static_cast<char>(rng.next_below(256));
    expect_map_no_crash(bytes);
  }
}

TEST(FuzzCompactMap, TruncationsOfValidFile) {
  const std::string valid = valid_compact_bytes();
  for (std::size_t cut = 0; cut < valid.size(); cut += 3)
    expect_map_no_crash(valid.substr(0, cut));
}

TEST(FuzzCompactMap, SingleByteMutationsOfValidFile) {
  const std::string valid = valid_compact_bytes();
  util::Rng rng(303);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>(rng.next_below(256));
    expect_map_no_crash(mutated);
  }
}

TEST(FuzzCompactMap, HeaderDimensionBombsRejected) {
  // A header claiming absurd dimensions must be rejected by the size checks
  // before any allocation sized from it.
  std::string bytes = "FEMAP1\n";
  bytes += '\x02';
  auto put_i32 = [&bytes](std::int32_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), 4);
  };
  put_i32(1999999999);  // width
  put_i32(1999999999);  // height
  put_i32(8);           // stride
  put_i32(14);          // frac_bits
  put_i32(1999999999);  // src_width
  put_i32(1999999999);  // src_height
  bytes.append(8, '\0');  // error fields
  expect_map_no_crash(bytes);
}

TEST(FuzzPnm, HeaderDimensionBombsRejected) {
  // Absurd dimensions must be rejected before any giant allocation.
  expect_no_crash([](const std::string& b) { return decode_pnm(b); },
                  "P5\n999999999 999999999\n255\n");
  expect_no_crash([](const std::string& b) { return decode_pnm(b); },
                  "P5\n2147483647 1\n255\nxx");
}

}  // namespace
}  // namespace fisheye::img

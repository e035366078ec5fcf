// Warp-map serialization: round trips, corruption detection, fuzz.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/map_io.hpp"
#include "core/remap.hpp"
#include "image/image.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace fisheye::core {
namespace {

using util::deg_to_rad;

WarpMap test_map(int w = 96, int h = 64) {
  const auto cam = FisheyeCamera::centered(LensKind::Equidistant,
                                           deg_to_rad(180.0), w, h);
  const PerspectiveView view(w, h, cam.lens().focal());
  return build_map(cam, view);
}

TEST(MapIo, FloatRoundTripIsBitExact) {
  const WarpMap map = test_map();
  const WarpMap back = decode_map(encode_map(map));
  ASSERT_EQ(back.width, map.width);
  ASSERT_EQ(back.height, map.height);
  for (std::size_t i = 0; i < map.pixel_count(); ++i) {
    ASSERT_EQ(back.src_x[i], map.src_x[i]) << i;
    ASSERT_EQ(back.src_y[i], map.src_y[i]) << i;
  }
}

TEST(MapIo, PackedRoundTripIsBitExact) {
  const WarpMap map = test_map();
  const PackedMap packed = pack_map(map, 96, 64, 12);
  const PackedMap back = decode_packed_map(encode_map(packed));
  ASSERT_EQ(back.frac_bits, 12);
  for (std::size_t i = 0; i < packed.fx.size(); ++i) {
    ASSERT_EQ(back.fx[i], packed.fx[i]);
    ASSERT_EQ(back.fy[i], packed.fy[i]);
  }
}

TEST(MapIo, CompactRoundTripIsBitExact) {
  const WarpMap map = test_map();
  const CompactMap cm = compact_map(map, 96, 64, 8, 12);
  const CompactMap back = decode_compact_map(encode_map(cm));
  ASSERT_EQ(back.width, cm.width);
  ASSERT_EQ(back.height, cm.height);
  ASSERT_EQ(back.stride, 8);
  ASSERT_EQ(back.frac_bits, 12);
  ASSERT_EQ(back.src_width, 96);
  ASSERT_EQ(back.src_height, 64);
  ASSERT_EQ(back.grid_w, cm.grid_w);
  ASSERT_EQ(back.grid_h, cm.grid_h);
  EXPECT_EQ(back.gx, cm.gx);
  EXPECT_EQ(back.gy, cm.gy);
  EXPECT_FLOAT_EQ(back.max_error, cm.max_error);
  EXPECT_FLOAT_EQ(back.mean_error, cm.mean_error);
}

TEST(MapIo, CompactFileRoundTripDrivesRemapIdentically) {
  const WarpMap map = test_map();
  const CompactMap cm = compact_map(map, 96, 64, 8);
  const std::string path = ::testing::TempDir() + "/fe_map_io_compact.femap";
  save_map(path, cm);
  const CompactMap loaded = load_compact_map(path);
  std::remove(path.c_str());

  fisheye::img::Image8 src(96, 64, 1);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 96; ++x)
      src.at(x, y) = static_cast<std::uint8_t>((x * 7 + y * 13) & 0xFF);
  fisheye::img::Image8 a(96, 64, 1), b(96, 64, 1);
  remap_compact_rect(src.view(), a.view(), cm, {0, 0, 96, 64}, 0);
  remap_compact_rect(src.view(), b.view(), loaded, {0, 0, 96, 64}, 0);
  EXPECT_TRUE(fisheye::img::equal_pixels<std::uint8_t>(a.view(), b.view()));
}

TEST(MapIo, FileRoundTrip) {
  const WarpMap map = test_map(40, 30);
  const std::string path = ::testing::TempDir() + "/fe_map_io.femap";
  save_map(path, map);
  const WarpMap back = load_map(path);
  EXPECT_EQ(back.width, 40);
  EXPECT_EQ(back.src_x, map.src_x);
  std::remove(path.c_str());
  EXPECT_THROW(load_map(path), fisheye::IoError);  // now missing
}

TEST(MapIo, KindMismatchRejected) {
  const WarpMap map = test_map(16, 16);
  const std::string float_bytes = encode_map(map);
  EXPECT_THROW(decode_packed_map(float_bytes), fisheye::IoError);
  EXPECT_THROW(decode_compact_map(float_bytes), fisheye::IoError);
  const std::string packed_bytes = encode_map(pack_map(map, 16, 16, 14));
  EXPECT_THROW(decode_map(packed_bytes), fisheye::IoError);
  const std::string compact_bytes =
      encode_map(compact_map(map, 16, 16, 4));
  EXPECT_THROW(decode_map(compact_bytes), fisheye::IoError);
  EXPECT_THROW(decode_packed_map(compact_bytes), fisheye::IoError);
}

TEST(MapIo, CompactCorruptionAndTruncationDetected) {
  const WarpMap map = test_map(16, 16);
  const CompactMap cm = compact_map(map, 16, 16, 4);
  std::string bytes = encode_map(cm);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_THROW(decode_compact_map(flipped), fisheye::IoError);
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
                          bytes.size() - 1})
    EXPECT_THROW(decode_compact_map(bytes.substr(0, cut)), fisheye::IoError)
        << "cut=" << cut;
}

TEST(MapIo, CorruptionDetected) {
  const WarpMap map = test_map(16, 16);
  std::string bytes = encode_map(map);
  // Flip one payload byte: checksum must catch it.
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_THROW(decode_map(bytes), fisheye::IoError);
}

TEST(MapIo, TruncationDetected) {
  const WarpMap map = test_map(16, 16);
  const std::string bytes = encode_map(map);
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
                          bytes.size() - 1})
    EXPECT_THROW(decode_map(bytes.substr(0, cut)), fisheye::IoError)
        << "cut=" << cut;
}

TEST(MapIo, FuzzRandomBytes) {
  util::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes(rng.next_below(200), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_below(256));
    EXPECT_THROW(decode_map(bytes), fisheye::IoError);
    EXPECT_THROW(decode_packed_map(bytes), fisheye::IoError);
    EXPECT_THROW(decode_compact_map(bytes), fisheye::IoError);
  }
}

TEST(MapIo, FuzzMutationsOfValidCompactFile) {
  const WarpMap map = test_map(12, 10);
  const std::string valid = encode_map(compact_map(map, 12, 10, 4));
  util::Rng rng(79);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>(rng.next_below(256));
    try {
      const CompactMap m = decode_compact_map(mutated);
      EXPECT_EQ(m.width, 12);
      EXPECT_EQ(m.height, 10);
    } catch (const fisheye::IoError&) {
      // expected for nearly all mutations
    }
  }
}

TEST(MapIo, FuzzMutationsOfValidFile) {
  const std::string valid = encode_map(test_map(12, 10));
  util::Rng rng(78);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>(rng.next_below(256));
    try {
      const WarpMap m = decode_map(mutated);
      // A mutation that survives the checksum untouched must decode to the
      // original geometry sizes.
      EXPECT_EQ(m.width, 12);
      EXPECT_EQ(m.height, 10);
    } catch (const fisheye::IoError&) {
      // expected for nearly all mutations
    }
  }
}

// --- provenance (kinds 3/4/5) -----------------------------------------------

TEST(MapIoProvenance, RoundTripsThroughAllRepresentations) {
  const WarpMap map = test_map(24, 18);
  const MapProvenance prov{"kannala_brandt:k1=-0.02,k2=0.002,k3=0,k4=0",
                           "perspective"};
  const std::string fbytes = encode_map(map, prov);
  const std::string pbytes = encode_map(pack_map(map, 24, 18, 12), prov);
  const std::string cbytes = encode_map(compact_map(map, 24, 18, 4), prov);
  EXPECT_EQ(decode_provenance(fbytes), prov);
  EXPECT_EQ(decode_provenance(pbytes), prov);
  EXPECT_EQ(decode_provenance(cbytes), prov);

  // Matching expectation decodes bit-exactly; the stamped kind also
  // decodes through the expectation-free legacy API.
  const WarpMap back = decode_map(fbytes, prov);
  EXPECT_EQ(back.src_x, map.src_x);
  EXPECT_EQ(back.src_y, map.src_y);
  EXPECT_EQ(decode_map(fbytes).src_x, map.src_x);
  EXPECT_EQ(decode_packed_map(pbytes, prov).fx,
            decode_packed_map(pbytes).fx);
  EXPECT_EQ(decode_compact_map(cbytes, prov).gx,
            decode_compact_map(cbytes).gx);

  // A partial expectation checks only its non-empty fields.
  EXPECT_NO_THROW((decode_map(fbytes, MapProvenance{prov.lens, ""})));
  EXPECT_NO_THROW(decode_map(fbytes, MapProvenance{}));
}

TEST(MapIoProvenance, MismatchRefusedNamingBothModels) {
  const WarpMap map = test_map(24, 18);
  const MapProvenance prov{"division:lambda=-0.5", "perspective"};
  const std::string bytes = encode_map(map, prov);
  const MapProvenance other{"equidistant", "perspective"};
  try {
    (void)decode_map(bytes, other);
    FAIL() << "mismatched provenance accepted";
  } catch (const fisheye::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("division:lambda=-0.5"), std::string::npos) << what;
    EXPECT_NE(what.find("equidistant"), std::string::npos) << what;
  }
  EXPECT_THROW((decode_map(bytes, MapProvenance{prov.lens, "quadview"})),
               fisheye::IoError);
}

TEST(MapIoProvenance, LegacyFilesLoadUnconditionally) {
  const WarpMap map = test_map(24, 18);
  const std::string bytes = encode_map(map);  // unstamped, kind 0
  EXPECT_EQ(decode_provenance(bytes), MapProvenance{});
  // An unstamped file can't contradict any expectation.
  EXPECT_NO_THROW((decode_map(bytes, MapProvenance{"equidistant", ""})));
  EXPECT_NO_THROW(
      (decode_map(bytes, MapProvenance{"division:lambda=-1", "quadview"})));
}

TEST(MapIoProvenance, FileRoundTripEnforcesExpectation) {
  const WarpMap map = test_map(24, 18);
  const MapProvenance prov{"equisolid:fov=160", "cylindrical:hfov=200"};
  const std::string path = ::testing::TempDir() + "/fe_map_io_prov.femap";
  save_map(path, map, prov);
  EXPECT_EQ(load_map(path, prov).src_x, map.src_x);
  EXPECT_EQ(load_map(path).src_x, map.src_x);  // expectation-free load
  EXPECT_THROW((load_map(path, MapProvenance{"equidistant", ""})),
               fisheye::IoError);
  std::remove(path.c_str());
}

TEST(MapIoProvenance, KindByteFlipsNeverCrash) {
  // The checksum covers everything *after* the kind byte, so promoting a
  // legacy file to a stamped kind (or vice versa) passes the checksum and
  // must be caught by the provenance/size validation instead.
  const std::string legacy = encode_map(test_map(12, 10));
  for (const char kind : {3, 4, 5, 1, 2, 6, 127}) {
    std::string mutated = legacy;
    mutated[7] = kind;  // kind byte sits right after "FEMAP1\n"
    EXPECT_THROW((void)decode_map(mutated), fisheye::IoError) << int(kind);
    try {
      (void)decode_provenance(mutated);
    } catch (const fisheye::IoError&) {
      // expected for most flips
    }
  }
  const std::string stamped =
      encode_map(test_map(12, 10), {"equidistant", "perspective"});
  for (const char kind : {0, 1, 2, 4, 5, 6}) {
    std::string mutated = stamped;
    mutated[7] = kind;
    EXPECT_THROW((void)decode_map(mutated), fisheye::IoError) << int(kind);
  }
}

TEST(MapIoProvenance, FuzzMutationsOfStampedFile) {
  const std::string valid =
      encode_map(test_map(12, 10), {"division:lambda=-0.25", "quadview"});
  util::Rng rng(80);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>(rng.next_below(256));
    try {
      const WarpMap m =
          decode_map(mutated, MapProvenance{"division:lambda=-0.25", ""});
      EXPECT_EQ(m.width, 12);
      EXPECT_EQ(m.height, 10);
    } catch (const fisheye::IoError&) {
      // expected for nearly all mutations
    }
    try {
      (void)decode_provenance(mutated);
    } catch (const fisheye::IoError&) {
      // expected
    }
  }
}

TEST(MapIoProvenance, TruncatedProvenanceBlockDetected) {
  const std::string stamped = encode_map(
      test_map(12, 10), {"kannala_brandt:k1=0.1,k2=0,k3=0,k4=0", "equirect"});
  for (std::size_t cut :
       {std::size_t{8}, std::size_t{9}, std::size_t{12}, std::size_t{20}})
    EXPECT_THROW((void)decode_provenance(stamped.substr(0, cut)),
                 fisheye::IoError)
        << "cut=" << cut;
}

TEST(MapIo, LoadedMapDrivesRemapIdentically) {
  const WarpMap map = test_map();
  const std::string path = ::testing::TempDir() + "/fe_map_io2.femap";
  save_map(path, map);
  const WarpMap loaded = load_map(path);
  std::remove(path.c_str());

  fisheye::img::Image8 src(96, 64, 1);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 96; ++x)
      src.at(x, y) = static_cast<std::uint8_t>((x * 7 + y * 13) & 0xFF);
  fisheye::img::Image8 a(96, 64, 1), b(96, 64, 1);
  const RemapOptions opts;
  remap_rect(src.view(), a.view(), map, {0, 0, 96, 64}, opts);
  remap_rect(src.view(), b.view(), loaded, {0, 0, 96, 64}, opts);
  EXPECT_TRUE(fisheye::img::equal_pixels<std::uint8_t>(a.view(), b.view()));
}

}  // namespace
}  // namespace fisheye::core

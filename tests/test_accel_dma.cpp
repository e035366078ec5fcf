// DMA copies: exact windows, round trips, alignment and capacity rules.
#include <gtest/gtest.h>

#include "accel/dma.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fisheye::accel {
namespace {

img::Image8 random_image(int w, int h, int ch, std::uint64_t seed) {
  util::Rng rng(seed);
  img::Image8 im(w, h, ch);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w * ch; ++x)
      im.row(y)[x] = static_cast<std::uint8_t>(rng.next_below(256));
  return im;
}

TEST(Dma, GetRectCopiesExactWindow) {
  const img::Image8 src = random_image(32, 16, 3, 1);
  const par::Rect box{5, 3, 21, 11};
  util::AlignedBuffer<std::uint8_t> local(
      static_cast<std::size_t>(box.area()) * 3);
  const std::size_t moved =
      dma_get_rect(src.view(), box, local.data(), local.size());
  EXPECT_EQ(moved, static_cast<std::size_t>(box.area()) * 3);
  for (int y = 0; y < box.height(); ++y)
    for (int x = 0; x < box.width(); ++x)
      for (int c = 0; c < 3; ++c)
        EXPECT_EQ(local[(static_cast<std::size_t>(y) * box.width() + x) * 3 + c],
                  src.at(box.x0 + x, box.y0 + y, c));
}

TEST(Dma, PutRectRoundTrip) {
  const img::Image8 src = random_image(24, 24, 1, 2);
  img::Image8 dst(24, 24, 1);
  const par::Rect box{4, 8, 20, 16};
  util::AlignedBuffer<std::uint8_t> local(
      static_cast<std::size_t>(box.area()));
  dma_get_rect(src.view(), box, local.data(), local.size());
  dma_put_rect(local.data(), dst.view(), box);
  for (int y = box.y0; y < box.y1; ++y)
    for (int x = box.x0; x < box.x1; ++x)
      EXPECT_EQ(dst.at(x, y), src.at(x, y));
  // Outside the box untouched (zero).
  EXPECT_EQ(dst.at(0, 0), 0);
  EXPECT_EQ(dst.at(23, 23), 0);
}

TEST(Dma, CapacityViolationThrows) {
  const img::Image8 src = random_image(32, 32, 1, 5);
  util::AlignedBuffer<std::uint8_t> local(100);
  EXPECT_THROW(
      dma_get_rect(src.view(), {0, 0, 32, 32}, local.data(), local.size()),
      fisheye::InvalidArgument);
}

TEST(Dma, MisalignedLocalViolatesContract) {
  const img::Image8 src = random_image(8, 8, 1, 5);
  util::AlignedBuffer<std::uint8_t> local(256);
  EXPECT_THROW(
      dma_get_rect(src.view(), {0, 0, 8, 8}, local.data() + 1, 128),
      fisheye::InvalidArgument);
}

TEST(Dma, OutOfImageRectViolatesContract) {
  const img::Image8 src = random_image(8, 8, 1, 5);
  util::AlignedBuffer<std::uint8_t> local(256);
  EXPECT_THROW(
      dma_get_rect(src.view(), {0, 0, 9, 8}, local.data(), local.size()),
      fisheye::InvalidArgument);
  img::Image8 dst(8, 8, 1);
  EXPECT_THROW(dma_put_rect(local.data(), dst.view(), {-1, 0, 4, 4}),
               fisheye::InvalidArgument);
}

}  // namespace
}  // namespace fisheye::accel

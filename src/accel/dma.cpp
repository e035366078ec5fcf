#include "accel/dma.hpp"

#include <cstring>

#include "util/error.hpp"

namespace fisheye::accel {

std::size_t dma_get_rect(img::ConstImageView<std::uint8_t> src, par::Rect box,
                         std::uint8_t* local, std::size_t local_capacity) {
  FE_EXPECTS(!box.empty());
  FE_EXPECTS(box.x0 >= 0 && box.y0 >= 0 && box.x1 <= src.width &&
             box.y1 <= src.height);
  FE_EXPECTS(reinterpret_cast<std::uintptr_t>(local) % kDmaAlignment == 0);
  const std::size_t row_bytes =
      static_cast<std::size_t>(box.width()) * src.channels;
  const std::size_t total = row_bytes * static_cast<std::size_t>(box.height());
  FE_EXPECTS(total <= local_capacity);
  for (int y = box.y0; y < box.y1; ++y)
    std::memcpy(local + row_bytes * static_cast<std::size_t>(y - box.y0),
                src.row(y) + static_cast<std::size_t>(box.x0) * src.channels,
                row_bytes);
  return total;
}

std::size_t dma_get_linear(const void* src, std::size_t bytes,
                           std::uint8_t* local, std::size_t local_capacity) {
  FE_EXPECTS(bytes <= local_capacity);
  FE_EXPECTS(reinterpret_cast<std::uintptr_t>(local) % kDmaAlignment == 0);
  std::memcpy(local, src, bytes);
  return bytes;
}

std::size_t dma_put_rect(const std::uint8_t* local,
                         img::ImageView<std::uint8_t> dst, par::Rect box) {
  FE_EXPECTS(!box.empty());
  FE_EXPECTS(box.x0 >= 0 && box.y0 >= 0 && box.x1 <= dst.width &&
             box.y1 <= dst.height);
  FE_EXPECTS(reinterpret_cast<std::uintptr_t>(local) % kDmaAlignment == 0);
  const std::size_t row_bytes =
      static_cast<std::size_t>(box.width()) * dst.channels;
  for (int y = box.y0; y < box.y1; ++y)
    std::memcpy(dst.row(y) + static_cast<std::size_t>(box.x0) * dst.channels,
                local + row_bytes * static_cast<std::size_t>(y - box.y0),
                row_bytes);
  return row_bytes * static_cast<std::size_t>(box.height());
}

}  // namespace fisheye::accel

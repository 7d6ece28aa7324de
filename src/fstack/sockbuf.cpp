#include "fstack/sockbuf.hpp"

#include <algorithm>
#include <stdexcept>

#include "fstack/checksum.hpp"

namespace cherinet::fstack {

namespace {
constexpr std::size_t kScratch = 2048;
}

std::size_t SockBuf::write_from(const machine::CapView& src,
                                std::size_t src_off, std::size_t n,
                                std::uint32_t* csum) {
  n = std::min(n, free());
  std::byte scratch[kScratch];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t tail = (head_ + used_) % cap_;
    const std::size_t contig = std::min(n - done, cap_ - tail);
    const std::size_t chunk = std::min(contig, sizeof scratch);
    src.read(src_off + done, std::span<std::byte>{scratch, chunk});
    if (csum != nullptr) {
      *csum = checksum_partial_at({scratch, chunk}, done, *csum);
    }
    mem_.write(tail, std::span<const std::byte>{scratch, chunk});
    used_ += chunk;
    done += chunk;
  }
  return done;
}

std::size_t SockBuf::phys_spans(std::size_t off, std::size_t n,
                                PhysSpan out[2]) const {
  if (off + n > used_) {
    throw std::out_of_range("SockBuf::phys_spans beyond buffered data");
  }
  if (n == 0) return 0;
  const std::size_t start = (head_ + off) % cap_;
  const std::size_t contig = std::min(n, cap_ - start);
  out[0] = {start, contig};
  if (contig == n) return 1;
  out[1] = {0, n - contig};
  return 2;
}

void SockBuf::peek(std::size_t off, std::span<std::byte> out) const {
  if (off + out.size() > used_) {
    throw std::out_of_range("SockBuf::peek beyond buffered data");
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t pos = (head_ + off + done) % cap_;
    const std::size_t chunk = std::min(out.size() - done, cap_ - pos);
    mem_.read(pos, out.subspan(done, chunk));
    done += chunk;
  }
}

void SockBuf::consume(std::size_t n) {
  if (n > used_) {
    throw std::out_of_range("SockBuf::consume beyond buffered data");
  }
  head_ = (head_ + n) % cap_;
  used_ -= n;
}

}  // namespace cherinet::fstack

#include "src/common/serialize.h"

#include <stdexcept>

namespace hcpp::io {

void Writer::u8(uint8_t v) { buf_.push_back(v); }

void Writer::u32(uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void Writer::u64(uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void Writer::bytes(BytesView b) {
  if (b.size() > UINT32_MAX) throw std::length_error("Writer::bytes: too long");
  u32(static_cast<uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  bytes(BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

void Writer::raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Reader::need(size_t n) const {
  if (buf_.size() - pos_ < n) {
    throw std::out_of_range("Reader: truncated input");
  }
}

void Reader::expect_done(std::string_view what) const {
  if (!done()) {
    throw std::invalid_argument(std::string(what) + ": trailing bytes");
  }
}

uint8_t Reader::u8() {
  need(1);
  return buf_[pos_++];
}

uint32_t Reader::u32() {
  need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | buf_[pos_++];
  return v;
}

uint64_t Reader::u64() {
  need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | buf_[pos_++];
  return v;
}

Bytes Reader::bytes() {
  uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

size_t Reader::count32(size_t min_elem_bytes) {
  return checked_count(u32(), min_elem_bytes);
}

size_t Reader::count64(size_t min_elem_bytes) {
  return checked_count(u64(), min_elem_bytes);
}

size_t Reader::checked_count(uint64_t n, size_t min_elem_bytes) const {
  const size_t per_elem = min_elem_bytes == 0 ? 1 : min_elem_bytes;
  if (n > remaining() / per_elem) {
    throw std::out_of_range("Reader: element count exceeds available bytes");
  }
  return static_cast<size_t>(n);
}

Bytes Reader::raw(size_t n) {
  need(n);
  Bytes out(buf_.begin() + static_cast<ptrdiff_t>(pos_),
            buf_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace hcpp::io

// Minimal deterministic binary serialization used for wire messages, the SSE
// secure index, and stored records. Big-endian, length-prefixed; the encoded
// size is exactly what the communication benchmarks charge to the network.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace hcpp::io {

/// Append-only encoder.
class Writer {
 public:
  void u8(uint8_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  /// Length-prefixed (u32) byte string.
  void bytes(BytesView b);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes with no length prefix (caller knows the fixed width).
  void raw(BytesView b);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Sequential decoder over a borrowed buffer. Throws std::out_of_range on
/// truncated input (malformed wire data must never be silently accepted).
class Reader {
 public:
  explicit Reader(BytesView b) noexcept : buf_(b) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  Bytes bytes();
  std::string str();
  Bytes raw(size_t n);
  /// Element count (u32/u64 prefix) validated against the bytes still
  /// available: each element consumes at least `min_elem_bytes` of input, so
  /// a count promising more elements than the buffer could hold is rejected
  /// here — before any caller reserve()/resize() turns an attacker-chosen
  /// length into a giant allocation.
  size_t count32(size_t min_elem_bytes = 1);
  size_t count64(size_t min_elem_bytes = 1);

  [[nodiscard]] bool done() const noexcept { return pos_ == buf_.size(); }
  /// Throws std::invalid_argument, naming `what`, unless every byte was read:
  /// a parser that ignores trailing bytes lets two encodings decode alike.
  void expect_done(std::string_view what) const;
  [[nodiscard]] size_t remaining() const noexcept { return buf_.size() - pos_; }

 private:
  void need(size_t n) const;
  size_t checked_count(uint64_t n, size_t min_elem_bytes) const;
  BytesView buf_;
  size_t pos_ = 0;
};

}  // namespace hcpp::io

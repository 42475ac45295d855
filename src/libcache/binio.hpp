// Explicit little-endian binary encoding for the compiled-library
// artifact (libcache/compiled_library.hpp).
//
// The artifact must load on any host that wrote it, so every multi-byte
// value is serialized byte-by-byte in little-endian order — no
// memcpy-of-struct, no host-endianness, no padding.  Doubles travel as
// their IEEE-754 bit patterns, which is what makes the cache-loaded
// library *bit-identical* to the fresh-parsed one (delays and areas
// compare with ==, not with an epsilon, downstream).
//
// The reader is written for adversarial input: every primitive read is
// bounds-checked against the buffer, and every count/length is checked
// against the bytes that could possibly back it *before* any allocation
// — a corrupted or malicious artifact fails with a clean FormatError
// (wrapped into an error result by the loader), never a crash, an OOM,
// or a partially populated library.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dagmap::libcache {

/// Malformed artifact bytes (truncation, bad counts, bad enum values).
/// The loader converts this — and any other exception — into an error
/// result; see deserialize_compiled_library.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The bytes of the file at `path`; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// FNV-1a over `bytes`, the artifact's integrity hash.  Any single-byte
/// change provably changes the result (each step is a bijection of the
/// running state for fixed remaining input), so the flip-one-byte fuzz
/// invariant is deterministic, not probabilistic.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 0xCBF29CE484222325ull);

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Signed 32-bit as two's-complement u32 (pattern fanins, -1 = null).
  void i32(std::int32_t v);
  /// IEEE-754 bit pattern (bit-exact round trip).
  void f64(double v);
  /// u64 length followed by the raw bytes.
  void str(std::string_view s);

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  /// Length-prefixed string; the length is validated against the
  /// remaining bytes before any allocation.
  std::string str();

  /// Reads a u64 element count and validates `count * min_element_bytes
  /// <= remaining` before returning, so `reserve(count)` downstream can
  /// never be tricked into an absurd allocation by a corrupted count.
  /// `what` names the field in the error message.
  std::uint64_t count(std::size_t min_element_bytes, const char* what);

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  /// Throws FormatError unless `n` more bytes are available.
  void need(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace dagmap::libcache

#include "libcache/binio.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dagmap::libcache {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

void ByteReader::need(std::size_t n) {
  if (remaining() < n)
    throw FormatError("truncated artifact: need " + std::to_string(n) +
                      " byte(s) at offset " + std::to_string(pos_) +
                      ", have " + std::to_string(remaining()));
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t lo = u8();
  return static_cast<std::uint16_t>(lo | (std::uint16_t{u8()} << 8));
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t lo = u16();
  return lo | (std::uint32_t{u16()} << 16);
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t lo = u32();
  return lo | (std::uint64_t{u32()} << 32);
}

std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  std::uint64_t n = u64();
  if (n > remaining())
    throw FormatError("oversized string length " + std::to_string(n) +
                      " at offset " + std::to_string(pos_) + " (only " +
                      std::to_string(remaining()) + " byte(s) remain)");
  std::string s(data_.substr(pos_, static_cast<std::size_t>(n)));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::uint64_t ByteReader::count(std::size_t min_element_bytes,
                                const char* what) {
  std::uint64_t n = u64();
  if (min_element_bytes > 0 && n > remaining() / min_element_bytes)
    throw FormatError("oversized " + std::string(what) + " count " +
                      std::to_string(n) + " at offset " +
                      std::to_string(pos_) + " (only " +
                      std::to_string(remaining()) + " byte(s) remain)");
  return n;
}

}  // namespace dagmap::libcache

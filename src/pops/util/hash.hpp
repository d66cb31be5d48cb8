#pragma once
// FNV-1a (64-bit) content hashing.
//
// One hasher shared by every layer that derives identity from content:
// service::ResultCache keys (netlist + config + context tuples) and
// timing::TableModel's content/selector hashes. Cache correctness depends
// on these staying byte-compatible — content_hash feeds hash_config — so
// the primitive lives here once instead of per-layer copies.
//
// Doubles are hashed by bit pattern ("equal content" means exact); the
// multi-byte helpers feed native byte order, so hashes are stable within
// a process/platform (they are never persisted across machines).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pops::util {

/// Fixed-width lowercase hex of a 64-bit word ("00000000000000ff").
/// JSON numbers are doubles — they cannot carry a full uint64_t — so
/// persisted hashes/keys (service/cache_journal.hpp) travel as hex strings.
inline std::string hex_u64(std::uint64_t v) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] =
      digits[v & 0xF];
  return out;
}

/// Inverse of hex_u64; accepts 1..16 lowercase/uppercase hex digits.
/// Returns false (leaving `out` untouched) on anything else.
inline bool parse_hex_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    int digit = 0;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  out = v;
  return true;
}

/// FNV-1a, the offset-basis/prime pair of the 64-bit variant.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void f64s(const std::vector<double>& vs) {
    u64(vs.size());
    for (const double v : vs) f64(v);
  }
};

}  // namespace pops::util

// Incremental FNV-1a 64-bit content hashing over exact IEEE-754 bit
// patterns — no float rounding in the key, so "changed" means changed.
// The characterization cache uses it to validate persisted payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dn {

/// Incremental FNV-1a 64-bit hasher.
class HashStream {
 public:
  HashStream& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  HashStream& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  HashStream& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
};

}  // namespace dn

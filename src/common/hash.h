#ifndef EQUIHIST_COMMON_HASH_H_
#define EQUIHIST_COMMON_HASH_H_

#include <cstdint>
#include <span>

namespace equihist {

// FNV-1a 64 over a byte span: platform-stable (std::hash is
// implementation-defined), cheap and stateless. Shard routing, per-column
// build seeds (HashColumnName), the transport envelope checksum and the
// checked-in fuzz corpora all depend on these exact bits.
inline std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace equihist

#endif  // EQUIHIST_COMMON_HASH_H_

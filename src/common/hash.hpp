#pragma once

// 64-bit hashing used for DLFS sample keys (truncated to 48 bits by the
// sample directory) and for deterministic synthetic data generation.

#include <cstdint>
#include <string>
#include <string_view>

namespace dlfs {

/// FNV-1a 64-bit, finalized with a splitmix64-style avalanche so that
/// truncating to 48 bits (the sample-entry key width) keeps good
/// dispersion in the low bits.
constexpr std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // splitmix64 finalizer
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// Mixes an integer into a well-dispersed 64-bit value (splitmix64 step).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Combines two hashes.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/// Rank `rank` of `key`'s placement probe chain over `slots` slots: while
/// rank <= `hashed` the slot is hash64(key ‖ '\x1f' ‖ rank) % slots; later
/// ranks walk on linearly from `origin`, so a chain whose hashes keep
/// colliding still reaches every slot. Replica placement and repair walk
/// ranks 1, 2, ... from a sample's name; a peer-cache home is rank 0.
inline std::uint64_t probe_slot(std::string_view key, std::uint32_t rank,
                                std::uint64_t slots, std::uint32_t hashed = ~0u,
                                std::uint64_t origin = 0) {
  if (rank > hashed) return (origin + rank) % slots;
  std::string probe(key);
  probe += '\x1f';
  probe += std::to_string(rank);
  return hash64(probe) % slots;
}

}  // namespace dlfs

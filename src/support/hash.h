// 64-bit FNV-1a, for digests that are compared, never trusted.
#pragma once

#include <cstdint>
#include <span>

namespace sod {

inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ull;

/// FNV-1a over `bytes` with the standard 64-bit prime, continuing from the
/// digest `h` (the standard offset basis starts a fresh one).
inline uint64_t fnv1a(std::span<const uint8_t> bytes, uint64_t h = kFnv1aBasis) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace sod

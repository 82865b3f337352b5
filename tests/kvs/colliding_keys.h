// Two distinct key strings whose 32-bit SimdBackend hash keys collide,
// found by a deterministic birthday search (~2^17 candidates make a
// collision in the 2^32 space overwhelmingly likely).
#ifndef SIMDHT_TESTS_KVS_COLLIDING_KEYS_H_
#define SIMDHT_TESTS_KVS_COLLIDING_KEYS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "hash/hash_family.h"

namespace simdht {

// SimdBackend's 32-bit hash key of `key` (0 is remapped to 1).
inline std::uint32_t HashKey32Of(std::string_view key) {
  const auto hk =
      static_cast<std::uint32_t>(HashBytes(key.data(), key.size()) >> 32);
  return hk == 0 ? 1 : hk;
}

// False when the search budget finds no pair.
inline bool FindCollidingPair(std::string* a, std::string* b) {
  std::unordered_map<std::uint32_t, std::string> seen;
  for (std::size_t i = 0; i < (1u << 19); ++i) {
    std::string key = "collide:" + std::to_string(i);
    auto [it, inserted] = seen.try_emplace(HashKey32Of(key), key);
    if (!inserted) {
      *a = it->second;
      *b = key;
      return true;
    }
  }
  return false;
}

}  // namespace simdht

#endif  // SIMDHT_TESTS_KVS_COLLIDING_KEYS_H_

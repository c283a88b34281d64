// The repo's non-cryptographic hashes, kept in one place because their
// users have very different stability requirements:
//   * Fnv1a (byte-wise FNV-1a, 64-bit) has one user: src/store routes keys
//     to shards with it. That is ON-DISK-FORMAT CRITICAL — a record must be
//     found in the shard whose log holds it, so the constants and byte order
//     below may never change (std::hash guarantees neither across
//     runs/toolchains, which is why it is not used).
//   * HashMix64 is the in-memory word mixer. Its users are the label intern
//     table (src/labels/intern.h sums one mix per entry) and the kernel's
//     check-cache set selection (src/kernel/label_checks.cc); both only
//     borrow kFnv1aOffsetBasis as a seed constant and may change freely.
#ifndef SRC_BASE_HASH_H_
#define SRC_BASE_HASH_H_

#include <cstdint>
#include <string_view>

namespace asbestos {

constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

// Folds the bytes of `s` into `h`. Chainable: pass a previous result as `h`.
inline uint64_t Fnv1a(std::string_view s, uint64_t h = kFnv1aOffsetBasis) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

// Word-at-a-time mixer for IN-MEMORY hashing of u64 sequences (label intern
// hashing, check-cache set selection): one multiply-xorshift round per word
// — an order of magnitude cheaper than byte-wise FNV on packed entries, with
// the avalanche byte-FNV lacks (adjacent ids must not cluster cache sets).
// Never use for anything persisted; the on-disk-stable hash is Fnv1a above.
inline uint64_t HashMix64(uint64_t h, uint64_t v) {
  h ^= v * 0x9e3779b97f4a7c15ULL;  // golden-ratio odd constant
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;  // splitmix64 finalizer round
  h ^= h >> 32;
  return h;
}

}  // namespace asbestos

#endif  // SRC_BASE_HASH_H_

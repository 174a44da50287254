// Hash functions used by the aggregation operator and the baselines.
//
// The paper (Section 4.1) selects MurmurHash2 (the 64-bit "64A" variant) as
// the fastest adequate hash for small keys, and Section 6.4 notes that
// replacing the competitors' multiplicative hashing by MurmurHash2 makes
// their performance more predictable, so every implementation here uses
// it. The Murmur3 finalizer is a cheap high-quality mixer for fixed 8-byte
// keys.

#ifndef CEA_HASH_MURMUR_H_
#define CEA_HASH_MURMUR_H_

#include <cstddef>
#include <cstdint>

namespace cea {

// MurmurHash2, 64-bit version for 64-bit platforms ("MurmurHash64A"),
// by Austin Appleby (public domain), over an arbitrary byte buffer.
uint64_t MurmurHash64A(const void* key, size_t len, uint64_t seed);

// MurmurHash64A specialized for a single 64-bit integer key. This is the
// hash on the operator's hot path: grouping keys are 64-bit column values.
inline uint64_t MurmurHash64(uint64_t key, uint64_t seed = 0) {
  const uint64_t m = 0xc6a4a7935bd1e995ULL;
  const int r = 47;
  uint64_t h = seed ^ (8 * m);
  uint64_t k = key;
  k *= m;
  k ^= k >> r;
  k *= m;
  h ^= k;
  h *= m;
  h ^= h >> r;
  h *= m;
  h ^= h >> r;
  return h;
}

// Murmur3 64-bit finalizer (fmix64): a bijective mixer, useful in tests to
// construct adversarial inputs by inverting it.
inline uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

// Inverse of Fmix64 (the multipliers are invertible mod 2^64 and
// x ^= x >> 33 is an involution for 64-bit values).
inline uint64_t Fmix64Inverse(uint64_t k) {
  k ^= k >> 33;
  k *= 0x9cb4b2f8129337dbULL;  // modular inverse of 0xc4ceb9fe1a85ec53
  k ^= k >> 33;
  k *= 0x4f74430c22a54005ULL;  // modular inverse of 0xff51afd7ed558ccd
  k ^= k >> 33;
  return k;
}

// Inverse of MurmurHash64 for single-word keys: returns the key whose
// hash is h (for the given seed). MurmurHash64 is a bijection on 64-bit
// keys — both multiplies are by an odd constant and x ^= x >> 47 is an
// involution — so tests can construct keys that land on any chosen hash
// value (block digit + in-block start slot) exactly.
inline uint64_t MurmurHash64Inverse(uint64_t h, uint64_t seed = 0) {
  const uint64_t m = 0xc6a4a7935bd1e995ULL;
  const uint64_t m_inv = 0x5f7a0ea7e59b19bdULL;  // m * m_inv == 1 mod 2^64
  const int r = 47;
  h ^= h >> r;
  h *= m_inv;
  h ^= h >> r;
  h *= m_inv;
  h ^= seed ^ (8 * m);  // h is now k = ((key * m) ^ ((key * m) >> r)) * m
  h *= m_inv;
  h ^= h >> r;
  h *= m_inv;
  return h;
}

}  // namespace cea

#endif  // CEA_HASH_MURMUR_H_

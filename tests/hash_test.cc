// Unit tests for cea/hash: MurmurHash2, mixers and radix digit extraction.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "cea/common/random.h"
#include "cea/hash/murmur.h"
#include "cea/hash/radix.h"

namespace cea {
namespace {

TEST(Murmur, SpecializedMatchesGeneric) {
  // MurmurHash64(key) must equal MurmurHash64A over the 8-byte encoding.
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t key = rng.Next();
    uint64_t bytes_hash = MurmurHash64A(&key, sizeof(key), 0);
    EXPECT_EQ(MurmurHash64(key), bytes_hash);
  }
}

TEST(Murmur, SeedChangesValue) {
  EXPECT_NE(MurmurHash64(42, 0), MurmurHash64(42, 1));
}

TEST(Murmur, GenericHandlesAllTailLengths) {
  const char data[16] = "abcdefghijklmno";
  std::set<uint64_t> hashes;
  for (size_t len = 0; len <= 15; ++len) {
    hashes.insert(MurmurHash64A(data, len, 7));
  }
  // All prefixes hash differently (no accidental collisions here).
  EXPECT_EQ(hashes.size(), 16u);
}

TEST(Murmur, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip ~half the output bits.
  Rng rng(2);
  double total_flips = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    uint64_t key = rng.Next();
    int bit = static_cast<int>(rng.NextBounded(64));
    uint64_t h1 = MurmurHash64(key);
    uint64_t h2 = MurmurHash64(key ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(h1 ^ h2);
  }
  double mean_flips = total_flips / trials;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(Fmix, InverseRoundTrips) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.Next();
    EXPECT_EQ(Fmix64Inverse(Fmix64(x)), x);
    EXPECT_EQ(Fmix64(Fmix64Inverse(x)), x);
  }
}

TEST(Murmur, InverseRoundTrips) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.Next();
    EXPECT_EQ(MurmurHash64Inverse(MurmurHash64(x)), x);
    EXPECT_EQ(MurmurHash64(MurmurHash64Inverse(x)), x);
  }
}

TEST(Murmur, InverseRoundTripsWithSeed) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    uint64_t x = rng.Next();
    uint64_t seed = rng.Next();
    EXPECT_EQ(MurmurHash64Inverse(MurmurHash64(x, seed), seed), x);
  }
}

TEST(Murmur, InverseConstructsKeyForChosenHash) {
  // The use case: tests steer keys into a chosen radix block and start
  // slot by inverting the hash they want.
  const uint64_t wanted_hash = (uint64_t{5} << 56) | 61;
  uint64_t key = MurmurHash64Inverse(wanted_hash);
  EXPECT_EQ(MurmurHash64(key), wanted_hash);
  EXPECT_EQ(RadixDigit(wanted_hash, 0), 5u);
}

TEST(Radix, DigitExtractsBytesMsdFirst) {
  uint64_t h = 0x0123456789abcdefULL;
  EXPECT_EQ(RadixDigit(h, 0), 0x01u);
  EXPECT_EQ(RadixDigit(h, 1), 0x23u);
  EXPECT_EQ(RadixDigit(h, 2), 0x45u);
  EXPECT_EQ(RadixDigit(h, 7), 0xefu);
}

TEST(Radix, DigitRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    uint64_t h = rng.Next();
    for (int level = 0; level < kMaxRadixLevel; ++level) {
      EXPECT_LT(RadixDigit(h, level), kFanOut);
    }
  }
}

TEST(Radix, DigitsReassembleHash) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    uint64_t h = rng.Next();
    uint64_t rebuilt = 0;
    for (int level = 0; level < kMaxRadixLevel; ++level) {
      rebuilt = (rebuilt << kRadixBits) | RadixDigit(h, level);
    }
    EXPECT_EQ(rebuilt, h);
  }
}

TEST(Radix, SubDigitBitsDropsConsumedPrefix) {
  uint64_t h = 0xffffffffffffffffULL;
  EXPECT_EQ(SubDigitBits(h, 0), h >> 8);
  EXPECT_EQ(SubDigitBits(h, 6), 0xffULL);
  EXPECT_EQ(SubDigitBits(h, 7), 0u);
}

TEST(Murmur, IsBijectiveForFixedWidthKeys) {
  // For 8-byte keys every step of MurmurHash64 is invertible, so distinct
  // keys always produce distinct hashes. Spot-check with a dense range.
  std::set<uint64_t> hashes;
  for (uint64_t k = 0; k < 10000; ++k) {
    hashes.insert(MurmurHash64(k));
  }
  EXPECT_EQ(hashes.size(), 10000u);
}

}  // namespace
}  // namespace cea

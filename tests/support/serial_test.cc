// kfi::content_hash, the word-wise hash golden-bundle manifests record:
// a pinned known answer (a changed value invalidates every manifest),
// and the corruptions it must always detect.
#include "support/serial.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace kfi {
namespace {

// 257 bytes: eight full 32-byte stripes (every lane) plus a one-byte
// tail.
std::vector<std::uint8_t> sample(std::size_t len = 257) {
  std::vector<std::uint8_t> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return bytes;
}

TEST(ContentHash, PinnedKnownAnswer) {
  // Stripes and tail, no stripe, tail only.
  const std::vector<std::uint8_t> bytes = sample();
  EXPECT_EQ(content_hash(bytes.data(), bytes.size()), 0x254EA4CA9E026387ULL);
  EXPECT_EQ(content_hash(bytes.data(), 0), 0xFC1982205ECF0F04ULL);
  EXPECT_EQ(content_hash(bytes.data(), 31), 0x3E686D230EF794CCULL);
}

TEST(ContentHash, PiecesHashLikeTheWhole) {
  // A sealed file written from several spans (a base image) is hashed
  // piece by piece: every split, into two or three pieces, empty ones
  // included, must give the one-shot value.
  const std::vector<std::uint8_t> bytes = sample();
  const std::uint64_t whole = content_hash(bytes.data(), bytes.size());
  for (std::size_t a = 0; a <= bytes.size(); ++a) {
    for (const std::size_t b : {a, a + (bytes.size() - a) / 3, bytes.size()}) {
      ContentHasher hasher;
      hasher.update(bytes.data(), a);
      hasher.update(nullptr, 0);
      hasher.update(bytes.data() + a, b - a);
      hasher.update(bytes.data() + b, bytes.size() - b);
      EXPECT_EQ(hasher.value(), whole) << "split at " << a << ", " << b;
    }
  }
  EXPECT_EQ(ContentHasher().value(), content_hash(nullptr, 0));
}

TEST(ContentHash, EverySingleBitFlipChangesTheHash) {
  std::vector<std::uint8_t> bytes = sample();
  const std::uint64_t clean = content_hash(bytes.data(), bytes.size());
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(content_hash(bytes.data(), bytes.size()), clean)
        << "bit " << bit;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// h = (h ^ word) * odd over 8-byte words: flipping bit 63 adds 2^63,
// which the multiply keeps as a flip of bit 63, so the same flip in the
// next word cancels it.
std::uint64_t wordwise_fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * kFnvPrime;
  }
  return h;
}

TEST(ContentHash, SameBitInTwoWordsOfOneLaneDoesNotCancel) {
  std::vector<std::uint8_t> bytes = sample();
  const auto flip = [&](std::size_t word, int bit) {
    bytes[8 * word + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  };
  // The pair this guards against does cancel in a word-wise FNV.
  const std::uint64_t fnv_clean = wordwise_fnv(bytes);
  flip(0, 63);
  flip(1, 63);
  EXPECT_EQ(wordwise_fnv(bytes), fnv_clean);
  flip(0, 63);
  flip(1, 63);

  // Lane i holds words i, i + 4, i + 8, ...: try each lane's first word
  // against its next two, at every bit.
  const std::uint64_t clean = content_hash(bytes.data(), bytes.size());
  for (std::size_t lane = 0; lane < 4; ++lane) {
    for (const std::size_t other : {lane + 4, lane + 8}) {
      for (int bit = 0; bit < 64; ++bit) {
        flip(lane, bit);
        flip(other, bit);
        EXPECT_NE(content_hash(bytes.data(), bytes.size()), clean)
            << "words " << lane << " and " << other << ", bit " << bit;
        flip(lane, bit);
        flip(other, bit);
      }
    }
  }
}

TEST(ContentHash, AppendingAZeroByteChangesTheHash) {
  for (const std::size_t len : {0u, 1u, 31u, 32u, 63u, 256u, 257u}) {
    std::vector<std::uint8_t> bytes = sample(len);
    const std::uint64_t before = content_hash(bytes.data(), bytes.size());
    bytes.push_back(0);
    EXPECT_NE(content_hash(bytes.data(), bytes.size()), before)
        << "length " << len;
  }
}

TEST(ContentHash, ValueDoesNotDependOnAlignment) {
  const std::vector<std::uint8_t> bytes = sample();
  const std::uint64_t aligned = content_hash(bytes.data(), bytes.size());
  std::vector<std::uint8_t> shifted(bytes.size() + 8);
  for (std::size_t offset = 1; offset < 8; ++offset) {
    std::memcpy(shifted.data() + offset, bytes.data(), bytes.size());
    EXPECT_EQ(content_hash(shifted.data() + offset, bytes.size()), aligned)
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace kfi

// CRC-32 (util/crc32.h): the standard check value, agreement of the sliced
// implementation with a bytewise reference at every length and alignment,
// and the chaining contract the incremental callers rely on.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/prng.h"

namespace compass::util {
namespace {

/// Bit-at-a-time reference: the definition, with no tables.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  CorePrng prng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = prng.next_u8();
  return v;
}

TEST(Crc32, StandardCheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(s.data(), s.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SlicedEqualsBytewiseAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> buf = random_bytes(1024 + 8, 0xC4C);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32, ChainingAtEverySplitEqualsOneCall) {
  const std::vector<unsigned char> buf = random_bytes(300, 7);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split=" << split;
  }
  // Three-way chains too: the register carries no hidden alignment state.
  for (std::size_t a = 0; a < 24; ++a) {
    for (std::size_t b = a; b < 48; ++b) {
      std::uint32_t c = crc32(buf.data(), a);
      c = crc32(buf.data() + a, b - a, c);
      c = crc32(buf.data() + b, buf.size() - b, c);
      ASSERT_EQ(c, whole) << "a=" << a << " b=" << b;
    }
  }
}

}  // namespace
}  // namespace compass::util

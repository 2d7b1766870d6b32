// Unit tests for the checked flag-number parser every front end uses.
#include "util/parse.h"

#include <gtest/gtest.h>

namespace compass::util {
namespace {

TEST(ParseU64, AcceptsEveryValueUpToTheMaximum) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("1844674407370955161"), 1844674407370955161u);
}

TEST(ParseU64, RejectsValuesAboveTheMaximum) {
  // One past 2^64-1, and values whose unchecked wrap lands above the
  // running value (30000000000000000000 mod 2^64 = 11553255926290448384).
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parse_u64("18446744073709551620"), std::nullopt);
  EXPECT_EQ(parse_u64("30000000000000000000"), std::nullopt);
  EXPECT_EQ(parse_u64("99999999999999999999999"), std::nullopt);
}

TEST(ParseU64, RejectsAnythingButDigits) {
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64("5x"), std::nullopt);
  EXPECT_EQ(parse_u64("x5"), std::nullopt);
  EXPECT_EQ(parse_u64("-1"), std::nullopt);
  EXPECT_EQ(parse_u64("+1"), std::nullopt);
  EXPECT_EQ(parse_u64(" 1"), std::nullopt);
  EXPECT_EQ(parse_u64("1 "), std::nullopt);
}

TEST(ParseU64Flag, BoundsTheValue) {
  EXPECT_EQ(parse_u64_flag("t", "--n", "5", 1, 10), 5u);
  EXPECT_EQ(parse_u64_flag("t", "--n", "1", 1, 10), 1u);
  EXPECT_EQ(parse_u64_flag("t", "--n", "10", 1, 10), 10u);
  EXPECT_EQ(parse_u64_flag("t", "--n", "0", 1, 10), std::nullopt);
  EXPECT_EQ(parse_u64_flag("t", "--n", "11", 1, 10), std::nullopt);
  EXPECT_EQ(parse_u64_flag("t", "--n", "5x", 1, 10), std::nullopt);
  EXPECT_EQ(parse_u64_flag("t", "--n", "30000000000000000000", 0, UINT64_MAX),
            std::nullopt);
}

}  // namespace
}  // namespace compass::util

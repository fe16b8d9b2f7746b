#include <gtest/gtest.h>

#include <set>

#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"
#include "oregami/support/text_table.hpp"

namespace oregami {
namespace {

TEST(SourceLoc, FormatsLineColon) {
  EXPECT_EQ((SourceLoc{3, 14}.to_string()), "3:14");
}

TEST(LarcsError, CarriesLocation) {
  const LarcsError err("bad token", {2, 7});
  EXPECT_EQ(err.loc().line, 2);
  EXPECT_EQ(err.loc().column, 7);
  EXPECT_NE(std::string(err.what()).find("2:7"), std::string::npos);
}

TEST(LarcsError, MessageWithoutLocation) {
  const LarcsError err("just text");
  EXPECT_NE(std::string(err.what()).find("just text"), std::string::npos);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbb"});
  t.add_row({"xxxx", "y"});
  const std::string out = t.to_string();
  // Header then underline then row.
  EXPECT_NE(out.find("a     bbb"), std::string::npos);
  EXPECT_NE(out.find("xxxx  y"), std::string::npos);
  EXPECT_NE(out.find("---------"), std::string::npos);
}

TEST(TextTable, PadsMissingCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.to_string(), "a  b  c\n-------\n1     \n");
}

TEST(FormatFixed, RoundsToDigits) {
  EXPECT_EQ(format_fixed(1.23456, 3), "1.235");
  EXPECT_EQ(format_fixed(2.0, 1), "2.0");
}

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(SplitMix64, KnownFirstOutput) {
  // Reference value of splitmix64 with seed 0 (widely published).
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next_u64(), 0xe220a8397b1dcdafULL);
}

TEST(SplitMix64, NextBelowStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(SplitMix64, NextInCoversRangeInclusive) {
  SplitMix64 rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SplitMix64, DoubleInUnitInterval) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace oregami

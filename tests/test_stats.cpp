// Unit tests: statistics primitives, registry, table formatting.
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "stats/counters.hpp"
#include "stats/registry.hpp"
#include "stats/table.hpp"

using namespace tdn::stats;

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
}

TEST(Sampled, MeanMinMax) {
  Sampled s;
  s.add(1);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_EQ(s.samples(), 2u);
}

TEST(Sampled, EmptyIsZero) {
  Sampled s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Registry, SetAddGet) {
  Registry r;
  r.set("a.b", 1.0);
  EXPECT_DOUBLE_EQ(r.get("a.b"), 1.0);
  EXPECT_DOUBLE_EQ(r.get("missing"), 0.0);
  EXPECT_TRUE(r.has("a.b"));
  EXPECT_FALSE(r.has("a"));
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), tdn::RequireError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

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
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Sampled, MeanMinMax) {
  Sampled s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.samples(), 2u);
}

TEST(Sampled, Weighted) {
  Sampled s;
  s.add(10.0, 3.0);
  s.add(0.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
}

TEST(Sampled, EmptyIsZero) {
  Sampled s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Registry, SetAddGet) {
  Registry r;
  r.set("a.b", 1.0);
  r.add("a.b", 2.0);
  EXPECT_DOUBLE_EQ(r.get("a.b"), 3.0);
  EXPECT_DOUBLE_EQ(r.get("missing"), 0.0);
  EXPECT_TRUE(r.has("a.b"));
  EXPECT_FALSE(r.has("a"));
}

TEST(Registry, SumPrefix) {
  Registry r;
  r.set("llc.bank0.hits", 10);
  r.set("llc.bank1.hits", 20);
  r.set("noc.bytes", 5);
  EXPECT_DOUBLE_EQ(r.sum_prefix("llc.bank"), 30.0);
  EXPECT_DOUBLE_EQ(r.sum_prefix("zzz"), 0.0);
}

TEST(Registry, ToJson) {
  Registry empty;
  EXPECT_EQ(empty.to_json(), "{}");

  Registry r;
  r.set("sim.cycles", 12345);
  r.set("llc.hit_ratio", 0.75);
  r.set("weird\"key\n", 1);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"sim.cycles\": 12345"), std::string::npos);
  EXPECT_NE(json.find("\"llc.hit_ratio\": 0.75"), std::string::npos);
  // Control characters and quotes are escaped, not emitted raw.
  EXPECT_NE(json.find("weird\\\"key\\n"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Registry, Csv) {
  Registry r;
  r.set("x", 1.5);
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("key,value"), std::string::npos);
  EXPECT_NE(csv.find("x,1.5"), std::string::npos);
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

TEST(Table, Csv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

// Unit tests: common value types, masks, PRNG, error handling, atomic file
// publication.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/prng.hpp"
#include "common/read_number.hpp"
#include "common/require.hpp"
#include "common/tile_mask.hpp"
#include "common/types.hpp"
#include "common/write_file.hpp"

using namespace tdn;

TEST(AddrRange, SizeEmptyContains) {
  AddrRange r{100, 200};
  EXPECT_EQ(r.size(), 100u);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(100));
  EXPECT_TRUE(r.contains(199));
  EXPECT_FALSE(r.contains(200));
  EXPECT_FALSE(r.contains(99));
  EXPECT_TRUE((AddrRange{5, 5}).empty());
}

TEST(AddrRange, Overlaps) {
  AddrRange a{0, 100};
  EXPECT_TRUE(a.overlaps({50, 150}));
  EXPECT_TRUE(a.overlaps({99, 100}));
  EXPECT_FALSE(a.overlaps({100, 200}));
  EXPECT_FALSE((AddrRange{100, 200}).overlaps(a));
  EXPECT_TRUE(a.overlaps({0, 1}));
  EXPECT_TRUE(a.contains_range({10, 90}));
  EXPECT_FALSE(a.contains_range({10, 101}));
}

TEST(Align, UpDown) {
  EXPECT_EQ(align_down(127, 64), 64u);
  EXPECT_EQ(align_down(128, 64), 128u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(0, 64), 0u);
}

TEST(Pow2, Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(16), 4u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(TileMask, BasicOps) {
  TileMask m;
  EXPECT_TRUE(m.empty());
  m.set(3);
  m.set(15);
  EXPECT_EQ(m.count(), 2);
  EXPECT_TRUE(m.test(3));
  EXPECT_FALSE(m.test(4));
  m.clear(3);
  EXPECT_EQ(m.count(), 1);
  EXPECT_EQ(m.sole_bit(), 15u);
}

TEST(TileMask, Factories) {
  EXPECT_TRUE(TileMask::none().empty());
  EXPECT_EQ(TileMask::single(7).sole_bit(), 7u);
  EXPECT_EQ(TileMask::first_n(16).count(), 16);
  EXPECT_EQ(TileMask::first_n(16).bits(), 0xFFFFull);
}

TEST(TileMask, NthBitAndForEach) {
  TileMask m;
  m.set(2);
  m.set(5);
  m.set(11);
  EXPECT_EQ(m.nth_bit(0), 2u);
  EXPECT_EQ(m.nth_bit(1), 5u);
  EXPECT_EQ(m.nth_bit(2), 11u);
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<CoreId>{2, 5, 11}));
}

TEST(TileMask, SetAlgebra) {
  TileMask a = TileMask::single(1) | TileMask::single(2);
  TileMask b = TileMask::single(2) | TileMask::single(3);
  EXPECT_EQ((a & b).sole_bit(), 2u);
  a |= b;
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.to_string(4), "1110");
}

TEST(Require, ThrowsWithMessage) {
  try {
    TDN_REQUIRE(false, "something broke");
    FAIL() << "should have thrown";
  } catch (const RequireError& e) {
    EXPECT_NE(std::string(e.what()).find("something broke"), std::string::npos);
  }
}

TEST(ReadNumber, ReadsDigitsAndMultipliersUpToTheLimit) {
  EXPECT_EQ(read_number("40k,", "t").value, 40'000u);
  EXPECT_EQ(read_number("40k,", "t").length, 3u);
  EXPECT_EQ(read_number("2M", "t").value, 2'000'000u);
  EXPECT_EQ(read_number("3G", "t").value, 3'000'000'000u);
  EXPECT_EQ(read_number("7z", "t").length, 1u);  // 'z' is left to the caller
  EXPECT_EQ(read_number("x", "t").length, 0u);
  EXPECT_EQ(read_number("12k", "t", /*scaled=*/false).length, 2u);
  EXPECT_EQ(read_number("18446744073709551615", "t").value,
            ~std::uint64_t{0});
  EXPECT_EQ(read_number("4294967295", "t", false, kUnsignedMax).value,
            kUnsignedMax);
  // Past the limit, by a digit or by a multiplier, throws instead of
  // wrapping, and the message names the number and the field.
  EXPECT_THROW(read_number("18446744073709551616", "t"), RequireError);
  EXPECT_THROW(read_number("18446744073709552k", "t"), RequireError);
  EXPECT_THROW(read_number("4294967296", "t", false, kUnsignedMax),
               RequireError);
  try {
    read_number("99999999999999999999", "field 'gap'");
    FAIL() << "should have thrown";
  } catch (const RequireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99999999999999999999"), std::string::npos);
    EXPECT_NE(what.find("field 'gap'"), std::string::npos);
  }
}

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, SeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, BoundedAndDouble) {
  SplitMix64 r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit over 1000 draws
}

TEST(Fnv1a, StableAndSensitive) {
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_EQ(fnv1a64(a, 5), fnv1a64(a, 5));
  EXPECT_NE(fnv1a64(a, 5), fnv1a64(b, 5));
}

// A missing parent directory is created; an overwrite replaces the whole
// file and leaves no temp file behind.
TEST(AtomicWrite, WritesCreatesAndOverwrites) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tdn_test_write_file_" + std::to_string(::getpid()));
  const std::string nested = (dir / "a" / "b" / "report.json").string();
  EXPECT_TRUE(write_file(nested, "{\"v\":1}\n"));
  {
    std::ifstream in(nested);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "{\"v\":1}\n");
  }
  // Overwrite is atomic: the new content fully replaces the old.
  EXPECT_TRUE(write_file(nested, "{\"v\":2}\n"));
  {
    std::ifstream in(nested);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "{\"v\":2}\n");
  }
  // No temp files left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir / "a" / "b"))
    ++entries;
  EXPECT_EQ(entries, 1u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

#include <gtest/gtest.h>

#include "util/ipv4.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace odns::util {
namespace {

// ---------------------------------------------------------------------
// Ipv4
// ---------------------------------------------------------------------

TEST(Ipv4Test, ParsesDottedQuad) {
  const auto a = Ipv4::parse("192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "192.0.2.1");
  EXPECT_EQ(a->octet(0), 192);
  EXPECT_EQ(a->octet(3), 1);
}

TEST(Ipv4Test, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4::parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4::parse("1..2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4 ").has_value());
}

TEST(Ipv4Test, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4(1, 2, 3, 4), Ipv4(1, 2, 3, 5));
  EXPECT_LT(Ipv4(9, 255, 255, 255), Ipv4(10, 0, 0, 0));
}

TEST(Ipv4Test, NextIncrements) {
  EXPECT_EQ(Ipv4(1, 2, 3, 255).next(), Ipv4(1, 2, 4, 0));
}

class Ipv4RoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Ipv4RoundTrip, FormatParseIsIdentity) {
  const Ipv4 addr{GetParam()};
  const auto round = Ipv4::parse(addr.to_string());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, addr);
}

INSTANTIATE_TEST_SUITE_P(Corners, Ipv4RoundTrip,
                         ::testing::Values(0u, 1u, 0xFFFFFFFFu, 0x7F000001u,
                                           0x08080808u, 0xC0000201u,
                                           0x0A000001u, 0x64400001u));

// ---------------------------------------------------------------------
// Prefix
// ---------------------------------------------------------------------

TEST(PrefixTest, CanonicalizesBase) {
  const Prefix p{Ipv4(10, 1, 2, 3), 24};
  EXPECT_EQ(p.base(), Ipv4(10, 1, 2, 0));
  EXPECT_EQ(p.to_string(), "10.1.2.0/24");
}

TEST(PrefixTest, ContainsAddresses) {
  const Prefix p{Ipv4(10, 1, 2, 0), 24};
  EXPECT_TRUE(p.contains(Ipv4(10, 1, 2, 0)));
  EXPECT_TRUE(p.contains(Ipv4(10, 1, 2, 255)));
  EXPECT_FALSE(p.contains(Ipv4(10, 1, 3, 0)));
}

TEST(PrefixTest, ContainsNestedPrefixes) {
  const Prefix outer{Ipv4(10, 0, 0, 0), 8};
  const Prefix inner{Ipv4(10, 5, 0, 0), 16};
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
}

TEST(PrefixTest, ZeroLengthCoversEverything) {
  const Prefix all{Ipv4(0, 0, 0, 0), 0};
  EXPECT_TRUE(all.contains(Ipv4(255, 255, 255, 255)));
  EXPECT_EQ(all.size(), std::uint64_t{1} << 32);
}

TEST(PrefixTest, Covering24) {
  EXPECT_EQ(Prefix::covering24(Ipv4(20, 30, 40, 50)),
            (Prefix{Ipv4(20, 30, 40, 0), 24}));
}

TEST(PrefixTest, ParseRoundTrip) {
  const auto p = Prefix::parse("100.64.0.0/10");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "100.64.0.0/10");
  EXPECT_FALSE(Prefix::parse("100.64.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("100.64.0.0").has_value());
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng{7};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng{7};
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(RngTest, WeightedRoughlyProportional) {
  Rng rng{7};
  const double weights[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a{42};
  Rng fork = a.fork(1);
  Rng fork2 = a.fork(2);
  // Different labels should give different streams almost surely.
  EXPECT_NE(fork.uniform(0, 1u << 30), fork2.uniform(0, 1u << 30));
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(StatsTest, MeanAndPercentile) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatsTest, EmpiricalCdfDeduplicatesSteps) {
  const auto cdf = empirical_cdf({1, 1, 2, 3, 3, 3});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_NEAR(cdf[0].cum, 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf.back().cum, 1.0);
}

TEST(StatsTest, RankCdfSortsDescending) {
  const auto cdf = rank_cdf({10, 90});
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_NEAR(cdf[0].cum, 0.9, 1e-12);  // biggest first
  EXPECT_DOUBLE_EQ(cdf[1].cum, 1.0);
}

TEST(StatsTest, AccumulatorTracksMinMax) {
  Accumulator acc;
  acc.add(5.0);
  acc.add(-1.0);
  acc.add(3.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_NEAR(acc.mean(), 7.0 / 3.0, 1e-12);
}

TEST(StatsTest, HistogramCumulative) {
  Histogram h;
  h.add(1, 10);
  h.add(5, 30);
  h.add(9, 60);
  EXPECT_DOUBLE_EQ(h.cumulative_at(0), 0.0);
  EXPECT_DOUBLE_EQ(h.cumulative_at(1), 0.1);
  EXPECT_DOUBLE_EQ(h.cumulative_at(5), 0.4);
  EXPECT_DOUBLE_EQ(h.cumulative_at(100), 1.0);
}

// ---------------------------------------------------------------------
// Strings / Table
// ---------------------------------------------------------------------

TEST(StringsTest, AsciiFolding) {
  EXPECT_EQ(ascii_fold('M'), 'm');
  EXPECT_EQ(ascii_fold('.'), '.');
  EXPECT_TRUE(iequals_ascii("ExAmPlE", "example"));
  EXPECT_FALSE(iequals_ascii("a", "ab"));
  EXPECT_TRUE(iends_with("www.Example.COM", "example.com"));
  EXPECT_FALSE(iends_with("com", "example.com"));
}

TEST(StringsTest, SplitJoin) {
  const auto parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "::"), "x::y");
}

TEST(TableTest, AlignsAndEmitsCsv) {
  Table t({"name", "count"});
  t.add_row({"alpha", "10"});
  t.add_row({"b", "2"});
  const auto text = t.to_string();
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("|    10 |"), std::string::npos);  // right-aligned
  const auto csv = t.to_csv();
  EXPECT_EQ(csv, "name,count\nalpha,10\nb,2\n");
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"v"});
  t.add_row({"a,b\"c"});
  EXPECT_EQ(t.to_csv(), "v\n\"a,b\"\"c\"\n");
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmt_percent(0.265, 1), "26.5%");
  EXPECT_EQ(Table::fmt_double(6.33, 1), "6.3");
  EXPECT_EQ(Table::fmt_count(563000), "563000");
}

}  // namespace
}  // namespace odns::util

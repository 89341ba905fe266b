#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/ipv4.hpp"
#include "util/result.hpp"
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

TEST(RngTest, WeightedNeverReturnsAZeroWeightTail) {
  // 0.1 + 0.2 rounds up, so x = total leaves +2.8e-17 after the last
  // positive weight; the draw must land on that weight, not the zero
  // after it.
  const double weights[] = {0.1, 0.2, 0.0};
  const double total = 0.1 + 0.2;
  ASSERT_GT(total - 0.1 - 0.2, 0.0);
  EXPECT_EQ(weighted_index(weights, total), 1u);
  EXPECT_EQ(WeightTable(weights).index(total), 1u);
  const double zeros_after[] = {0.1, 0.2, 0.0, 0.0};
  EXPECT_EQ(weighted_index(zeros_after, total), 1u);
}

/// Log-uniform weights in [1e-12, 1], with every third one zero.
std::vector<double> spread_weights(std::size_t n, std::uint64_t seed) {
  Rng gen{seed};
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = i % 3 == 1 ? 0.0 : std::pow(10.0, -12.0 * gen.uniform_real());
  }
  return w;
}

TEST(RngTest, WeightTableDrawsEqualTheLinearDrawsAndEngineState) {
  // n -> draws; 10^6 draws in all.
  const std::pair<std::size_t, int> cases[] = {
      {1, 300000}, {2, 300000}, {7, 300000}, {1000, 80000}, {5000, 20000}};
  int drawn = 0;
  for (const auto& [n, draws] : cases) {
    const std::vector<double> w = spread_weights(n, 11 + n);
    const WeightTable table(w);
    Rng by_table{2021 + n};
    Rng by_span{2021 + n};
    for (int k = 0; k < draws; ++k, ++drawn) {
      ASSERT_EQ(by_table.weighted(table), by_span.weighted(w))
          << "n=" << n << " draw " << k;
      ASSERT_TRUE(by_table.engine() == by_span.engine())
          << "n=" << n << " draw " << k;
    }
  }
  EXPECT_GE(drawn, 1000000);
}

TEST(RngTest, WeightTableIndexAgreesOnAndAroundEveryPrefixSum) {
  // Exactly on each prefix sum, one ulp to either side, and then
  // 2^j ulps out, across the binary search's rounding bound (about
  // 4(n+1) ulps of the total) into the region it trusts.
  for (const std::size_t n : {1u, 2u, 7u, 1000u, 5000u}) {
    const std::vector<double> w = spread_weights(n, 11 + n);
    const WeightTable table(w);
    const double total = table.total();
    const double ulp = std::nextafter(total, 2 * total) - total;
    double prefix = 0.0;
    std::vector<double> xs = {0.0, total};
    for (const double wi : w) {
      prefix += wi;
      xs.push_back(prefix);
      xs.push_back(std::nextafter(prefix, -1.0));
      xs.push_back(std::nextafter(prefix, 2.0));
      if (n > 1000) continue;
      for (double m = 2; m < 64.0 * static_cast<double>(n + 1); m *= 2) {
        xs.push_back(prefix - m * ulp);
        xs.push_back(prefix + m * ulp);
      }
    }
    for (const double x : xs) {
      if (x < 0.0 || x > total) continue;
      ASSERT_EQ(table.index(x), weighted_index(w, x))
          << "n=" << n << " x=" << x;
    }
  }
}

TEST(RngTest, WeightTableRejectsNegativeAndNaNWeights) {
  const double negative[] = {1.0, -0.5};
  EXPECT_THROW(WeightTable{negative}, std::invalid_argument);
  const double nan[] = {1.0, std::nan("")};
  EXPECT_THROW(WeightTable{nan}, std::invalid_argument);
  Rng rng{7};
  EXPECT_THROW(rng.weighted(WeightTable{std::span<const double>{}}),
               std::invalid_argument);
  const double zeros[] = {0.0, 0.0};
  EXPECT_EQ(rng.weighted(WeightTable{zeros}), 0u);
}

TEST(RngTest, RejectsInvertedRangesAndEmptySets) {
  Rng rng{7};
  EXPECT_THROW(rng.uniform(2, 1), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
  EXPECT_THROW(rng.weighted({}), std::invalid_argument);
  const double negative[] = {1.0, -0.5};
  EXPECT_THROW(rng.weighted(negative), std::invalid_argument);
  EXPECT_THROW(rng.pick(std::vector<int>{}), std::invalid_argument);
}

TEST(ResultTest, AccessOnTheWrongAlternativeThrows) {
  Result<int, std::string> good{3};
  Result<int, std::string> bad{std::string("e")};
  EXPECT_EQ(good.value(), 3);
  EXPECT_EQ(bad.error(), "e");
  EXPECT_THROW((void)bad.value(), std::logic_error);
  EXPECT_THROW((void)std::as_const(bad).value(), std::logic_error);
  EXPECT_THROW((void)std::move(bad).value(), std::logic_error);
  EXPECT_THROW((void)good.error(), std::logic_error);
  EXPECT_EQ(bad.value_or(9), 9);
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

TEST(TableTest, RejectsRowsNotMatchingTheHeaders) {
  Table t({"name", "count"});
  EXPECT_THROW(t.add_row({"alpha", "10", "extra"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"alpha"}), std::invalid_argument);
  EXPECT_EQ(t.rows(), 0u);
  EXPECT_NE(t.to_string().find("| name |"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmt_percent(0.265, 1), "26.5%");
  EXPECT_EQ(Table::fmt_double(6.33, 1), "6.3");
  EXPECT_EQ(Table::fmt_count(563000), "563000");
}

}  // namespace
}  // namespace odns::util

// Property suite over the full census pipeline: invariants that must
// hold for every (seed, scale) combination — conservation, rule
// consistency, determinism, and classifier/ground-truth agreement.

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/census.hpp"

namespace odns::core {
namespace {

using classify::Klass;
using topo::OdnsKind;
using util::Ipv4;

struct CensusCase {
  std::uint64_t seed;
  double scale;
};

class CensusProperty : public ::testing::TestWithParam<CensusCase> {
 protected:
  static CensusResult run(const CensusCase& c) {
    CensusConfig cfg;
    cfg.topology.scale = c.scale;
    cfg.topology.seed = c.seed;
    cfg.topology.max_countries = 25;  // keep each case fast
    return run_census(cfg);
  }
};

TEST_P(CensusProperty, ProbeResponseConservation) {
  const auto result = run(GetParam());
  // One transaction per ground-truth component; nothing unmatched.
  EXPECT_EQ(result.transactions.size(), result.world->ground_truth().size());
  EXPECT_EQ(result.degradation.scan.responses_unmatched, 0u);
  // Classified counts partition the transactions.
  const auto& c = result.census;
  EXPECT_EQ(c.rr + c.rf + c.tf + c.invalid + c.unresponsive,
            result.transactions.size());
}

TEST_P(CensusProperty, RuleConsistency) {
  const auto result = run(GetParam());
  for (const auto& item : result.classified) {
    switch (item.klass) {
      case Klass::transparent_forwarder:
        // Defining observable: answer from a third party.
        EXPECT_NE(item.txn.target, item.txn.response_src);
        break;
      case Klass::recursive_resolver:
        EXPECT_EQ(item.txn.target, item.txn.response_src);
        ASSERT_TRUE(item.txn.dynamic_a().has_value());
        EXPECT_EQ(*item.txn.dynamic_a(), item.txn.target);
        break;
      case Klass::recursive_forwarder:
        EXPECT_EQ(item.txn.target, item.txn.response_src);
        ASSERT_TRUE(item.txn.dynamic_a().has_value());
        EXPECT_NE(*item.txn.dynamic_a(), item.txn.target);
        break;
      case Klass::invalid:
      case Klass::unresponsive:
        break;
    }
    // Strict validation: every accepted answer carries the unaltered
    // control record.
    if (item.klass == Klass::transparent_forwarder ||
        item.klass == Klass::recursive_forwarder ||
        item.klass == Klass::recursive_resolver) {
      ASSERT_TRUE(item.txn.control_a().has_value());
      EXPECT_EQ(*item.txn.control_a(), result.world->control_addr());
    }
  }
}

TEST_P(CensusProperty, GroundTruthAgreement) {
  const auto result = run(GetParam());
  std::unordered_map<Ipv4, Klass> by_addr;
  for (const auto& item : result.classified) {
    by_addr[item.txn.target] = item.klass;
  }
  std::uint64_t mismatches = 0;
  for (const auto& gt : result.world->ground_truth()) {
    const auto klass = by_addr.at(gt.addr);
    if (gt.kind == OdnsKind::transparent_forwarder) {
      mismatches += klass != Klass::transparent_forwarder;
    } else if (gt.kind == OdnsKind::recursive_resolver) {
      mismatches += klass != Klass::recursive_resolver;
    } else if (!gt.chained) {  // clean recursive forwarders
      mismatches += klass != Klass::recursive_forwarder;
    } else {  // manipulating forwarders must be rejected
      mismatches += klass != Klass::invalid;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST_P(CensusProperty, DeterministicGivenSeed) {
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  EXPECT_EQ(a.census.rr, b.census.rr);
  EXPECT_EQ(a.census.rf, b.census.rf);
  EXPECT_EQ(a.census.tf, b.census.tf);
  EXPECT_EQ(a.census.invalid, b.census.invalid);
  ASSERT_EQ(a.transactions.size(), b.transactions.size());
  for (std::size_t i = 0; i < a.transactions.size(); i += 131) {
    EXPECT_EQ(a.transactions[i].target, b.transactions[i].target);
    EXPECT_EQ(a.transactions[i].response_src, b.transactions[i].response_src);
  }
}

TEST_P(CensusProperty, TransparentForwardersRespondViaTheirUpstream) {
  const auto result = run(GetParam());
  std::unordered_map<Ipv4, const topo::GroundTruth*> gt_by_addr;
  for (const auto& gt : result.world->ground_truth()) {
    gt_by_addr[gt.addr] = &gt;
  }
  for (const auto& item : result.classified) {
    if (item.klass != Klass::transparent_forwarder) continue;
    const auto* gt = gt_by_addr.at(item.txn.target);
    if (gt->chained) continue;
    if (auto project = classify::project_of_service_addr(gt->upstream)) {
      // Relay to a big-4 anycast address: the response source is one of
      // that project's service addresses.
      const auto seen = classify::project_of_service_addr(
          item.txn.response_src);
      ASSERT_TRUE(seen.has_value());
      EXPECT_EQ(*seen, *project);
    } else {
      // National resolver: the response comes from exactly that host.
      EXPECT_EQ(item.txn.response_src, gt->upstream);
    }
  }
}

TEST_P(CensusProperty, RelaxedValidationNeverShrinksTheOdns) {
  const auto result = run(GetParam());
  const auto relaxed = reanalyze(result, /*strict=*/false);
  EXPECT_GE(relaxed.odns_total(), result.census.odns_total());
  EXPECT_EQ(relaxed.tf, result.census.tf);
  EXPECT_EQ(relaxed.invalid, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScales, CensusProperty,
    ::testing::Values(CensusCase{1, 0.002}, CensusCase{2, 0.002},
                      CensusCase{3, 0.004}, CensusCase{77, 0.003},
                      CensusCase{2021, 0.002}, CensusCase{424242, 0.005}),
    [](const ::testing::TestParamInfo<CensusCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_scale" +
             std::to_string(static_cast<int>(info.param.scale * 10000));
    });

}  // namespace
}  // namespace odns::core

#include <gtest/gtest.h>

#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "scan/campaigns.hpp"
#include "testutil.hpp"

namespace odns::scan {
namespace {

using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;

class ScanFixture : public ::testing::Test {
 protected:
  MiniWorld world;

  ScanConfig scan_config() {
    ScanConfig cfg;
    cfg.qname = world.scan_name;
    return cfg;
  }

  /// A scan from the scanner host (a VantageSet of one).
  std::unique_ptr<VantageSet> make_scanner(ScanConfig cfg) {
    return honeypot::single_host_scanner(world.sim, world.scanner_host,
                                         std::move(cfg));
  }
};

TEST_F(ScanFixture, ResolverTargetClassifiableTransaction) {
  const auto scanner = make_scanner(scan_config());
  scanner->start({test::kResolverAddr});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_TRUE(txns[0].answered);
  EXPECT_EQ(txns[0].target, test::kResolverAddr);
  EXPECT_EQ(txns[0].response_src, test::kResolverAddr);
  ASSERT_TRUE(txns[0].dynamic_a().has_value());
  EXPECT_EQ(*txns[0].dynamic_a(), test::kResolverAddr);
  EXPECT_EQ(*txns[0].control_a(), test::kControlAddr);
  EXPECT_GT(txns[0].rtt.count_nanos(), 0);
}

TEST_F(ScanFixture, UnresponsiveTargetStaysUnanswered) {
  // An address with a host but no DNS service (ICMP unreachable comes
  // back instead).
  world.add_access_host(Ipv4{20, 0, 0, 50});
  ScanConfig cfg = scan_config();
  cfg.timeout = Duration::seconds(2);
  const auto scanner = make_scanner(cfg);
  scanner->start({Ipv4{20, 0, 0, 50}});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_FALSE(txns[0].answered);
  EXPECT_EQ(scanner->stats().icmp_errors, 1u);
}

TEST_F(ScanFixture, Fig7TwoForwardersOneResolverDisambiguated) {
  // The appendix-Fig.-7 scenario: two transparent forwarders relay to
  // the same resolver. Both responses arrive from the same source IP;
  // only the (port, TXID) tuple attributes them to the right probes.
  const auto tf1 = world.add_access_host(Ipv4{20, 0, 5, 1});
  const auto tf2 = world.add_access_host(Ipv4{20, 0, 5, 2});
  TransparentForwarder f1(world.sim, tf1, test::kResolverAddr);
  TransparentForwarder f2(world.sim, tf2, test::kResolverAddr);
  f1.install();
  f2.install();

  const auto scanner = make_scanner(scan_config());
  scanner->start({Ipv4{20, 0, 5, 1}, Ipv4{20, 0, 5, 2}});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  ASSERT_EQ(txns.size(), 2u);
  for (const auto& txn : txns) {
    EXPECT_TRUE(txn.answered);
    EXPECT_EQ(txn.response_src, test::kResolverAddr);
    EXPECT_NE(txn.target, txn.response_src);
  }
  // Distinct tuples were used.
  ASSERT_EQ(scanner->probes().size(), 2u);
  EXPECT_NE(scanner->probes()[0].src_port, scanner->probes()[1].src_port);
  EXPECT_EQ(scanner->stats().responses_unmatched, 0u);
}

TEST_F(ScanFixture, TupleUniquenessAcrossPortWrap) {
  ScanConfig cfg = scan_config();
  cfg.port_base = 65530;  // tiny port space: forces wraps
  cfg.port_limit = 65535;
  const auto scanner = make_scanner(cfg);
  std::vector<Ipv4> targets(20, test::kResolverAddr);
  // 20 probes over 6 ports: tuples must still be unique.
  scanner->start(targets);
  scanner->run_to_completion();
  std::set<std::uint32_t> tuples;
  for (const auto& p : scanner->probes()) {
    tuples.insert((std::uint32_t{p.src_port} << 16) | p.txid);
  }
  EXPECT_EQ(tuples.size(), scanner->probes().size());
}

TEST_F(ScanFixture, LateResponsesCountedNotMatched) {
  ScanConfig cfg = scan_config();
  cfg.timeout = Duration::nanos(1);  // everything is late
  const auto scanner = make_scanner(cfg);
  scanner->start({test::kResolverAddr});
  world.sim.run();
  const auto txns = scanner->correlate();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_FALSE(txns[0].answered);
  EXPECT_EQ(scanner->stats().responses_late, 1u);
}

TEST_F(ScanFixture, QueryEncodingModeUsesPerTargetNames) {
  world.auth->set_wildcard_a(Ipv4{198, 51, 100, 10});
  world.auth->enable_query_log();
  ScanConfig cfg = scan_config();
  cfg.qname_for_target = [&](Ipv4 target) {
    std::string label = target.to_string();
    for (auto& ch : label) {
      if (ch == '.') ch = '-';
    }
    return *dnswire::Name::parse(label + ".q.odns-study.net");
  };
  const auto scanner = make_scanner(cfg);
  scanner->start({test::kResolverAddr});
  scanner->run_to_completion();
  ASSERT_EQ(world.auth->query_log().size(), 1u);
  // The resolver 0x20-randomizes the case of its upstream query;
  // Name == folds case.
  EXPECT_EQ(world.auth->query_log()[0].qname,
            *dnswire::Name::parse("8-8-8-8.q.odns-study.net"));
}

TEST_F(ScanFixture, StreamingRejectsANonPositiveFlushInterval) {
  // A zero or negative window would never advance the flush cursor.
  const auto scanner = make_scanner(scan_config());
  scanner->start({test::kResolverAddr});
  const VantageSet::TxnSink sink = [](std::size_t, Transaction&&) {};
  EXPECT_THROW(scanner->run_and_correlate_streaming(Duration::nanos(0), sink),
               std::invalid_argument);
  EXPECT_THROW(scanner->run_and_correlate_streaming(Duration::millis(-5), sink),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Stateless campaigns — the §3 behaviours
// ---------------------------------------------------------------------

class CampaignFixture : public ScanFixture {
 protected:
  // One plain resolver target and one transparent forwarder.
  void SetUp() override {
    tf_addr = Ipv4{20, 0, 6, 1};
    const auto tf_host = world.add_access_host(tf_addr);
    tf = std::make_unique<TransparentForwarder>(world.sim, tf_host,
                                                test::kResolverAddr);
    tf->install();
  }

  std::unique_ptr<StatelessCampaign> run_campaign(CampaignKind kind) {
    CampaignConfig cfg;
    cfg.kind = kind;
    cfg.qname = world.scan_name;
    // Each campaign scans from its own vantage host.
    const auto base = Ipv4{192, 0, 2, 0}.value();
    const auto addr = Ipv4{base + 100 + static_cast<std::uint32_t>(kind)};
    const auto host = world.sim.net().add_host(test::kScannerAsn, {addr});
    auto campaign =
        std::make_unique<StatelessCampaign>(world.sim, host, cfg);
    campaign->run({test::kResolverAddr, tf_addr});
    return campaign;
  }

  Ipv4 tf_addr;
  std::unique_ptr<TransparentForwarder> tf;
};

TEST_F(CampaignFixture, ShadowserverRecordsResponseSources) {
  const auto campaign = run_campaign(CampaignKind::shadowserver);
  // Both answers came from the resolver: one speaker discovered, the
  // transparent forwarder invisible.
  EXPECT_TRUE(campaign->has_discovered(test::kResolverAddr));
  EXPECT_FALSE(campaign->has_discovered(tf_addr));
  EXPECT_EQ(campaign->discovered().size(), 1u);
  EXPECT_EQ(campaign->responses_seen(), 2u);
}

TEST_F(CampaignFixture, CensysSanitizesOffTargetResponses) {
  const auto campaign = run_campaign(CampaignKind::censys);
  EXPECT_TRUE(campaign->has_discovered(test::kResolverAddr));
  EXPECT_FALSE(campaign->has_discovered(tf_addr));
  // The TF-relayed response was dropped by sanitization (its source,
  // the resolver, *was* probed here — so instead it merges: check the
  // drop counter only when source was never probed).
  EXPECT_EQ(campaign->discovered().size(), 1u);
}

TEST_F(CampaignFixture, ShodanDropsResponsesFromUnprobedSources) {
  // Scan only the transparent forwarder: the answer comes from the
  // resolver, which was never probed → sanitized away entirely.
  CampaignConfig cfg;
  cfg.kind = CampaignKind::shodan;
  cfg.qname = world.scan_name;
  const auto host =
      world.sim.net().add_host(test::kScannerAsn, {Ipv4{192, 0, 2, 200}});
  StatelessCampaign campaign(world.sim, host, cfg);
  campaign.run({tf_addr});
  EXPECT_TRUE(campaign.discovered().empty());
  EXPECT_EQ(campaign.responses_dropped_sanitize(), 1u);
}

}  // namespace
}  // namespace odns::scan

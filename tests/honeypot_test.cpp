#include <gtest/gtest.h>

#include <memory>

#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "scan/campaigns.hpp"
#include "topo/deployment.hpp"

namespace odns::honeypot {
namespace {

using scan::CampaignKind;
using util::Duration;
using util::Ipv4;
using util::Prefix;

/// The §3 controlled experiment: a real (small) world with public
/// resolvers, the sensor lab attached, and the three campaign models
/// scanning it from separate vantage networks.
///
/// Each TEST builds its own world (per-test SetUp, not SetUpTestSuite),
/// so the cases share no accumulated state and CTest can register and
/// parallelise them individually (gtest_discover_tests).
class ControlledExperiment : public ::testing::Test {
 protected:
  void SetUp() override {
    topo::TopologyConfig cfg;
    cfg.scale = 0.001;
    cfg.max_countries = 3;  // tiny but complete world
    cfg.seed = 31;
    world_ = topo::TopologyBuilder::build(cfg);
    lab_ = std::make_unique<SensorLab>(deploy_sensor_lab(
        *world_, Prefix{Ipv4{203, 0, 113, 0}, 24}, Ipv4{8, 8, 8, 8}));
  }

  /// All four sensor-facing addresses.
  std::vector<Ipv4> sensor_targets() const {
    return {lab_->sensor1_addr, lab_->sensor2_recv_addr,
            lab_->sensor2_send_addr, lab_->sensor3_addr};
  }

  std::unique_ptr<scan::StatelessCampaign> run_campaign(CampaignKind kind,
                                                        Ipv4 vantage_base) {
    return core::run_campaign(*world_, kind, Prefix{vantage_base, 24},
                              sensor_targets());
  }

  std::unique_ptr<topo::Deployment> world_;
  std::unique_ptr<SensorLab> lab_;
};

TEST_F(ControlledExperiment, Table3ShadowserverRow) {
  const auto campaign =
      run_campaign(CampaignKind::shadowserver, Ipv4{198, 18, 1, 0});
  // ✓ sensor 1 (IP1), ✘ IP2, ✓ IP3 (the replying address), ✘ IP4.
  EXPECT_TRUE(campaign->has_discovered(lab_->sensor1_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor2_recv_addr));
  EXPECT_TRUE(campaign->has_discovered(lab_->sensor2_send_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor3_addr));
}

TEST_F(ControlledExperiment, Table3CensysRow) {
  const auto campaign =
      run_campaign(CampaignKind::censys, Ipv4{198, 18, 2, 0});
  // ✓ IP1 only: the sanitizing step drops IP3's off-target response.
  EXPECT_TRUE(campaign->has_discovered(lab_->sensor1_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor2_recv_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor2_send_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor3_addr));
}

TEST_F(ControlledExperiment, Table3ShodanRow) {
  const auto campaign =
      run_campaign(CampaignKind::shodan, Ipv4{198, 18, 3, 0});
  EXPECT_TRUE(campaign->has_discovered(lab_->sensor1_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor2_recv_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor2_send_addr));
  EXPECT_FALSE(campaign->has_discovered(lab_->sensor3_addr));
}

TEST_F(ControlledExperiment, TransactionalScanFindsAllThreeSensors) {
  // The contrast: this work's scanner identifies every sensor at its
  // probed address.
  const auto host = attach_vantage(*world_, Prefix{Ipv4{198, 18, 4, 0}, 24},
                                   Ipv4{198, 18, 4, 7});
  scan::ScanConfig cfg;
  cfg.qname = world_->scan_name();
  const auto scanner = single_host_scanner(world_->sim(), host, cfg);
  scanner->start({lab_->sensor1_addr, lab_->sensor2_recv_addr,
                  lab_->sensor3_addr});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  ASSERT_EQ(txns.size(), 3u);
  EXPECT_TRUE(txns[0].answered);
  EXPECT_EQ(txns[0].response_src, lab_->sensor1_addr);     // resolver-like
  EXPECT_TRUE(txns[1].answered);
  EXPECT_EQ(txns[1].response_src, lab_->sensor2_send_addr);  // interior TF
  EXPECT_TRUE(txns[2].answered);
  EXPECT_NE(txns[2].response_src, lab_->sensor3_addr);       // exterior TF
}

TEST_F(ControlledExperiment, Sensor3NeverSeesTheAnswer) {
  // Drive traffic through the exterior forwarder ourselves (the fixture
  // is per-test now, so no earlier campaign has touched it).
  run_campaign(CampaignKind::shadowserver, Ipv4{198, 18, 1, 0});
  EXPECT_GT(lab_->sensor3->relayed(), 0u);
  // The sensor relays queries but receives no responses back.
  EXPECT_EQ(lab_->sensor3->counters().responses_in, 0u);
}

TEST_F(ControlledExperiment, RateLimiterSuppressesRepeatedProbes) {
  const auto host = attach_vantage(*world_, Prefix{Ipv4{198, 18, 5, 0}, 24},
                                   Ipv4{198, 18, 5, 7});
  scan::ScanConfig cfg;
  cfg.qname = world_->scan_name();
  cfg.timeout = Duration::seconds(5);
  const auto scanner = single_host_scanner(world_->sim(), host, cfg);
  // Two probes to sensor 1 in quick succession from the same /24:
  // only the first is answered.
  scanner->start({lab_->sensor1_addr, lab_->sensor1_addr});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_TRUE(txns[0].answered);
  EXPECT_FALSE(txns[1].answered);
}

}  // namespace
}  // namespace odns::honeypot

#include <gtest/gtest.h>

#include "dnsroute/dnsroute.hpp"
#include "nodes/forwarder.hpp"
#include "testutil.hpp"

namespace odns::dnsroute {
namespace {

using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Ipv4;
using util::Prefix;

class DnsrouteFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tf_addr = Ipv4{20, 0, 8, 1};
    const auto tf_host = world.add_access_host(tf_addr);
    tf = std::make_unique<TransparentForwarder>(world.sim, tf_host,
                                                test::kResolverAddr);
    tf->install();
  }

  DnsrouteConfig config(int max_ttl = 20) {
    DnsrouteConfig cfg;
    cfg.qname = world.scan_name;
    cfg.max_ttl = max_ttl;
    return cfg;
  }

  registry::RegistrySnapshot registry_view() {
    registry::RegistrySnapshot snap;
    const auto& net = world.sim.net();
    for (const auto& [prefix, asn] : net.announced_prefixes()) {
      snap.routeviews.add(prefix, asn);
    }
    for (const auto asn : net.all_asns()) {
      for (const auto ip : net.find_as(asn)->router_ips) {
        snap.routeviews.add(Prefix{ip, 32}, asn);
      }
    }
    snap.project_asns[test::kResolverAsn] = topo::ResolverProject::google;
    return snap;
  }

  MiniWorld world;
  Ipv4 tf_addr;
  std::unique_ptr<TransparentForwarder> tf;
};

TEST_F(DnsrouteFixture, SeesThroughTheForwarder) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  ASSERT_EQ(paths.size(), 1u);
  const auto& path = paths[0];

  // scanner AS (1 hop) + tier1 (2) + access (1) = 4 routers, then the
  // device itself → target_distance 5.
  EXPECT_EQ(path.target_distance, 5);
  EXPECT_TRUE(path.got_answer);
  EXPECT_EQ(path.resolver, test::kResolverAddr);
  // Behind the device: access(1)+tier1(2)+resolver AS(1) = 4 routers,
  // resolver answers at TTL 5+4+1 = 10; hops = 10-5 = 5 (4 routers +
  // resolver itself).
  EXPECT_EQ(path.answer_ttl, 10);
  EXPECT_EQ(path.forwarder_to_resolver_hops(), 5);
  EXPECT_TRUE(path.complete());
}

TEST_F(DnsrouteFixture, HopsBeforeTargetBelongToTransitAses) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  const auto& path = paths[0];
  const auto& net = world.sim.net();
  // Hops 1..4 are router addresses; hop 5 is the device.
  for (int t = 1; t < path.target_distance; ++t) {
    const auto& hop = path.hops[static_cast<std::size_t>(t - 1)];
    ASSERT_TRUE(hop.responded) << "ttl " << t;
    EXPECT_TRUE(net.router_owner(hop.addr).has_value());
  }
  EXPECT_EQ(path.hops[4].addr, tf_addr);
}

TEST_F(DnsrouteFixture, OrdinaryResolverYieldsNoBeyondHops) {
  // Against a recursive resolver (not transparent), the DNS answer
  // arrives as soon as the TTL reaches the host; nothing lies beyond.
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({test::kResolverAddr});
  const auto& path = paths[0];
  EXPECT_TRUE(path.got_answer);
  // scanner(1)+tier1(2)+resolver(1)=4 routers → answer at TTL 5.
  EXPECT_EQ(path.answer_ttl, 5);
  // The resolver host never emits TTL-exceeded for delivered probes;
  // target_distance stays unset → not a transparent-forwarder path.
  EXPECT_EQ(path.target_distance, -1);
  EXPECT_FALSE(path.complete());
}

TEST_F(DnsrouteFixture, PathLengthSamplesAttributeProjects) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  const auto samples = path_length_samples(paths, registry_view());
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].project, topo::ResolverProject::google);
  EXPECT_EQ(samples[0].hops, 5);
  EXPECT_EQ(samples[0].forwarder_asn, test::kAccessAsn);
}

TEST_F(DnsrouteFixture, LossMakesPathsIncompleteAndSanitized) {
  netsim::SimConfig cfg;
  cfg.loss_rate = 0.35;
  cfg.seed = 11;
  MiniWorld lossy(cfg);
  const auto tf_host = lossy.add_access_host(Ipv4{20, 0, 8, 1});
  TransparentForwarder lossy_tf(lossy.sim, tf_host, test::kResolverAddr);
  lossy_tf.install();

  DnsrouteConfig rc;
  rc.qname = lossy.scan_name;
  rc.max_ttl = 20;
  DnsroutePlusPlus tracer(lossy.sim, lossy.scanner_host, rc);
  std::vector<Ipv4> targets(40, Ipv4{20, 0, 8, 1});
  // Re-probing the same target 40 times: each run may lose probes.
  // (Targets deduplicate per index; paths are independent records.)
  const auto paths = tracer.run(targets);
  int complete = 0;
  for (const auto& p : paths) {
    if (p.complete()) ++complete;
  }
  // With 35% loss most paths have gaps; sanitization must reject them.
  EXPECT_LT(complete, 40);
}

TEST_F(DnsrouteFixture, InfersProviderCustomerRelationships) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  auto snap = registry_view();
  const auto report = infer_relationships(paths, snap);
  EXPECT_EQ(report.paths_considered, 1u);
  EXPECT_EQ(report.paths_with_as_mapping, 1u);
  // Before the forwarder: tier-1 routers; after: the access AS's own
  // routers then tier-1 again → AS_in == AS_out == tier-1.
  EXPECT_EQ(report.as_in_equals_as_out, 1u);
  EXPECT_EQ(report.inferred_provider_customer, 1u);
  // Our registry_view has no CAIDA edges at all → discovery.
  EXPECT_EQ(report.unknown_to_caida, 1u);
}

TEST_F(DnsrouteFixture, KnownCaidaEdgesNotCountedAsDiscoveries) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  auto snap = registry_view();
  snap.caida.add(test::kTier1Asn, test::kAccessAsn);
  const auto report = infer_relationships(paths, snap);
  EXPECT_EQ(report.inferred_provider_customer, 1u);
  EXPECT_EQ(report.unknown_to_caida, 0u);
}

void expect_same_path(const TracePath& got, const TracePath& want,
                      std::size_t index) {
  SCOPED_TRACE("target index " + std::to_string(index));
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.target_distance, want.target_distance);
  EXPECT_EQ(got.got_answer, want.got_answer);
  EXPECT_EQ(got.resolver, want.resolver);
  EXPECT_EQ(got.answer_ttl, want.answer_ttl);
  ASSERT_EQ(got.hops.size(), want.hops.size());
  for (std::size_t t = 0; t < got.hops.size(); ++t) {
    EXPECT_EQ(got.hops[t].responded, want.hops[t].responded) << "ttl " << t + 1;
    EXPECT_EQ(got.hops[t].addr, want.hops[t].addr) << "ttl " << t + 1;
  }
}

TEST_F(DnsrouteFixture, ProbesPastTheFirstTxidPlaneMatchTheirTargets) {
  // 2,200 targets x 30 TTLs = 66,000 probes: probe k leaves from port
  // 1024 + k % 64512 with txid 1 + k / 64512, so from target 2,150 on
  // (k >= 64,512) every port is reused with txid 2.
  const Ipv4 tf2_addr{20, 0, 9, 1};
  TransparentForwarder tf2(world.sim, world.add_access_host(tf2_addr),
                           test::kResolverAddr);
  tf2.install();
  const std::vector<Ipv4> kinds{tf_addr, tf2_addr, test::kResolverAddr};
  std::vector<Ipv4> targets(2200);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = kinds[i % kinds.size()];
  }
  const auto paths =
      DnsroutePlusPlus(world.sim, world.scanner_host, config(30)).run(targets);
  ASSERT_EQ(paths.size(), targets.size());

  std::vector<TracePath> alone;
  for (const auto target : kinds) {
    alone.push_back(
        DnsroutePlusPlus(world.sim, world.scanner_host, config(30))
            .run({target})
            .at(0));
    EXPECT_TRUE(alone.back().got_answer);
  }
  EXPECT_TRUE(alone[0].complete());
  for (std::size_t i = 2150; i < paths.size(); ++i) {
    expect_same_path(paths[i], alone[i % kinds.size()], i);
  }
}

}  // namespace
}  // namespace odns::dnsroute

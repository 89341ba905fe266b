// Failure-injection and edge-case suite: misbehaving peers, loops,
// dead upstreams, malformed traffic — the conditions an Internet-facing
// measurement system actually meets.

#include <gtest/gtest.h>

#include "classify/classify.hpp"
#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/forwarder_bank.hpp"
#include "testutil.hpp"

namespace odns {
namespace {

using namespace nodes;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;

class EdgeFixture : public ::testing::Test {
 protected:
  MiniWorld world;

  StubClient& stub() {
    if (!stub_) {
      const auto host = world.add_access_host(Ipv4{20, 0, 99, 1});
      stub_ = std::make_unique<StubClient>(world.sim, host);
      stub_->start();
    }
    return *stub_;
  }

  std::unique_ptr<StubClient> stub_;
};

// ---------------------------------------------------------------------
// Forwarding loops
// ---------------------------------------------------------------------

TEST_F(EdgeFixture, TransparentForwarderLoopIsKilledByTtl) {
  // Two devices redirecting port 53 at each other: the relayed packet
  // ping-pongs, losing one TTL per relay plus per-hop decrements, and
  // dies with an ICMP instead of looping forever.
  const auto a = world.add_access_host(Ipv4{20, 0, 50, 1});
  const auto b = world.add_access_host(Ipv4{20, 0, 50, 2});
  world.sim.add_port_redirect(a, kDnsPort, Ipv4{20, 0, 50, 2});
  world.sim.add_port_redirect(b, kDnsPort, Ipv4{20, 0, 50, 1});

  stub().query(Ipv4{20, 0, 50, 1}, world.scan_name);
  const auto events_before = world.sim.events_executed();
  world.sim.run();
  // Terminates (bounded event count) and no DNS answer materializes.
  EXPECT_LT(world.sim.events_executed() - events_before, 1000u);
  EXPECT_TRUE(stub().responses().empty());
  EXPECT_GE(world.sim.counters().ttl_expired +
                world.sim.counters().icmp_generated,
            1u);
}

TEST_F(EdgeFixture, SelfRedirectIsKilledByTtl) {
  const auto a = world.add_access_host(Ipv4{20, 0, 51, 1});
  world.sim.add_port_redirect(a, kDnsPort, Ipv4{20, 0, 51, 1});
  stub().query(Ipv4{20, 0, 51, 1}, world.scan_name);
  world.sim.run();
  EXPECT_TRUE(stub().responses().empty());
}

// ---------------------------------------------------------------------
// Dead / misbehaving upstreams
// ---------------------------------------------------------------------

TEST_F(EdgeFixture, ForwarderWithDeadUpstreamProducesNoAnswer) {
  ForwarderBank bank(world.sim);
  ForwarderBank::MemberConfig mc;
  mc.addr = Ipv4{20, 0, 52, 1};
  mc.upstream = Ipv4{20, 0, 52, 99};  // nobody home
  bank.add_member(world.add_access_host(mc.addr), mc);
  bank.seal();
  stub().query(Ipv4{20, 0, 52, 1}, world.scan_name);
  world.sim.run();
  EXPECT_TRUE(stub().responses().empty());
  EXPECT_EQ(bank.stats().forwarded, 1u);
  EXPECT_EQ(bank.stats().upstream_responses, 0u);
}

TEST_F(EdgeFixture, TransparentForwarderToDeadResolverTimesOutAtScanner) {
  const auto tf_host = world.add_access_host(Ipv4{20, 0, 53, 1});
  world.sim.add_port_redirect(tf_host, kDnsPort, Ipv4{20, 0, 53, 99});
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(5);
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start({Ipv4{20, 0, 53, 1}});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  EXPECT_FALSE(txns[0].answered);
}

TEST_F(EdgeFixture, ResolverIgnoresSpoofedOffPathResponses) {
  // An attacker blasts forged responses at the resolver's ephemeral
  // ports; without a matching (port, txid) transaction they must be
  // dropped (the classic cache-poisoning precondition).
  const auto attacker = world.add_access_host(Ipv4{20, 0, 54, 1});
  auto resp = dnswire::make_response(
      dnswire::make_query(0xBEEF, world.scan_name, dnswire::RrType::a));
  resp.answers.push_back(dnswire::ResourceRecord::a(
      world.scan_name, Ipv4{6, 6, 6, 6}, 3600));
  for (std::uint16_t port = 49152; port < 49352; ++port) {
    netsim::SendOptions opts;
    opts.dst = test::kResolverAddr;
    opts.src_port = 53;
    opts.dst_port = port;
    opts.payload = dnswire::encode(resp);
    world.sim.send_udp(attacker, std::move(opts));
  }
  world.sim.run();
  // The poison never enters the cache: a later legitimate query
  // resolves to the true records.
  stub().query(test::kResolverAddr, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub().responses().size(), 1u);
  const auto addrs = stub().responses().front().message.answer_addresses();
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_NE(addrs[0], (Ipv4{6, 6, 6, 6}));
  EXPECT_EQ(addrs[1], test::kControlAddr);
}

TEST_F(EdgeFixture, MalformedDatagramsAreCountedAndIgnored) {
  const auto sender = world.add_access_host(Ipv4{20, 0, 55, 1});
  netsim::SendOptions opts;
  opts.dst = test::kResolverAddr;
  opts.src_port = 1234;
  opts.dst_port = 53;
  opts.payload = {0xDE, 0xAD};  // truncated header
  world.sim.send_udp(sender, std::move(opts));
  world.sim.run();
  EXPECT_EQ(world.resolver->counters().parse_errors, 1u);
  // The resolver is still healthy afterwards.
  stub().query(test::kResolverAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub().responses().size(), 1u);
}

TEST_F(EdgeFixture, MultiQuestionQueriesGetFormerr) {
  const auto sender = world.add_access_host(Ipv4{20, 0, 56, 1});
  StubClient client(world.sim, sender);
  client.start();
  auto query = dnswire::make_query(7, world.scan_name, dnswire::RrType::a);
  query.questions.push_back(query.questions.front());
  netsim::SendOptions opts;
  opts.dst = test::kResolverAddr;
  opts.src_port = 20001;
  opts.dst_port = 53;
  opts.payload = dnswire::encode(query);
  world.sim.send_udp(sender, std::move(opts));
  world.sim.run();
  ASSERT_EQ(client.responses().size(), 1u);
  EXPECT_EQ(client.responses().front().message.header.rcode,
            dnswire::Rcode::formerr);
}

// ---------------------------------------------------------------------
// Chains
// ---------------------------------------------------------------------

TEST_F(EdgeFixture, TransparentChainThroughRecursiveForwarder) {
  // TF → RF → public resolver: the scanner's answer arrives from the
  // RF (not the TF, not the resolver) and the mirror record exposes
  // the resolver — the indirect-consolidation signature.
  const auto rf_host = world.add_access_host(Ipv4{20, 0, 57, 2});
  RecursiveForwarder rf(world.sim, rf_host, test::kResolverAddr);
  rf.start();

  const auto tf_host = world.add_access_host(Ipv4{20, 0, 57, 1});
  world.sim.add_port_redirect(tf_host, kDnsPort, Ipv4{20, 0, 57, 2});

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start({Ipv4{20, 0, 57, 1}});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  ASSERT_TRUE(txns[0].answered);
  EXPECT_EQ(txns[0].response_src, (Ipv4{20, 0, 57, 2}));
  ASSERT_TRUE(txns[0].dynamic_a().has_value());
  EXPECT_EQ(*txns[0].dynamic_a(), test::kResolverAddr);

  classify::ClassifyConfig cc;
  cc.control_addr = test::kControlAddr;
  EXPECT_EQ(classify::classify_one(txns[0], cc),
            classify::Klass::transparent_forwarder);
}

TEST_F(EdgeFixture, DoubleTransparentChain) {
  // TF → TF → resolver still answers the client directly, consuming
  // one extra TTL per device.
  const auto tf1 = world.add_access_host(Ipv4{20, 0, 58, 1});
  const auto tf2 = world.add_access_host(Ipv4{20, 0, 58, 2});
  world.sim.add_port_redirect(tf1, kDnsPort, Ipv4{20, 0, 58, 2});
  world.sim.add_port_redirect(tf2, kDnsPort, test::kResolverAddr);
  stub().query(Ipv4{20, 0, 58, 1}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub().responses().size(), 1u);
  EXPECT_EQ(stub().responses().front().from, test::kResolverAddr);
  EXPECT_EQ(world.sim.redirect_relays(tf1), 1u);
  EXPECT_EQ(world.sim.redirect_relays(tf2), 1u);
}

// ---------------------------------------------------------------------
// Scanner pacing and wrap-around
// ---------------------------------------------------------------------

TEST_F(EdgeFixture, ProbePacingFollowsConfiguredRate) {
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.probes_per_second = 1000;  // 1 ms apart
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  std::vector<Ipv4> targets(10, test::kResolverAddr);
  scanner->start(targets);
  world.sim.run();
  ASSERT_EQ(scanner->probes().size(), 10u);
  for (std::size_t i = 1; i < scanner->probes().size(); ++i) {
    const auto gap =
        scanner->probes()[i].sent_at - scanner->probes()[i - 1].sent_at;
    EXPECT_EQ(gap.count_nanos(), 1'000'000);
  }
}

TEST_F(EdgeFixture, RapidRequeriesServedFromResolverCache) {
  // 50 clients asking the same name: exactly one authoritative lookup.
  for (int i = 0; i < 50; ++i) {
    stub().query(test::kResolverAddr, world.scan_name);
  }
  world.sim.run();
  EXPECT_EQ(stub().responses().size(), 50u);
  EXPECT_EQ(world.auth->queries_answered(), 1u);
}

}  // namespace
}  // namespace odns

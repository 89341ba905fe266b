// Persistence round-trips, offline correlation equivalence, and the
// 0x20 anti-spoofing behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "honeypot/lab.hpp"
#include "scan/log_io.hpp"
#include "testutil.hpp"

namespace odns::scan {
namespace {

using test::MiniWorld;
using util::Duration;
using util::Ipv4;

/// Scans `targets` from the world's scanner host (a VantageSet of one).
std::unique_ptr<VantageSet> scan_world(MiniWorld& world, ScanConfig sc,
                                       const std::vector<Ipv4>& targets) {
  sc.qname = world.scan_name;
  auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start(targets);
  scanner->run_to_completion();
  return scanner;
}

class LogIoFixture : public ::testing::Test {
 protected:
  MiniWorld world;

  std::unique_ptr<VantageSet> scan_resolver() {
    return scan_world(world, ScanConfig{}, {test::kResolverAddr});
  }
};

TEST_F(LogIoFixture, ProbeLogRoundTrip) {
  const auto scanner = scan_resolver();
  std::stringstream ss;
  write_probes_csv(ss, scanner->probes());
  const auto back = read_probes_csv(ss);
  ASSERT_EQ(back.size(), scanner->probes().size());
  EXPECT_EQ(back[0].target, scanner->probes()[0].target);
  EXPECT_EQ(back[0].src_port, scanner->probes()[0].src_port);
  EXPECT_EQ(back[0].txid, scanner->probes()[0].txid);
  EXPECT_EQ(back[0].sent_at, scanner->probes()[0].sent_at);
}

TEST_F(LogIoFixture, CaptureLogRoundTrip) {
  const auto scanner = scan_resolver();
  const auto& capture = scanner->capture_of(0);
  std::stringstream ss;
  write_capture_csv(ss, capture);
  const auto back = read_capture_csv(ss);
  ASSERT_EQ(back.size(), capture.size());
  EXPECT_EQ(back[0].src, capture[0].src);
  EXPECT_EQ(back[0].answer_addrs, capture[0].answer_addrs);
  EXPECT_EQ(back[0].rcode, capture[0].rcode);
}

struct Joins {
  std::vector<Transaction> online;
  std::vector<Transaction> offline;
};

/// Persists the scan's logs, then joins them online and, from the
/// read-back CSVs, offline.
Joins join_both_ways(VantageSet& scanner, const ScanConfig& sc) {
  std::stringstream probes_csv;
  std::stringstream capture_csv;
  write_probes_csv(probes_csv, scanner.probes());
  write_capture_csv(capture_csv, scanner.capture_of(0));
  Joins joins;
  joins.online = scanner.correlate();  // drains the capture
  joins.offline = correlate_offline(read_probes_csv(probes_csv),
                                    read_capture_csv(capture_csv), sc.timeout,
                                    sc.retry_extension());
  return joins;
}

void expect_same_rows(const Joins& joins) {
  ASSERT_EQ(joins.offline.size(), joins.online.size());
  for (std::size_t i = 0; i < joins.online.size(); ++i) {
    EXPECT_EQ(joins.offline[i].answered, joins.online[i].answered)
        << "probe " << i;
    EXPECT_EQ(joins.offline[i].response_src, joins.online[i].response_src);
    EXPECT_EQ(joins.offline[i].rtt, joins.online[i].rtt);
    EXPECT_EQ(joins.offline[i].answer_addrs, joins.online[i].answer_addrs);
  }
}

TEST_F(LogIoFixture, OfflineCorrelationMatchesOnline) {
  const auto scanner = scan_resolver();
  expect_same_rows(join_both_ways(*scanner, ScanConfig{}));
}

TEST(LogIoHardening, OfflineCorrelationMatchesOnlineUnderRetries) {
  // A lossy scan with retransmissions. The access network is dark
  // while the originals go out, so the answers that come back were
  // elicited by retries: past the original timeout, inside the retry
  // extension. Offline correlation must count them exactly as online.
  netsim::SimConfig cfg;
  cfg.seed = 11;
  cfg.loss_rate = 0.05;
  cfg.faults.outages.push_back(
      netsim::OutageWindow{test::kAccessAsn, util::SimTime::origin(),
                           util::SimTime::origin() + Duration::millis(500)});
  MiniWorld world(cfg);
  std::vector<std::unique_ptr<nodes::TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < 20; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    tfs.push_back(std::make_unique<nodes::TransparentForwarder>(
        world.sim, world.add_access_host(addr), test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  ScanConfig sc;
  sc.timeout = Duration::seconds(1);
  sc.max_retries = 2;
  sc.backoff_base = Duration::seconds(1);
  const auto scanner = scan_world(world, sc, targets);
  const Joins joins = join_both_ways(*scanner, sc);
  expect_same_rows(joins);
  EXPECT_TRUE(std::any_of(joins.online.begin(), joins.online.end(),
                          [&](const Transaction& t) {
                            return t.answered && t.rtt > sc.timeout;
                          }))
      << "the scan must exercise the retry window";
}

TEST_F(LogIoFixture, TransactionsRoundTrip) {
  const auto scanner = scan_resolver();
  const auto txns = scanner->correlate();
  std::stringstream ss;
  write_transactions_csv(ss, txns);
  const auto back = read_transactions_csv(ss);
  ASSERT_EQ(back.size(), txns.size());
  EXPECT_EQ(back[0].answered, txns[0].answered);
  EXPECT_EQ(back[0].response_src, txns[0].response_src);
  EXPECT_EQ(back[0].rtt.count_nanos(), txns[0].rtt.count_nanos());
}

TEST(LogIoHardening, MalformedRowsAreSkipped) {
  std::stringstream ss(
      "target,src_port,txid,sent_at_ns\n"
      "not-an-ip,1,2,3\n"
      "192.0.2.1,1000,42,12345\n"
      "short,row\n");
  const auto probes = read_probes_csv(ss);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].target, (Ipv4{192, 0, 2, 1}));
}

// ---------------------------------------------------------------------
// DNS 0x20
// ---------------------------------------------------------------------

class Dns0x20Fixture : public ::testing::Test {
 protected:
  MiniWorld world;
};

TEST_F(Dns0x20Fixture, LegitimateResolutionUnaffected) {
  // The MiniWorld resolver has case randomization on by default; the
  // auth hierarchy echoes questions verbatim, so everything resolves.
  const auto host = world.add_access_host(Ipv4{20, 0, 70, 1});
  nodes::StubClient stub(world.sim, host);
  stub.start();
  stub.query(test::kResolverAddr, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub.responses().size(), 1u);
  EXPECT_EQ(stub.responses().front().message.header.rcode,
            dnswire::Rcode::noerror);
  EXPECT_EQ(world.resolver->stats().rejected_0x20, 0u);
}

TEST_F(Dns0x20Fixture, ForgedResponsesWithWrongCaseRejected) {
  // A blind forger sprays responses guessing ports and TXIDs but spells
  // the name in plain lowercase. With case randomization the resolver
  // must reject any that happen to hit a pending tuple.
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {Ipv4{198, 41, 0, 99}};  // black hole: keeps tasks pending
  rc.upstream_timeout = util::Duration::seconds(30);
  const auto rhost =
      world.sim.net().add_host(test::kResolverAsn, {Ipv4{8, 8, 8, 110}});
  nodes::RecursiveResolver victim(world.sim, rhost, rc, 5);
  victim.start();

  const auto client = world.add_access_host(Ipv4{20, 0, 71, 1});
  nodes::StubClient stub(world.sim, client);
  stub.start();
  stub.query(Ipv4{8, 8, 8, 110}, world.scan_name);
  world.sim.run_until(world.sim.now() + util::Duration::seconds(1));

  // Brute-force the full TXID space against the resolver's first
  // ephemeral port: some forgery necessarily matches the pending
  // (port, txid) tuple, and the 0x20 check must still reject it.
  const auto attacker = world.add_access_host(Ipv4{20, 0, 71, 2});
  auto forged = dnswire::make_response(
      dnswire::make_query(0, world.scan_name, dnswire::RrType::a));
  forged.answers.push_back(dnswire::ResourceRecord::a(
      world.scan_name, Ipv4{6, 6, 6, 6}, 3600));
  for (std::uint32_t txid = 0; txid < 65536; ++txid) {
    forged.header.id = static_cast<std::uint16_t>(txid);
    netsim::SendOptions opts;
    opts.dst = Ipv4{8, 8, 8, 110};
    opts.src_port = 53;
    opts.dst_port = 49152;  // the resolver's first ephemeral port
    opts.payload = dnswire::encode(forged);
    opts.spoof_src = Ipv4{198, 41, 0, 99};
    world.sim.send_udp(attacker, std::move(opts));
  }
  world.sim.run_until(world.sim.now() + util::Duration::seconds(2));

  // Some forgeries matched (port, txid) — all were rejected on case.
  EXPECT_GT(victim.stats().rejected_0x20, 0u);
  // The poisoned record never reached a client.
  EXPECT_TRUE(stub.responses().empty() ||
              stub.responses().front().message.answer_addresses().empty() ||
              stub.responses().front().message.answer_addresses()[0] !=
                  (Ipv4{6, 6, 6, 6}));
}

TEST_F(Dns0x20Fixture, DisabledRandomizationAcceptsPlainCase) {
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {test::kRootAddr};
  rc.case_randomization = false;
  const auto rhost =
      world.sim.net().add_host(test::kResolverAsn, {Ipv4{8, 8, 8, 111}});
  nodes::RecursiveResolver plain(world.sim, rhost, rc, 5);
  plain.start();
  const auto client = world.add_access_host(Ipv4{20, 0, 72, 1});
  nodes::StubClient stub(world.sim, client);
  stub.start();
  stub.query(Ipv4{8, 8, 8, 111}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub.responses().size(), 1u);
  EXPECT_EQ(stub.responses().front().message.header.rcode,
            dnswire::Rcode::noerror);
}

}  // namespace
}  // namespace odns::scan

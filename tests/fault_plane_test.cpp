// Chaos-differential harness for the adverse-network fault plane
// ("Fault plane & graceful degradation", docs/architecture.md): every
// fault decision is a stateless per-packet hash, so (1) the zero-fault
// configuration is byte-identical to an engine without the plane,
// (2) faulted runs are byte-identical across shard counts, thread
// modes, and seeds, and (3) scanner retransmissions monotonically
// recover census coverage without ever changing an existing packet's
// fate. Plus the unit surface: FaultPlane decisions, the retry-aware
// correlation rules (one pass and watermarked), the retry plan shape,
// and the (time, shard, seq) merge contract under maximum jitter.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "classify/analysis.hpp"
#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "netsim/fault_plane.hpp"
#include "nodes/forwarder.hpp"
#include "scan/plan.hpp"
#include "scan/stream.hpp"
#include "scan/vantage.hpp"
#include "testutil.hpp"

namespace odns {
namespace {

using netsim::FaultConfig;
using netsim::FaultPlane;
using netsim::HostId;
using netsim::OutageWindow;
using netsim::Packet;
using netsim::Protocol;
using netsim::SimConfig;
using netsim::SimCounters;
using netsim::TraceRecord;
using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::SimTime;

// ---------------------------------------------------------------------
// FaultPlane unit surface
// ---------------------------------------------------------------------

Packet make_packet(std::uint8_t last_octet) {
  Packet pkt;
  pkt.src = Ipv4{192, 0, 2, 1};
  pkt.dst = Ipv4{20, 0, 9, last_octet};
  pkt.src_port = 40000;
  pkt.dst_port = 53;
  pkt.ttl = 64;
  pkt.proto = Protocol::udp;
  pkt.payload = {0x12, 0x34, 0x01, 0x00};
  return pkt;
}

TEST(FaultPlaneUnit, DefaultConfigIsInert) {
  EXPECT_FALSE(FaultConfig{}.any());
  FaultPlane plane;
  plane.configure(FaultConfig{}, 1, Duration::micros(500));
  EXPECT_FALSE(plane.active());
  const Packet pkt = make_packet(1);
  const auto skew = plane.delivery_skew(pkt, SimTime::origin());
  EXPECT_EQ(skew.extra.count_nanos(), 0);
  EXPECT_FALSE(skew.jittered);
  EXPECT_FALSE(plane.duplicate(pkt, SimTime::origin()));
}

TEST(FaultPlaneUnit, JitterIsBoundedDeterministicAndSeedKeyed) {
  FaultConfig cfg;
  cfg.jitter_rate = 1.0;
  cfg.jitter_max = Duration::millis(10);
  FaultPlane plane;
  plane.configure(cfg, 42, Duration::micros(500));
  ASSERT_TRUE(plane.active());

  FaultPlane replay;
  replay.configure(cfg, 42, Duration::micros(500));
  FaultPlane other_seed;
  other_seed.configure(cfg, 43, Duration::micros(500));

  bool some_differ = false;
  for (std::uint8_t i = 1; i < 60; ++i) {
    const Packet pkt = make_packet(i);
    const SimTime at = SimTime::from_nanos(i * 1000);
    const auto skew = plane.delivery_skew(pkt, at);
    EXPECT_TRUE(skew.jittered);
    EXPECT_GT(skew.extra.count_nanos(), 0);
    EXPECT_LE(skew.extra.count_nanos(), cfg.jitter_max.count_nanos());
    // Same (packet, instant, seed) -> same decision, always.
    EXPECT_EQ(replay.delivery_skew(pkt, at).extra.count_nanos(),
              skew.extra.count_nanos());
    some_differ |= other_seed.delivery_skew(pkt, at).extra.count_nanos() !=
                   skew.extra.count_nanos();
  }
  EXPECT_TRUE(some_differ) << "jitter magnitudes must depend on the seed";
}

TEST(FaultPlaneUnit, ReorderSkewIsWholeHopLatencies) {
  FaultConfig cfg;
  cfg.reorder_rate = 1.0;
  cfg.reorder_cohorts_max = 4;
  const Duration hop = Duration::micros(500);
  FaultPlane plane;
  plane.configure(cfg, 7, hop);
  for (std::uint8_t i = 1; i < 40; ++i) {
    const auto skew = plane.delivery_skew(make_packet(i), SimTime::origin());
    ASSERT_TRUE(skew.reordered);
    EXPECT_EQ(skew.extra.count_nanos() % hop.count_nanos(), 0);
    EXPECT_GE(skew.extra.count_nanos(), hop.count_nanos());
    EXPECT_LE(skew.extra.count_nanos(), 4 * hop.count_nanos());
  }
}

TEST(FaultPlaneUnit, CorruptionFlipsExactlyOneUdpPayloadByte) {
  FaultConfig cfg;
  cfg.corrupt_rate = 1.0;
  FaultPlane plane;
  plane.configure(cfg, 9, Duration::micros(500));
  Packet pkt = make_packet(3);
  const std::vector<std::uint8_t> before = pkt.payload;
  ASSERT_TRUE(plane.corrupt_payload(pkt, SimTime::origin()));
  ASSERT_EQ(pkt.payload.size(), before.size());
  int flipped = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    flipped += pkt.payload[i] != before[i];
  }
  EXPECT_EQ(flipped, 1);

  // ICMP payloads and empty payloads are never touched.
  Packet icmp = make_packet(3);
  icmp.proto = Protocol::icmp;
  EXPECT_FALSE(plane.corrupt_payload(icmp, SimTime::origin()));
  Packet empty = make_packet(3);
  empty.payload.clear();
  EXPECT_FALSE(plane.corrupt_payload(empty, SimTime::origin()));
}

TEST(FaultPlaneUnit, OutageWindowsAreHalfOpenPerAs) {
  FaultConfig cfg;
  cfg.outages.push_back(OutageWindow{400, SimTime::from_nanos(1000),
                                     SimTime::from_nanos(2000)});
  FaultPlane plane;
  plane.configure(cfg, 1, Duration::micros(500));
  EXPECT_FALSE(plane.in_outage(400, SimTime::from_nanos(999)));
  EXPECT_TRUE(plane.in_outage(400, SimTime::from_nanos(1000)));
  EXPECT_TRUE(plane.in_outage(400, SimTime::from_nanos(1999)));
  EXPECT_FALSE(plane.in_outage(400, SimTime::from_nanos(2000)));
  EXPECT_FALSE(plane.in_outage(300, SimTime::from_nanos(1500)));
}

TEST(FaultPlaneUnit, UnreachableBucketFreezesVerdictPerInstantAndRefills) {
  FaultConfig cfg;
  cfg.outages.push_back(
      OutageWindow{400, SimTime::origin(), SimTime::from_nanos(1)});
  cfg.unreachable_per_second = 2.0;  // burst 2, refill 2/s
  FaultPlane plane;
  plane.configure(cfg, 1, Duration::micros(500));
  plane.resize_buckets(1);

  // Fresh bucket starts full (burst 2): the first instant's verdict is
  // admit, and every same-instant emission shares it (order-independent
  // within the instant, consuming into bounded debt).
  const SimTime t0 = SimTime::from_nanos(5000);
  EXPECT_TRUE(plane.allow_unreachable(0, t0));
  EXPECT_TRUE(plane.allow_unreachable(0, t0));
  EXPECT_TRUE(plane.allow_unreachable(0, t0));

  // Immediately after, the bucket is deep in debt: suppressed.
  EXPECT_FALSE(plane.allow_unreachable(0, t0 + Duration::nanos(1)));

  // Two seconds at 2/s repay the debt (clamped at the burst).
  EXPECT_TRUE(plane.allow_unreachable(0, t0 + Duration::seconds(2)));
}

// ---------------------------------------------------------------------
// Chaos differential: faulted runs invariant across shard counts
// ---------------------------------------------------------------------

struct RunFingerprint {
  SimCounters counters;
  std::uint64_t trace_digest = 0;
  std::string transactions;
  scan::ScannerStats stats;

  friend bool operator==(const RunFingerprint& a, const RunFingerprint& b) {
    return a.counters == b.counters && a.trace_digest == b.trace_digest &&
           a.transactions == b.transactions &&
           a.stats.probes_sent == b.stats.probes_sent &&
           a.stats.probes_retried == b.stats.probes_retried &&
           a.stats.responses_received == b.stats.responses_received &&
           a.stats.responses_unmatched == b.stats.responses_unmatched &&
           a.stats.responses_duplicate == b.stats.responses_duplicate &&
           a.stats.responses_late == b.stats.responses_late &&
           a.stats.parse_errors == b.stats.parse_errors &&
           a.stats.responses_corrupt == b.stats.responses_corrupt &&
           a.stats.icmp_errors == b.stats.icmp_errors;
  }
};

std::string render_transactions(const std::vector<scan::Transaction>& txns) {
  std::ostringstream out;
  for (const auto& t : txns) {
    out << t.target.to_string() << ' ' << t.answered << ' '
        << t.response_src.to_string() << ' ' << t.rtt.count_nanos() << ' '
        << static_cast<int>(t.rcode);
    for (const auto& a : t.answer_addrs) out << ' ' << a.to_string();
    out << '\n';
  }
  return out.str();
}

FaultConfig chaos_faults() {
  FaultConfig f;
  f.jitter_rate = 0.3;
  f.jitter_max = Duration::millis(5);
  f.reorder_rate = 0.15;
  f.dup_rate = 0.1;
  f.corrupt_rate = 0.05;
  return f;
}

/// MiniWorld + a row of transparent forwarders, scanned from the scanner
/// host under `cfg.faults` (and optional retries).
RunFingerprint run_chaos_scan(SimConfig cfg, int forwarders,
                              std::uint32_t retries = 0) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < forwarders; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  targets.push_back(test::kResolverAddr);
  targets.push_back(Ipv4{20, 0, 9, 200});  // unresponsive

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);
  sc.max_retries = retries;
  sc.backoff_base = Duration::millis(200);
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start(targets);
  scanner->run_to_completion();

  RunFingerprint fp;
  fp.transactions = render_transactions(scanner->correlate());
  fp.counters = world.sim.counters();
  fp.trace_digest = world.sim.canonical_trace_digest();
  fp.stats = scanner->stats();
  return fp;
}

SimConfig chaos_cfg(std::uint32_t shards, std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.loss_rate = 0.03;
  cfg.faults = chaos_faults();
  return cfg;
}

TEST(ChaosDifferential, FaultedScanInvariantAcrossShardCountsAndThreads) {
  for (const std::uint64_t seed : {1ull, 7ull, 2021ull}) {
    const auto reference = run_chaos_scan(chaos_cfg(1, seed), 8);
    // The faults must actually be firing, or this test proves nothing.
    EXPECT_GT(reference.counters.jittered, 0u);
    EXPECT_GT(reference.counters.duplicated, 0u);
    for (const std::uint32_t shards : {2u, 8u}) {
      EXPECT_EQ(run_chaos_scan(chaos_cfg(shards, seed), 8), reference)
          << "shards=" << shards << " seed=" << seed;
    }
  }
}

TEST(ChaosDifferential, RetriedFaultedScanInvariantAcrossShardCounts) {
  // Retransmissions are plan-level and unconditional, so the full
  // faulted + retried run keeps the invariance bar.
  const auto reference = run_chaos_scan(chaos_cfg(1, 77), 8, 2);
  EXPECT_GT(reference.stats.probes_retried, 0u);
  for (const std::uint32_t shards : {2u, 8u}) {
    const auto fp = run_chaos_scan(chaos_cfg(shards, 77), 8, 2);
    EXPECT_EQ(fp, reference) << "shards=" << shards;
  }
}

TEST(ChaosDifferential, ZeroFaultConfigLeavesClassicRunUntouched) {
  // A SimConfig with a default-constructed FaultConfig must reproduce
  // the classic scan byte for byte, with every fault counter at zero.
  SimConfig plain;
  plain.seed = 5;
  const auto reference = run_chaos_scan(plain, 6);
  SimConfig zeroed;
  zeroed.seed = 5;
  zeroed.faults = FaultConfig{};
  zeroed.faults.jitter_max = Duration::millis(99);  // knobs without rates
  zeroed.faults.reorder_cohorts_max = 7;
  zeroed.faults.unreachable_per_second = 50.0;
  const auto fp = run_chaos_scan(zeroed, 6);
  EXPECT_EQ(fp, reference);
  EXPECT_EQ(fp.counters.jittered, 0u);
  EXPECT_EQ(fp.counters.reordered, 0u);
  EXPECT_EQ(fp.counters.duplicated, 0u);
  EXPECT_EQ(fp.counters.corrupted, 0u);
  EXPECT_EQ(fp.counters.dropped_outage, 0u);
  EXPECT_EQ(fp.counters.icmp_unreachable_suppressed, 0u);
}

// ---------------------------------------------------------------------
// Outages: dark windows, rate-limited unreachable, retry recovery
// ---------------------------------------------------------------------

struct OutageRun {
  RunFingerprint fp;
  std::uint64_t answered = 0;
};

OutageRun run_outage_scan(SimConfig cfg, std::uint32_t retries) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);
  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < 50; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  targets.push_back(test::kResolverAddr);

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);
  sc.max_retries = retries;
  sc.backoff_base = Duration::millis(100);
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start(targets);
  scanner->run_to_completion();

  OutageRun run;
  const auto txns = scanner->correlate();
  for (const auto& t : txns) run.answered += t.answered;
  run.fp.transactions = render_transactions(txns);
  run.fp.counters = world.sim.counters();
  run.fp.trace_digest = world.sim.canonical_trace_digest();
  run.fp.stats = scanner->stats();
  return run;
}

SimConfig outage_baseline_cfg() {
  SimConfig cfg;
  cfg.seed = 11;
  return cfg;
}

SimConfig outage_cfg(std::uint32_t shards, double unreachable_rate) {
  SimConfig cfg;
  cfg.seed = 11;
  cfg.shards = shards;
  // The access network goes dark for the first 4 ms of the scan: probes
  // arriving before the window closes are dropped at the would-be
  // delivery instant, later ones get through.
  cfg.faults.outages.push_back(
      OutageWindow{test::kAccessAsn, SimTime::origin(),
                   SimTime::origin() + Duration::millis(4)});
  cfg.faults.unreachable_per_second = unreachable_rate;
  return cfg;
}

TEST(OutagePlane, DarkWindowDropsThenRecoversAndStaysShardInvariant) {
  const OutageRun baseline = run_outage_scan(outage_baseline_cfg(), 0);
  const OutageRun dark = run_outage_scan(outage_cfg(1, 0.0), 0);
  EXPECT_GT(dark.fp.counters.dropped_outage, 0u);
  EXPECT_GT(dark.answered, 0u) << "targets past the window must recover";
  EXPECT_LT(dark.answered, baseline.answered)
      << "targets inside the window must be lost";
  // Silent mode: no unreachable emission at all.
  EXPECT_EQ(dark.fp.stats.icmp_errors, 0u);
  for (const std::uint32_t shards : {2u, 8u}) {
    const OutageRun fp = run_outage_scan(outage_cfg(shards, 0.0), 0);
    EXPECT_EQ(fp.fp, dark.fp) << "shards=" << shards;
  }
}

TEST(OutagePlane, UnreachableEmissionIsRateLimitedAndShardInvariant) {
  const OutageRun run = run_outage_scan(outage_cfg(1, 1.0), 0);
  EXPECT_GE(run.fp.stats.icmp_errors, 1u)
      << "the dark border router must answer at least the first drop";
  EXPECT_GT(run.fp.counters.icmp_unreachable_suppressed, 0u)
      << "the token bucket must clamp the rest of the burst";
  EXPECT_LT(run.fp.stats.icmp_errors,
            run.fp.counters.dropped_outage)
      << "unreachable emission must stay below one per dropped packet";
  for (const std::uint32_t shards : {2u, 8u}) {
    const OutageRun fp = run_outage_scan(outage_cfg(shards, 1.0), 0);
    EXPECT_EQ(fp.fp, run.fp) << "shards=" << shards;
  }
}

TEST(OutagePlane, RetriesRecoverEveryTargetLostToTheWindow) {
  // Retries land 100 ms and 300 ms after the originals — far past the
  // 4 ms dark window — so the retried census recovers the full
  // baseline population.
  const OutageRun baseline = run_outage_scan(outage_baseline_cfg(), 0);
  const OutageRun dark = run_outage_scan(outage_cfg(1, 0.0), 0);
  const OutageRun retried = run_outage_scan(outage_cfg(1, 0.0), 2);
  EXPECT_GT(retried.fp.stats.probes_retried, 0u);
  EXPECT_GT(retried.answered, dark.answered);
  EXPECT_EQ(retried.answered, baseline.answered);
}

// ---------------------------------------------------------------------
// Merge contract and streaming watermarks under maximum fault skew
// ---------------------------------------------------------------------

TEST(MergeContract, TraceStaysSortedByTimeShardSeqUnderMaxJitter) {
  SimConfig cfg;
  cfg.seed = 3;
  cfg.shards = 4;
  cfg.faults.jitter_rate = 1.0;
  cfg.faults.jitter_max = Duration::millis(20);
  cfg.faults.reorder_rate = 1.0;
  cfg.faults.dup_rate = 0.2;

  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);
  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < 12; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(2);
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start(targets);
  scanner->run_to_completion();

  const std::vector<TraceRecord> trace = world.sim.merged_trace();
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const TraceRecord& a = trace[i - 1];
    const TraceRecord& b = trace[i];
    const bool ordered =
        a.at < b.at || (a.at == b.at && a.shard < b.shard) ||
        (a.at == b.at && a.shard == b.shard && a.seq < b.seq);
    ASSERT_TRUE(ordered) << "merge contract violated at record " << i;
  }
}

TEST(MergeContract, StreamingFinalizationStaysMonotoneUnderMaxJitter) {
  // The correlator finalizes probes in index order even when every
  // response is jittered/reordered to the maximum: watermarks only
  // advance, and the sink must observe strictly increasing indices.
  SimConfig cfg;
  cfg.seed = 13;
  cfg.shards = 4;
  cfg.faults.jitter_rate = 1.0;
  cfg.faults.jitter_max = Duration::millis(20);
  cfg.faults.reorder_rate = 1.0;
  cfg.faults.dup_rate = 0.3;

  MiniWorld world(cfg);
  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < 12; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  targets.push_back(test::kResolverAddr);

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(2);
  sc.max_retries = 1;
  sc.backoff_base = Duration::millis(100);
  scan::VantageSet set(world.sim, sc, test::kScannerAddr,
                       honeypot::attach_capture_vantages(
                           world.sim.net(), test::kScannerAsn, 4));
  set.start(targets);

  std::vector<std::size_t> order;
  set.run_and_correlate_streaming(
      Duration::millis(100),
      [&](std::size_t i, scan::Transaction&&) { order.push_back(i); });
  ASSERT_EQ(order.size(), targets.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], i) << "finalization order must follow probe order";
  }
}

// ---------------------------------------------------------------------
// Retry-aware correlation rules
// ---------------------------------------------------------------------

scan::RawResponse make_response(const scan::SentProbe& probe, SimTime at) {
  scan::RawResponse rec;
  rec.src = probe.target;
  rec.src_port = 53;
  rec.dst_port = probe.src_port;
  rec.txid = probe.txid;
  rec.at = at;
  return rec;
}

/// Consumes the whole capture, then finishes: VantageSet::correlate()'s
/// single-flush cadence.
std::vector<scan::Transaction> correlate_all(
    const std::vector<scan::SentProbe>& probes,
    std::vector<scan::RawResponse> capture, Duration timeout,
    Duration extension, scan::ScannerStats& stats) {
  scan::StreamingCorrelator corr(probes, timeout, stats, extension);
  for (auto& rec : capture) corr.consume(std::move(rec));
  std::vector<scan::Transaction> out;
  corr.finish([&](std::size_t, scan::Transaction&& txn) {
    out.push_back(std::move(txn));
  });
  return out;
}

TEST(RetryCorrelation, WindowRulesInOnePass) {
  // timeout 2 s, retries with backoff 1 s x 2 -> extension 3 s.
  const Duration timeout = Duration::seconds(2);
  const Duration extension = Duration::seconds(3);
  const std::vector<scan::SentProbe> probes = {
      {Ipv4{20, 0, 9, 1}, 1024, 1, SimTime::origin()},
      {Ipv4{20, 0, 9, 2}, 1025, 1, SimTime::origin()},
      {Ipv4{20, 0, 9, 3}, 1026, 1, SimTime::origin()},
  };
  std::vector<scan::RawResponse> capture;
  // Probe 0: answered in-window; a second copy inside the original
  // window is a duplicate; a third past it is late (the post-retry
  // straggler rule).
  capture.push_back(make_response(probes[0], SimTime::from_nanos(500000000)));
  capture.push_back(make_response(probes[0], SimTime::from_nanos(1500000000)));
  capture.push_back(
      make_response(probes[0], SimTime::origin() + Duration::millis(2500)));
  // Probe 1: first response arrives past the original window but inside
  // the retry extension -> a retry's answer, counted as the answer with
  // rtt from the original send.
  capture.push_back(
      make_response(probes[1], SimTime::origin() + Duration::seconds(4)));
  // Probe 2: response past timeout + extension -> late, unanswered.
  capture.push_back(make_response(
      probes[2], SimTime::origin() + Duration::millis(5500)));

  scan::ScannerStats stats;
  const auto txns = correlate_all(probes, capture, timeout, extension, stats);
  ASSERT_EQ(txns.size(), 3u);
  EXPECT_TRUE(txns[0].answered);
  EXPECT_EQ(txns[0].rtt.count_nanos(), 500000000);
  EXPECT_TRUE(txns[1].answered);
  EXPECT_EQ(txns[1].rtt, Duration::seconds(4));
  EXPECT_FALSE(txns[2].answered);
  EXPECT_EQ(stats.responses_duplicate, 1u);
  EXPECT_EQ(stats.responses_late, 2u);
  EXPECT_EQ(stats.responses_unmatched, 0u);

  // With extension 0 the classic rules hold: probe 1's response is
  // plain late.
  scan::ScannerStats classic;
  const auto plain =
      correlate_all(probes, capture, timeout, Duration::nanos(0), classic);
  EXPECT_FALSE(plain[1].answered);
  EXPECT_EQ(classic.responses_late, 3u);
}

TEST(RetryCorrelation, WatermarkedStreamKeepsTheRetryWindows) {
  const Duration timeout = Duration::seconds(2);
  const Duration extension = Duration::seconds(3);
  std::vector<scan::SentProbe> probes;
  for (std::uint16_t i = 0; i < 6; ++i) {
    probes.push_back({Ipv4{20, 0, 9, static_cast<std::uint8_t>(1 + i)},
                      static_cast<std::uint16_t>(1024 + i), 1,
                      SimTime::origin() + Duration::millis(50 * i)});
  }
  std::vector<scan::RawResponse> capture;
  capture.push_back(make_response(probes[0], SimTime::from_nanos(800000000)));
  capture.push_back(make_response(probes[0], SimTime::from_nanos(900000000)));
  capture.push_back(
      make_response(probes[1], SimTime::origin() + Duration::seconds(3)));
  capture.push_back(
      make_response(probes[0], SimTime::origin() + Duration::seconds(4)));
  capture.push_back(
      make_response(probes[2], SimTime::origin() + Duration::seconds(6)));

  scan::ScannerStats stats;
  scan::StreamingCorrelator corr(probes, timeout, stats, extension);
  std::vector<scan::Transaction> streamed(probes.size());
  const scan::StreamingCorrelator::Sink sink =
      [&](std::size_t i, scan::Transaction&& txn) {
        streamed[i] = std::move(txn);
      };
  for (auto& rec : capture) {
    // Production order (VantageSet::run_and_correlate_streaming): all
    // records at or before a watermark are consumed before advancing.
    const SimTime watermark = rec.at;
    corr.consume(std::move(rec));
    corr.advance(watermark, sink);
  }
  corr.finish(sink);

  // Probe 0: answered at 0.8 s, a duplicate at 0.9 s, and late at 4 s
  // (past its original window, after the answer). Probe 1: answered by
  // a retry inside the extension, rtt from the original send. Probe 2:
  // past timeout + extension -> late, unanswered.
  EXPECT_TRUE(streamed[0].answered);
  EXPECT_EQ(streamed[0].rtt, Duration::millis(800));
  EXPECT_TRUE(streamed[1].answered);
  EXPECT_EQ(streamed[1].rtt, Duration::millis(2950));
  for (std::size_t i = 2; i < streamed.size(); ++i) {
    EXPECT_FALSE(streamed[i].answered) << "probe " << i;
  }
  EXPECT_EQ(stats.responses_duplicate, 1u);
  EXPECT_EQ(stats.responses_late, 2u);
  EXPECT_EQ(stats.responses_unmatched, 0u);
}

TEST(RetryPlan, AppendsBackoffEntriesAndKeepsClassicShape) {
  netsim::Simulator sim;
  scan::ScanConfig sc;
  sc.probes_per_second = 20000;  // 50 us gap
  const std::vector<Ipv4> targets = {
      Ipv4{20, 0, 9, 1}, Ipv4{20, 0, 9, 2}, Ipv4{20, 0, 9, 3}};

  const auto classic = scan::VantagePlan::build(sim, sc, targets);
  EXPECT_EQ(classic.probes().size(), 3u);
  EXPECT_EQ(classic.original_count(), 3u);
  EXPECT_EQ(classic.last_at(), classic.pacing_gap() * 2);

  sc.max_retries = 2;
  sc.backoff_base = Duration::seconds(1);
  const auto retried = scan::VantagePlan::build(sim, sc, targets);
  ASSERT_EQ(retried.probes().size(), 9u);
  EXPECT_EQ(retried.original_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Originals are an identical prefix.
    EXPECT_EQ(retried.probes()[i].at, classic.probes()[i].at);
    EXPECT_EQ(retried.probes()[i].attempt, 0);
    EXPECT_EQ(retried.probes()[i].origin, i);
    // Retry k reuses the original tuple at offset backoff * (2^k - 1).
    for (std::uint32_t k = 1; k <= 2; ++k) {
      const auto& r = retried.probes()[k * 3 + i];
      EXPECT_EQ(r.attempt, k);
      EXPECT_EQ(r.origin, i);
      EXPECT_EQ(r.target, retried.probes()[i].target);
      EXPECT_EQ(r.src_port, retried.probes()[i].src_port);
      EXPECT_EQ(r.txid, retried.probes()[i].txid);
      EXPECT_EQ(r.at, retried.probes()[i].at +
                          Duration::seconds(1) *
                              static_cast<std::int64_t>((1u << k) - 1));
    }
  }
  EXPECT_EQ(retried.last_at(),
            classic.pacing_gap() * 2 + Duration::seconds(3));
  EXPECT_EQ(sc.retry_extension(), Duration::seconds(3));
}

// ---------------------------------------------------------------------
// Census-level degradation: coverage, invariance, retry recovery
// ---------------------------------------------------------------------

core::CensusConfig faulted_census_cfg(std::uint64_t seed) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.0015;
  cfg.topology.max_countries = 10;
  cfg.topology.seed = seed;
  cfg.topology.sim.seed = seed;
  cfg.topology.sim.loss_rate = 0.02;
  cfg.topology.sim.faults = chaos_faults();
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.scan_max_retries = 1;
  cfg.scan_retry_backoff = util::Duration::millis(500);
  return cfg;
}

std::string census_run_fingerprint(const core::CensusResult& result) {
  std::ostringstream out;
  out << std::hex << classify::census_fingerprint(result.census) << '\n';
  for (const auto& txn : result.transactions) {
    out << txn.target.value() << ',' << txn.sent_at.nanos() << ','
        << txn.answered;
    if (txn.answered) {
      out << ',' << txn.response_src.value() << ',' << txn.rtt.count_nanos()
          << ',' << static_cast<int>(txn.rcode);
      for (const auto a : txn.answer_addrs) out << ',' << a.value();
    }
    out << '\n';
  }
  const auto& s = result.degradation.scan;
  out << std::dec << s.probes_sent << '/' << s.probes_retried << '/'
      << s.responses_received << '/' << s.responses_unmatched << '/'
      << s.responses_duplicate << '/' << s.responses_late << '/'
      << s.parse_errors << '/' << s.responses_corrupt << '/' << s.icmp_errors
      << '\n';
  out << result.degradation.targets_probed << ' '
      << result.degradation.targets_answered << ' '
      << result.degradation.ases_probed << ' '
      << result.degradation.ases_degraded << ' '
      << result.degradation.ases_dark << '\n';
  return out.str();
}

TEST(FaultedCensus, InvariantAcrossShardsThreadsSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    core::CensusConfig base = faulted_census_cfg(seed);
    base.shard_interleaved_targets = true;
    const auto buffered = core::run_census(base);
    const std::string reference = census_run_fingerprint(buffered);
    EXPECT_GT(buffered.degradation.net.jittered, 0u);
    EXPECT_GT(buffered.degradation.scan.probes_retried, 0u);
    EXPECT_LT(buffered.degradation.coverage(), 1.0);

    for (const std::uint32_t shards : {2u, 8u}) {
      core::CensusConfig cfg = faulted_census_cfg(seed);
      cfg.sim_shards = shards;
      cfg.shard_interleaved_targets = true;
      cfg.streaming_correlation = true;
      cfg.correlate_flush = util::Duration::millis(250);
      const auto streamed = core::run_census(cfg);
      EXPECT_EQ(census_run_fingerprint(streamed), reference)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST(FaultedCensus, RetriesMonotonicallyRecoverPerAsCoverage) {
  // The coverage sweep: one world at 1% and 5% loss, each without and
  // with two retries.
  auto run = [](double loss, std::uint32_t retries) {
    core::CensusConfig cfg;
    cfg.topology.scale = 0.0015;
    cfg.topology.max_countries = 10;
    cfg.topology.seed = 4;
    cfg.topology.sim.seed = 4;
    cfg.topology.sim.loss_rate = loss;
    cfg.scan_timeout = util::Duration::seconds(2);
    cfg.scan_max_retries = retries;
    cfg.scan_retry_backoff = util::Duration::millis(500);
    return core::run_census(cfg);
  };
  std::vector<double> coverage;  // loss1 r0, loss1 r2, loss5 r0, loss5 r2
  for (const double loss : {0.01, 0.05}) {
    const auto base = run(loss, 0);
    const auto retried = run(loss, 2);
    ASSERT_GT(base.degradation.targets_probed, 0u);
    EXPECT_GT(retried.degradation.scan.probes_retried, 0u);

    // Per-AS monotonicity: retries only add packets, and stateless
    // fault decisions keep every original packet's fate — no AS may
    // lose an answer to a retry.
    for (const auto& [asn, cov] : base.census.coverage_by_asn) {
      const auto it = retried.census.coverage_by_asn.find(asn);
      ASSERT_NE(it, retried.census.coverage_by_asn.end());
      EXPECT_EQ(it->second.probed, cov.probed);
      EXPECT_GE(it->second.answered, cov.answered)
          << "loss=" << loss << " asn=" << asn;
    }
    // And the recovery must be real: strictly more answers overall.
    EXPECT_GT(retried.degradation.targets_answered,
              base.degradation.targets_answered)
        << "loss=" << loss;
    EXPECT_GT(retried.degradation.coverage(), base.degradation.coverage())
        << "loss=" << loss;
    EXPECT_LE(retried.degradation.ases_degraded,
              base.degradation.ases_degraded)
        << "loss=" << loss;
    coverage.push_back(base.degradation.coverage());
    coverage.push_back(retried.degradation.coverage());
  }
  // More loss costs coverage when nothing retries.
  EXPECT_GT(coverage[0], coverage[2]);
  // Recorded sweep (answered / probed targets); moves only with a
  // stated reason, like the goldens.
  EXPECT_EQ(coverage[0], 2209.0 / 2405.0);
  EXPECT_EQ(coverage[1], 2405.0 / 2405.0);
  EXPECT_EQ(coverage[2], 1261.0 / 2405.0);
  EXPECT_EQ(coverage[3], 2286.0 / 2405.0);
}

TEST(FaultedCensus, RetriesAreInertOnALosslessWorld) {
  // Without loss every original probe answers in-window; retry answers
  // dedup as duplicates/late and the census tables stay byte-identical.
  auto run_with_retries = [](std::uint32_t retries) {
    core::CensusConfig cfg;
    cfg.topology.scale = 0.0015;
    cfg.topology.max_countries = 10;
    cfg.topology.seed = 4;
    cfg.topology.sim.seed = 4;
    cfg.scan_timeout = util::Duration::seconds(2);
    cfg.scan_max_retries = retries;
    cfg.scan_retry_backoff = util::Duration::millis(500);
    return core::run_census(cfg);
  };
  const auto base = run_with_retries(0);
  const auto retried = run_with_retries(2);
  EXPECT_EQ(classify::census_fingerprint(retried.census),
            classify::census_fingerprint(base.census));
  EXPECT_EQ(retried.degradation.coverage(), base.degradation.coverage());
}

TEST(FaultedCensus, DegradationReportIsCleanOnAFaultFreeRun) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.0015;
  cfg.topology.max_countries = 5;
  cfg.topology.seed = 2;
  cfg.topology.sim.seed = 2;
  cfg.scan_timeout = util::Duration::seconds(2);
  const auto result = core::run_census(cfg);
  const auto& d = result.degradation;
  EXPECT_EQ(d.targets_probed,
            result.census.rr + result.census.rf + result.census.tf +
                result.census.invalid + result.census.unresponsive);
  EXPECT_EQ(d.targets_answered, d.targets_probed - result.census.unresponsive);
  EXPECT_GT(d.ases_probed, 0u);
  EXPECT_EQ(d.net.jittered, 0u);
  EXPECT_EQ(d.net.dropped_outage, 0u);
  EXPECT_EQ(d.scan.probes_retried, 0u);
  EXPECT_EQ(d.scan.responses_corrupt, 0u);
}

}  // namespace
}  // namespace odns

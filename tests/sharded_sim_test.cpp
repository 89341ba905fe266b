// Determinism suite for the sharded simulator (docs/architecture.md,
// "Sharded execution"): N-shard runs (N = 1, 2, 4, 8) must produce
// byte-identical SimCounters, packet traces, and census/classification
// output versus the single-threaded engine, for several seeds, with
// loss, and under same-window mail bursts. The cross-shard merge rule
// under test is documented in docs/event-engine.md ("Cross-shard merge
// rule").
//
// The MultiVantage suites extend the same bar to the vantage count
// ("Multi-vantage census", docs/architecture.md): a VantageSet of
// per-shard capture hosts must reproduce the one-member single-threaded
// run byte for byte — counters, canonical trace, transactions, and the
// full classify::Census — for any shard count, across seeds, loss, and
// target interleaving.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classify/analysis.hpp"
#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "scan/vantage.hpp"
#include "testutil.hpp"

namespace odns {
namespace {

using netsim::HostId;
using netsim::ShardStats;
using netsim::SimConfig;
using netsim::SimCounters;
using netsim::Simulator;
using netsim::TraceRecord;
using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::Prefix;

/// Summary of one MiniWorld scan run: everything the engine promises
/// to keep invariant across shard counts.
struct RunFingerprint {
  SimCounters counters;
  std::uint64_t trace_digest = 0;
  std::string transactions;
  std::uint64_t events = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) =
      default;
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

/// Builds the shared scan workload into `world`: a row of transparent
/// forwarders relaying to the open resolver, the resolver itself, and
/// one unresponsive address. Returns the target list.
std::vector<Ipv4> build_scan_targets(
    MiniWorld& world, int forwarders,
    std::vector<std::unique_ptr<TransparentForwarder>>& tfs) {
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
  targets.push_back(Ipv4{20, 0, 9, 200});  // unresponsive: ICMP path
  return targets;
}

scan::ScanConfig mini_scan_config(const MiniWorld& world, bool interleave) {
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);
  sc.shard_interleave = interleave;
  return sc;
}

/// Scans `targets` with a VantageSet of `vantages` capture hosts
/// mirroring the scanner AS's attachment and spoofing the scanner
/// address — the full census packet flow (probe → TF relay → resolver
/// iteration through root/TLD/auth → mirror answer → response to the
/// scanner address), which crosses shards on every leg when the five
/// ASes are partitioned — and fingerprints the run.
RunFingerprint scan_fingerprint(MiniWorld& world,
                                const std::vector<Ipv4>& targets,
                                bool interleave, std::uint32_t vantages) {
  world.sim.set_packet_trace_enabled(true);
  scan::VantageSet set(world.sim, mini_scan_config(world, interleave),
                       test::kScannerAddr,
                       honeypot::attach_capture_vantages(
                           world.sim.net(), test::kScannerAsn, vantages));
  set.start(targets);
  set.run_to_completion();

  RunFingerprint fp;
  fp.counters = world.sim.counters();
  fp.trace_digest = world.sim.canonical_trace_digest();
  fp.transactions = render_transactions(set.correlate());
  fp.events = world.sim.events_executed();
  return fp;
}

/// MiniWorld + the shared workload, scanned by `vantages` capture hosts.
RunFingerprint run_mini_scan(SimConfig cfg, int forwarders,
                             bool interleave = false,
                             std::uint32_t vantages = 1) {
  MiniWorld world(cfg);
  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  const auto targets = build_scan_targets(world, forwarders, tfs);
  return scan_fingerprint(world, targets, interleave, vantages);
}

SimConfig sharded_cfg(std::uint32_t shards, std::uint64_t seed = 2021) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedDeterminism, MiniScanInvariantAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 7ull, 2021ull}) {
    const auto reference = run_mini_scan(sharded_cfg(1, seed), 6);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      EXPECT_EQ(run_mini_scan(sharded_cfg(shards, seed), 6), reference)
          << "shards=" << shards << " seed=" << seed;
    }
  }
}

TEST(ShardedDeterminism, LossyRunsInvariantAcrossShardCounts) {
  // The stateless per-packet loss hash must keep drop decisions
  // identical for every shard count (an RNG stream draw would not).
  SimConfig base = sharded_cfg(1, 99);
  base.loss_rate = 0.12;
  const auto reference = run_mini_scan(base, 5);
  EXPECT_GT(reference.counters.dropped_loss, 0u);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    SimConfig cfg = sharded_cfg(shards, 99);
    cfg.loss_rate = 0.12;
    EXPECT_EQ(run_mini_scan(cfg, 5), reference) << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, InterleavedTargetsInvariantAcrossShardCounts) {
  // shard_interleave reorders pacing by the *virtual* partition, so
  // the schedule — and every downstream table — is still identical
  // for any real shard count (including the single-threaded engine).
  const auto reference = run_mini_scan(sharded_cfg(1), 6, true);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(run_mini_scan(sharded_cfg(shards), 6, true), reference)
        << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, ThreadedRunsAreReproducibleEventForEvent) {
  // Stronger than the canonical digest: two threaded runs of the same
  // config must agree on the full (time, shard, seq) merged trace —
  // thread scheduling may never leak into event order.
  struct Run {
    std::vector<TraceRecord> trace;
    std::uint64_t digest = 0;
  };
  auto run_trace = [](std::uint32_t shards) {
    MiniWorld world(sharded_cfg(shards));
    world.sim.set_packet_trace_enabled(true);
    scan::ScanConfig sc;
    sc.qname = world.scan_name;
    sc.timeout = Duration::seconds(2);
    const auto scanner =
        honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
    scanner->start({test::kResolverAddr, Ipv4{20, 0, 9, 200}});
    scanner->run_to_completion();
    return Run{world.sim.merged_trace(), world.sim.canonical_trace_digest()};
  };
  const Run first = run_trace(4);
  const Run second = run_trace(4);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  // And the windowed protocol makes the packet decisions of the
  // single-shard engine.
  EXPECT_EQ(first.digest, run_trace(1).digest);
}

TEST(ShardedDeterminism, SameWindowMailBurstMatchesSingleShard) {
  // 32 probes to one resolver leave the scanner in one pacing burst,
  // so many cross-shard messages land in the same mail vectors within
  // one window; admission must keep them in the 1-shard order.
  auto run_burst = [](std::uint32_t shards) {
    MiniWorld world(sharded_cfg(shards));
    world.sim.set_packet_trace_enabled(true);
    scan::ScanConfig sc;
    sc.qname = world.scan_name;
    sc.timeout = Duration::seconds(2);
    const auto scanner =
        honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
    scanner->start(std::vector<Ipv4>(32, test::kResolverAddr));
    scanner->run_to_completion();
    RunFingerprint fp;
    fp.counters = world.sim.counters();
    fp.trace_digest = world.sim.canonical_trace_digest();
    fp.transactions = render_transactions(scanner->correlate());
    fp.events = world.sim.events_executed();
    std::uint64_t admitted = 0;
    for (std::uint32_t s = 0; s < world.sim.shard_count(); ++s) {
      admitted += world.sim.shard_stats(s).mailbox_in;
    }
    return std::pair{fp, admitted};
  };
  const auto reference = run_burst(1).first;
  const auto [fp, admitted] = run_burst(4);
  EXPECT_EQ(fp, reference);
  EXPECT_GT(admitted, 0u);
}

TEST(ShardedDeterminism, PerShardRouteCachesServeTheHotPath) {
  MiniWorld world(sharded_cfg(4));
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(2);
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start(std::vector<Ipv4>(16, test::kResolverAddr));
  scanner->run_to_completion();

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint32_t shards_with_traffic = 0;
  for (std::uint32_t s = 0; s < world.sim.shard_count(); ++s) {
    const auto& stats = world.sim.shard_route_cache_stats(s);
    hits += stats.hits;
    misses += stats.misses;
    if (world.sim.shard_counters(s).sent > 0) ++shards_with_traffic;
  }
  EXPECT_GT(hits, misses);  // repeated destinations are served warm
  EXPECT_GT(shards_with_traffic, 1u);  // the work really is spread out
}

/// MiniWorld whose routing tables and partition are frozen by a first
/// run before an anycast group is built: a second resolver in the
/// access AS and the MiniWorld resolver both join `kAnycast`, and
/// transparent forwarders relay to it — from the access AS (nearest
/// member 0 hops away) and from the scanner AS (both members 2 hops
/// away, so member order decides). Four capture vantages probe in the
/// same window, so on 4 shards the first lookups after the join run
/// on several shard threads at once.
RunFingerprint run_anycast_joined_after_build(SimConfig cfg) {
  constexpr Ipv4 kAnycast{8, 8, 8, 53};
  MiniWorld world(cfg);
  netsim::SendOptions warmup;
  warmup.dst = test::kResolverAddr;
  warmup.dst_port = 9;  // unbound: answered by port-unreachable
  world.sim.send_udp(world.scanner_host, std::move(warmup));
  // An explicit deadline leaves every shard clock at the same instant.
  world.sim.run_until(util::SimTime::origin() + Duration::seconds(1));

  auto& net = world.sim.net();
  const HostId second = world.add_access_host(Ipv4{20, 0, 9, 250});
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {test::kRootAddr};
  nodes::RecursiveResolver resolver(world.sim, second, rc, 78);
  resolver.start();
  net.join_anycast(kAnycast, world.resolver_host);
  net.join_anycast(kAnycast, second);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < 4; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = i < 3 ? world.add_access_host(addr)
                              : net.add_host(test::kScannerAsn, {addr});
    tfs.push_back(
        std::make_unique<TransparentForwarder>(world.sim, host, kAnycast));
    tfs.back()->install();
    targets.push_back(addr);
  }
  return scan_fingerprint(world, targets, false, 4);
}

TEST(ShardedDeterminism, AnycastJoinedAfterBuildMatchesSequentialRun) {
  const auto one_shard = run_anycast_joined_after_build(sharded_cfg(1));
  EXPECT_NE(one_shard.transactions.find("8.8.8.53"), std::string::npos);
  EXPECT_EQ(run_anycast_joined_after_build(sharded_cfg(4)), one_shard);
}

TEST(ShardedDeterminism, ClocksSynchronizeAtExplicitDeadlines) {
  MiniWorld world(sharded_cfg(4));
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start({test::kResolverAddr});
  const auto deadline = util::SimTime::from_nanos(0) + Duration::seconds(30);
  world.sim.run_until(deadline);
  EXPECT_EQ(world.sim.now(), deadline);
}

/// Records the simulated time of every timer it receives.
struct FireRecorder final : netsim::TimerTarget {
  explicit FireRecorder(Simulator& s) : sim(&s) {}
  void on_timer(std::uint64_t, std::uint64_t) override {
    fired.push_back(sim->now());
  }
  Simulator* sim;
  std::vector<util::SimTime> fired;
};

TEST(ShardedDeterminism, ClocksSynchronizeAfterADrainRun) {
  // A drain run() whose last event is on one shard must still leave
  // every shard at that instant: a timer armed afterwards on another
  // shard fires relative to the global now(), as on one shard.
  const auto at = [](std::int64_t ms) {
    return (util::SimTime::origin() + Duration::millis(ms)).nanos();
  };
  for (const std::uint32_t shards : {1u, 2u}) {
    MiniWorld world(sharded_cfg(shards));
    const HostId early = world.scanner_host;
    const HostId late = world.root_host;
    if (shards > 1) {
      ASSERT_NE(world.sim.shard_of(early), world.sim.shard_of(late));
    }
    FireRecorder rec(world.sim);
    world.sim.schedule_timer_on(late, Duration::millis(10), &rec, 0);
    world.sim.run();
    EXPECT_EQ(world.sim.now().nanos(), at(10)) << "shards=" << shards;
    world.sim.schedule_timer_on(early, Duration::millis(1), &rec, 1);
    world.sim.run();
    ASSERT_EQ(rec.fired.size(), 2u);
    EXPECT_EQ(rec.fired[0].nanos(), at(10)) << "shards=" << shards;
    EXPECT_EQ(rec.fired[1].nanos(), at(11)) << "shards=" << shards;
    EXPECT_EQ(world.sim.now().nanos(), at(11)) << "shards=" << shards;
  }
}

/// Logs datagrams and timers on one host, in execution order.
struct ArrivalLog final : netsim::App, netsim::TimerTarget {
  void on_datagram(const netsim::Datagram&) override {
    order.push_back("datagram");
  }
  void on_timer(std::uint64_t, std::uint64_t) override {
    order.push_back("timer");
  }
  std::vector<std::string> order;
};

/// Sends one datagram from `from` to `to` when its timer fires, i.e.
/// from inside a window on the sender's shard.
struct TimedSender final : netsim::TimerTarget {
  TimedSender(Simulator& s, HostId f, Ipv4 t) : sim(&s), from(f), to(t) {}
  void on_timer(std::uint64_t, std::uint64_t) override {
    netsim::SendOptions opts;
    opts.dst = to;
    opts.dst_port = 4000;
    sim->send_udp(from, std::move(opts));
  }
  Simulator* sim;
  HostId from;
  Ipv4 to;
};

TEST(ShardedDeterminism, MailInFlightAcrossARunBoundaryKeepsSingleShardOrder) {
  // A datagram sent in the last window before run_until's deadline
  // arrives after it, at T. The caller then arms a timer on the
  // receiver at T: on one shard the datagram was scheduled first, so
  // it runs first; mail still in flight when run_until returns would
  // be scheduled after the timer instead.
  for (const std::uint32_t shards : {1u, 2u}) {
    MiniWorld world(sharded_cfg(shards));
    const HostId sender = world.scanner_host;
    const HostId receiver = world.root_host;
    if (shards > 1) {
      ASSERT_NE(world.sim.shard_of(sender), world.sim.shard_of(receiver));
    }
    ArrivalLog log;
    world.sim.bind_udp(receiver, 4000, &log);
    TimedSender send(world.sim, sender, test::kRootAddr);
    const auto route = world.sim.net().route(sender, test::kRootAddr);
    ASSERT_TRUE(route.has_value());
    const Duration send_at = Duration::millis(1);
    const Duration arrive_at =
        send_at + world.sim.config().hop_latency *
                      static_cast<std::int64_t>(route->router_hops.size() + 1);
    world.sim.schedule_timer_on(sender, send_at, &send, 0);
    world.sim.run_until(util::SimTime::origin() + send_at);
    ASSERT_TRUE(log.order.empty());
    world.sim.schedule_timer_on(receiver, arrive_at - send_at, &log, 0);
    world.sim.run();
    EXPECT_EQ(log.order, (std::vector<std::string>{"datagram", "timer"}))
        << "shards=" << shards;
    EXPECT_EQ(world.sim.now(), util::SimTime::origin() + arrive_at)
        << "shards=" << shards;
  }
}

TEST(MultiVantage, MatchesSingleVantageSingleThreadByteForByte) {
  // A multi-vantage run — 8 capture hosts executing slices of one
  // global plan, responses delivered shard-locally — must reproduce the
  // one-member single-threaded run byte for byte (counters, canonical
  // trace, correlated transactions, executed events) at every shard
  // count.
  const auto reference = run_mini_scan(sharded_cfg(1), 6);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_mini_scan(sharded_cfg(shards), 6, false, 8), reference)
        << "shards=" << shards;
  }
}

TEST(MultiVantage, InvariantAcrossSeedsLossAndInterleave) {
  // Loss fates hash packet content + time: because every vantage
  // spoofs the capture address and follows the global plan, even lossy
  // multi-vantage runs must match the one-member baseline exactly.
  for (const std::uint64_t seed : {3ull, 2021ull}) {
    for (const double loss : {0.0, 0.12}) {
      for (const bool interleave : {false, true}) {
        SimConfig base = sharded_cfg(1, seed);
        base.loss_rate = loss;
        const auto reference = run_mini_scan(base, 5, interleave);
        SimConfig cfg = sharded_cfg(8, seed);
        cfg.loss_rate = loss;
        EXPECT_EQ(run_mini_scan(cfg, 5, interleave, 8), reference)
            << "seed=" << seed << " loss=" << loss
            << " interleave=" << interleave;
      }
    }
  }
}

TEST(MultiVantage, FewerVantagesThanShardsStillExact) {
  // With members < shards, some shards capture via the mailbox fabric
  // instead of locally — results must not change.
  const auto reference = run_mini_scan(sharded_cfg(1), 6);
  EXPECT_EQ(run_mini_scan(sharded_cfg(8), 6, false, 3), reference);
}

TEST(MultiVantage, CaptureSpreadsAcrossShards) {
  // The structural point of the refactor: at 8 shards the response
  // stream is captured by several members (not funneled into one), and
  // the scanner host's shard does not execute the capture load alone.
  SimConfig cfg = sharded_cfg(8);
  MiniWorld world(cfg);
  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  auto targets = build_scan_targets(world, 6, tfs);
  // MiniWorld's one resolver answers every TF-relayed probe, which
  // would concentrate the capture on its shard; probing the DNS
  // hierarchy too makes responses originate from several shards.
  targets.push_back(test::kRootAddr);
  targets.push_back(test::kTldAddr);
  targets.push_back(test::kAuthAddr);
  scan::VantageSet set(world.sim, mini_scan_config(world, false),
                       test::kScannerAddr,
                       honeypot::attach_capture_vantages(
                           world.sim.net(), test::kScannerAsn, 8));
  set.start(targets);
  set.run_to_completion();

  std::size_t members_with_capture = 0;
  std::uint64_t total_captured = 0;
  for (std::size_t v = 0; v < set.vantage_count(); ++v) {
    if (!set.capture_of(v).empty()) ++members_with_capture;
    total_captured += set.capture_of(v).size();
  }
  EXPECT_GT(members_with_capture, 1u);
  EXPECT_EQ(set.stats().responses_received, total_captured);
}

TEST(MultiVantage, MembersPinToLightestShards) {
  // Capture members are pure sinks, so their placement is free: the
  // partition freeze must pin them to the shards the weighted LPT left
  // light — the vantage shard is never the busiest one.
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    MiniWorld world(sharded_cfg(shards));
    const HostId access_probe = world.add_access_host(Ipv4{20, 0, 9, 50});
    std::vector<std::uint64_t> hints(Simulator::kVirtualShards, 1);
    hints[3] = 500;  // the access AS dwarfs everything else
    world.sim.set_partition_load_hints(hints);
    const auto members = honeypot::attach_capture_vantages(
        world.sim.net(), test::kScannerAsn, 1);
    world.sim.set_vantage_capture(test::kScannerAddr, members);
    const auto busiest = world.sim.shard_of(access_probe);
    EXPECT_NE(world.sim.shard_of(members[0]), busiest) << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, WeightedPartitionKeepsResultsInvariant) {
  // The weighted virtual-shard placement is execution-only: any hint
  // vector must leave every observable output untouched.
  const auto reference = run_mini_scan(sharded_cfg(1), 6);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    MiniWorld world(sharded_cfg(shards));
    std::vector<std::uint64_t> hints(Simulator::kVirtualShards, 1);
    hints[3] = 500;  // access network: where almost all targets live
    world.sim.set_partition_load_hints(hints);
    std::vector<std::unique_ptr<TransparentForwarder>> tfs;
    const auto targets = build_scan_targets(world, 6, tfs);
    EXPECT_EQ(scan_fingerprint(world, targets, false, 1), reference)
        << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, WeightedPartitionBalancesByLoadHints) {
  // LPT placement: one dominant virtual shard must be isolated on its
  // own real shard while the light ones share the rest. MiniWorld's AS
  // indices map to virtual shards 0..4 (tier1, infra, resolver,
  // access, scanner).
  MiniWorld world(sharded_cfg(2));
  std::vector<std::uint64_t> hints(Simulator::kVirtualShards, 0);
  hints[1] = 1000;  // the infra AS dwarfs everything else
  world.sim.set_partition_load_hints(hints);
  EXPECT_EQ(world.sim.shard_of(world.root_host), 0u);
  EXPECT_EQ(world.sim.shard_of(world.auth_host), 0u);
  EXPECT_EQ(world.sim.shard_of(world.resolver_host),
            world.sim.shard_of(world.scanner_host));
  EXPECT_EQ(world.sim.shard_of(world.resolver_host), 1u);
}

std::string census_fingerprint_text(const classify::Census& census) {
  std::ostringstream out;
  out << census.rr << '/' << census.rf << '/' << census.tf << '/'
      << census.invalid << '/' << census.unresponsive << '/'
      << census.unmapped_country << '\n';
  for (const auto& [code, report] : census.by_country) {
    out << code << ':' << report.rr << ',' << report.rf << ',' << report.tf
        << ',' << report.invalid << ',' << report.unresponsive << ','
        << report.ases_with_tf << ',' << report.other_indirect << ','
        << report.other_mapped;
    for (const auto count : report.tf_by_project) out << ',' << count;
    out << '\n';
  }
  return out.str();
}

TEST(ShardedCensus, FullPipelineMatchesSingleThreadedEngine) {
  // The acceptance bar: core::run_census over a real topo world must
  // produce an identical classify::Census for N = 1, 2, 4, 8 shards.
  auto census_for = [](std::uint32_t shards) {
    core::CensusConfig cfg;
    cfg.topology.scale = 0.004;
    cfg.topology.max_countries = 4;
    cfg.sim_shards = shards;
    const auto result = core::run_census(cfg);
    return census_fingerprint_text(result.census);
  };
  const std::string reference = census_for(1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(census_for(2), reference);
  EXPECT_EQ(census_for(4), reference);
  EXPECT_EQ(census_for(8), reference);
}

/// One full census fingerprint (census tables + the correlated-
/// transaction log; one capture vantage per shard) for the property
/// comparison below.
std::string census_for_property(std::uint32_t shards, std::uint64_t seed,
                                double loss) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.003;
  cfg.topology.max_countries = 3;
  cfg.topology.seed = seed;
  cfg.topology.sim.seed = seed;
  cfg.topology.sim.loss_rate = loss;
  cfg.sim_shards = shards;
  const auto result = core::run_census(cfg);
  std::string fp = census_fingerprint_text(result.census);
  fp += render_transactions(result.transactions);
  return fp;
}

TEST(MultiVantageCensus, PropertyTablesEqualSingleVantageBaseline) {
  // Across seeds × loss, the 8-shard census (8 capture hosts, worker
  // threads) must produce census tables — and the transaction log they
  // are built from — identical to the one-shard, one-vantage baseline.
  for (const std::uint64_t seed : {11ull, 42ull}) {
    for (const double loss : {0.0, 0.08}) {
      const std::string reference = census_for_property(1, seed, loss);
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(census_for_property(8, seed, loss), reference)
          << "seed=" << seed << " loss=" << loss;
    }
  }
}

TEST(MultiVantageCensus, VantageBreakdownCoversAllTransactions) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.004;
  cfg.topology.max_countries = 4;
  cfg.sim_shards = 4;
  const auto result = core::run_census(cfg);
  ASSERT_EQ(result.vantage_set->vantage_count(), 4u);
  const auto rows = classify::vantage_breakdown(result.classified);
  std::uint64_t total = 0;
  std::size_t active = 0;
  for (const auto& row : rows) {
    total += row.total();
    if (row.total() > 0) ++active;
  }
  EXPECT_EQ(total, result.classified.size());
  // Four shards, four members: the capture work really is spread out.
  EXPECT_GT(active, 1u);
}

}  // namespace
}  // namespace odns

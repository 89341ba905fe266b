// Netsim hot-path benchmark: three A/B workloads, each measuring the
// sharded runtime against the 1-shard engine on the same traffic.
// Besides timing, every workload is re-run with a packet trace in both
// modes and the traces, counters, and router-hop sequences are
// required to be byte-identical — sharding must never change a
// decision, only the cost of making it. Results are recorded at the repo root as
// BENCH_netsim.json (see docs/benchmarks.md).
//
// Sharded workloads (1-shard run vs. N-shard ShardPool run,
// docs/architecture.md "Sharded execution"):
//
//  * sharded census scan — paced probes to per-AS DNS responders that
//    decode the query and encode a two-record answer (the census
//    traffic shape): serving work spreads across shards;
//  * sharded cross-shard relay — every target is a transparent
//    forwarder relaying to a responder on a *different* shard, so each
//    probe crosses the mailbox fabric twice;
//  * amplification reflection — a reflective-amplification campaign
//    over the relay world (one attacker spoofing four victims through
//    every transparent forwarder, scan::AmplificationCampaign): the
//    determinism check additionally covers the merged reflection log,
//    the attack-scenario layer's output.
//
// The sharded speedup is reported from the parallel **critical path**
// (max per-shard CPU seconds, ShardStats::busy_seconds) — the honest
// multi-core number on any machine, including single-core CI
// containers where wall-clock cannot parallelize. The same worker-
// thread run also yields the wall-clock throughput recorded alongside.
// Determinism is checked with the canonical (shard-count-invariant)
// trace digest. Full censuses are measured end to end by benchmark/.
//
// usage: bench_netsim [--packets=N] [--ases=N] [--hops=N] [--seed=N]
//                     [--shards=N] [--json=FILE] [--min-speedup=F]
//
// Exits 64 on a malformed or out-of-range flag value, 1 on a
// determinism violation, 2 when any workload's speedup
// falls below --min-speedup (CI's loud perf-regression gate).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "netsim/sim.hpp"
#include "nodes/forwarder_bank.hpp"
#include "scan/amplification.hpp"
#include "util/hash.hpp"
#include "util/ipv4.hpp"

namespace {

using namespace odns;
using netsim::Asn;
using netsim::HostId;
using netsim::Simulator;
using util::Ipv4;
using util::Prefix;

/// Parses all of `text` as a T, or exits 64: a value that reads as 0 by
/// accident (`--min-speedup=abc`) would silently disable a gate.
template <typename T>
T parse_value(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc{} || ptr != end) {
    std::cerr << "bench_netsim: malformed value for " << flag << ": '"
              << text << "'\n";
    std::exit(64);
  }
  return value;
}

struct Opts {
  std::uint64_t packets = 200000;
  std::uint32_t ases = 64;
  int hops = 3;
  std::uint64_t seed = 2021;
  std::uint32_t shards = 4;
  std::string json_path;
  double min_speedup = 0.0;

  static Opts parse(int argc, char** argv) {
    Opts o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string flag = arg.substr(0, arg.find('=') + 1);
      const char* val = arg.c_str() + flag.size();
      if (flag == "--packets=") {
        o.packets = parse_value<std::uint64_t>(flag, val);
      } else if (flag == "--ases=") {
        o.ases = parse_value<std::uint32_t>(flag, val);
      } else if (flag == "--hops=") {
        o.hops = parse_value<int>(flag, val);
      } else if (flag == "--seed=") {
        o.seed = parse_value<std::uint64_t>(flag, val);
      } else if (flag == "--shards=") {
        o.shards = parse_value<std::uint32_t>(flag, val);
      } else if (flag == "--json=") {
        o.json_path = val;
      } else if (flag == "--min-speedup=") {
        o.min_speedup = parse_value<double>(flag, val);
      } else {
        std::cout << "usage: bench_netsim [--packets=N] [--ases=N] "
                     "[--hops=N] [--seed=N] [--shards=N] "
                     "[--json=FILE] [--min-speedup=F]\n";
        std::exit(arg == "--help" ? 0 : 64);
      }
    }
    if (o.packets == 0 || o.ases < 4 || o.hops < 1 || o.shards < 2) {
      std::cerr << "bench_netsim: need --packets>=1, --ases>=4, "
                   "--hops>=1, --shards>=2\n";
      std::exit(64);
    }
    return o;
  }
};

class NullSink : public netsim::App {
 public:
  void on_datagram(const netsim::Datagram&) override {}
};

using util::fnv1a64;
constexpr std::uint64_t kFnvBasis = util::kFnv1aBasis;

struct RunResult {
  netsim::SimCounters counters;
  std::uint64_t trace_hash = kFnvBasis;
  std::uint64_t route_hash = kFnvBasis;
  double seconds = 0.0;
};

void hash_routes(Simulator& sim, const std::vector<Ipv4>& targets,
                 RunResult& r) {
  // Router-hop sequences for every (vantage, target) pair, hashed:
  // both sides of an A/B must agree hop for hop.
  for (const auto dst : targets) {
    const auto route = sim.net().route_from_as(1, dst);
    if (!route) continue;
    r.route_hash = fnv1a64(r.route_hash, route->dst_host);
    for (const auto hop : route->router_hops) {
      r.route_hash = fnv1a64(r.route_hash, hop.value());
    }
  }
}

// --- sharded census-style workloads ---------------------------------

/// Authoritative-style responder: decodes the query, answers with two
/// A records (dynamic mirror + control), encodes, sends — the per-
/// target serving cost of a census scan, which is the work sharding
/// spreads across cores.
class DnsResponder : public netsim::App {
 public:
  DnsResponder(Simulator& sim, HostId host) : sim_(&sim), host_(host) {}

  void on_datagram(const netsim::Datagram& dgram) override {
    auto parsed = dnswire::decode(*dgram.payload);
    if (!parsed) return;
    const dnswire::Message& msg = parsed.value();
    if (msg.header.qr || msg.questions.empty()) return;
    dnswire::Message resp = dnswire::make_response(msg);
    resp.header.ra = true;
    const auto& qname = msg.questions.front().name;
    resp.answers.push_back(dnswire::ResourceRecord{
        qname, dnswire::RrType::a, dnswire::RrClass::in, 60,
        dnswire::ARecord{dgram.src}});
    resp.answers.push_back(dnswire::ResourceRecord{
        qname, dnswire::RrType::a, dnswire::RrClass::in, 60,
        dnswire::ARecord{Ipv4{203, 0, 113, 9}}});
    netsim::SendOptions out;
    out.dst = dgram.src;
    out.src_port = dgram.dst_port;
    out.dst_port = dgram.src_port;
    out.payload = dnswire::encode(resp);
    sim_->send_udp(host_, std::move(out));
  }

 private:
  Simulator* sim_;
  HostId host_;
};

/// Sends one pacing slot's worth of pre-encoded probes per timer fire
/// (scanners pace in slots, not per-packet timers — and the slot timer
/// keeps the scanner shard's event count proportional to slots, not
/// probes).
class ProbePacer : public netsim::TimerTarget {
 public:
  ProbePacer(Simulator& sim, HostId scanner, const std::vector<Ipv4>& targets,
             std::vector<std::uint8_t> query)
      : sim_(&sim), scanner_(scanner), targets_(&targets),
        query_(std::move(query)) {}

  void on_timer(std::uint64_t first, std::uint64_t count) override {
    for (std::uint64_t p = first; p < first + count; ++p) {
      netsim::SendOptions send;
      send.dst = (*targets_)[p % targets_->size()];
      send.src_port = static_cast<std::uint16_t>(40000 + (p & 0xFFF));
      send.dst_port = 53;
      send.ttl = 255;
      send.payload = query_;  // clone of the template
      sim_->send_udp(scanner_, std::move(send));
    }
  }

 private:
  Simulator* sim_;
  HostId scanner_;
  const std::vector<Ipv4>* targets_;
  std::vector<std::uint8_t> query_;
};

/// World for the sharded workloads: every non-vantage AS hosts an
/// upstream resolver (DnsResponder) and a recursive forwarder relaying
/// to it (a nodes::ForwarderBank row, one bank per virtual shard, as
/// in topo::TopologyBuilder) — the ODNS's dominant species, so each
/// probe costs two DNS transactions of serving work on its target's
/// shard (SAV off everywhere so relays work). With `relay`, targets are additionally
/// transparent-forwarder hosts whose port-53 redirect points at the
/// *next* AS's recursive forwarder — which the round-robin AS
/// partition places on a different shard for every shard count > 1,
/// so each probe crosses the mailbox fabric on the relay leg too.
struct ShardedWorld {
  std::unique_ptr<Simulator> sim;
  HostId scanner = netsim::kInvalidHost;
  std::vector<Ipv4> targets;
  std::vector<std::unique_ptr<DnsResponder>> responders;
  std::vector<std::unique_ptr<nodes::ForwarderBank>> banks;
  NullSink sink;  // scanner side: capture is counting, not decoding
};

ShardedWorld build_sharded_world(const Opts& opts, bool relay,
                                 std::uint32_t shards) {
  ShardedWorld w;
  netsim::SimConfig cfg;
  cfg.seed = opts.seed;
  cfg.shards = shards;
  w.sim = std::make_unique<Simulator>(cfg);
  auto& net = w.sim->net();
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    netsim::AsConfig as;
    as.asn = i;
    as.internal_hops = opts.hops;
    as.source_address_validation = false;  // transparent relays need it off
    net.add_as(as);
    net.announce(i, Prefix{Ipv4{10, static_cast<std::uint8_t>(i % 250), 0, 0},
                           16});
  }
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    net.link(i, i % opts.ases + 1);  // ring
    if (i % 7 == 0 && i + opts.ases / 3 <= opts.ases) {
      net.link(i, i + opts.ases / 3);  // chord
    }
  }
  auto host_addr = [&](std::uint32_t asn, std::uint8_t lo) {
    return Ipv4{10, static_cast<std::uint8_t>(asn % 250),
                static_cast<std::uint8_t>(asn / 250), lo};
  };
  w.scanner = net.add_host(1, {host_addr(1, 1)});
  w.sim->bind_udp_wildcard(w.scanner, &w.sink);
  std::vector<Ipv4> forwarder_addrs(opts.ases + 1);
  w.banks.resize(Simulator::kVirtualShards);
  for (std::uint32_t asn = 2; asn <= opts.ases; ++asn) {
    // Upstream resolver of this AS...
    const Ipv4 upstream_addr = host_addr(asn, 53);
    const auto upstream = net.add_host(asn, {upstream_addr});
    w.responders.push_back(std::make_unique<DnsResponder>(*w.sim, upstream));
    w.sim->bind_udp(upstream, 53, w.responders.back().get());
    // ...and the recursive forwarder relaying to it. Banks don't
    // cache: every probe costs a full relay round trip, like a census
    // first contact.
    const Ipv4 fwd_addr = host_addr(asn, 80);
    auto& bank = w.banks[w.sim->virtual_shard_of_as(asn)];
    if (!bank) bank = std::make_unique<nodes::ForwarderBank>(*w.sim);
    nodes::ForwarderBank::MemberConfig mc;
    mc.addr = fwd_addr;
    mc.upstream = upstream_addr;
    bank->add_member(net.add_host(asn, {fwd_addr}), mc);
    forwarder_addrs[asn] = fwd_addr;
  }
  for (auto& bank : w.banks) {
    if (bank) bank->seal();
  }
  for (std::uint32_t asn = 2; asn <= opts.ases; ++asn) {
    if (relay) {
      // Transparent forwarder in this AS relaying to the next AS's
      // recursive forwarder: probe and relay cross the shard fabric.
      const std::uint32_t next = asn == opts.ases ? 2 : asn + 1;
      const Ipv4 tf_addr = host_addr(asn, 77);
      const auto tf = net.add_host(asn, {tf_addr});
      w.sim->add_port_redirect(tf, 53, forwarder_addrs[next]);
      w.targets.push_back(tf_addr);
    } else {
      w.targets.push_back(forwarder_addrs[asn]);
    }
  }
  return w;
}

/// One sharded-workload pass. Timing covers pacing + serving + drain;
/// `critical_seconds` is max per-shard CPU busy time (= the 1-shard
/// wall time when shards == 1, since everything runs on one shard).
struct ShardedRun {
  RunResult base;
  double critical_seconds = 0.0;
  std::uint64_t mailbox_in = 0;
};

/// Fills the sharded statistics of `r` from a finished run.
void collect_shard_stats(const Simulator& sim, ShardedRun& r) {
  if (sim.shard_count() == 1) {
    r.critical_seconds = r.base.seconds;
    return;
  }
  for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
    const auto& stats = sim.shard_stats(s);
    r.critical_seconds = std::max(r.critical_seconds, stats.busy_seconds);
    r.mailbox_in += stats.mailbox_in;
  }
}

ShardedRun run_sharded_workload(const Opts& opts, bool relay,
                                std::uint32_t shards, bool traced,
                                std::uint64_t packets) {
  ShardedWorld w = build_sharded_world(opts, relay, shards);
  auto& sim = *w.sim;
  if (traced) sim.set_packet_trace_enabled(true);
  const auto query = dnswire::encode(dnswire::make_query(
      0x777, *dnswire::Name::parse("scan.odns-study.net"),
      dnswire::RrType::a));
  ProbePacer pacer(sim, w.scanner, w.targets, query);
  // 16-probe slots at 16 µs (1 µs/probe average): hundreds of probes
  // per lookahead window, so windows stay fat and barrier overhead
  // amortizes (census pacing shape).
  constexpr std::uint64_t kSlot = 16;
  for (std::uint64_t p = 0; p < packets; p += kSlot) {
    sim.schedule_timer_on(w.scanner, util::Duration::micros(
                                         static_cast<std::int64_t>(p)),
                          &pacer, p, std::min(kSlot, packets - p));
  }
  ShardedRun r;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  r.base.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.base.counters = sim.counters();
  if (traced) r.base.trace_hash = sim.canonical_trace_digest();
  hash_routes(sim, w.targets, r.base);
  collect_shard_stats(sim, r);
  return r;
}

/// One A/B row: the 1-shard run (baseline) vs. the N-shard run.
struct WorkloadReport {
  std::string name;
  double baseline_pps = 0.0;
  double fast_pps = 0.0;
  double speedup = 0.0;
  bool identical = false;
  // Wall-clock throughput of the sharded run (the critical-path
  // number is fast_pps) and mailbox-fabric traffic.
  std::uint32_t shards = 0;
  double sharded_wall_pps = 0.0;
  std::uint64_t mailbox_in = 0;
};

/// Best of three 1-shard and N-shard runs of one workload (each side
/// by its critical path), folded into a report row. The N-shard runs
/// are worker-thread runs: the row's critical path (max per-shard busy
/// seconds) and wall-clock rate both come from the best of them.
template <typename RunFn>
WorkloadReport measure_sharded_pair(const Opts& opts, std::string name,
                                    RunFn run) {
  constexpr int kRepeats = 3;
  WorkloadReport rep;
  rep.name = std::move(name);
  rep.shards = opts.shards;
  ShardedRun baseline, fast;
  for (int rep_i = 0; rep_i < kRepeats; ++rep_i) {
    auto b = run(1u, false, opts.packets);
    auto f = run(opts.shards, false, opts.packets);
    if (rep_i == 0 || b.critical_seconds < baseline.critical_seconds) {
      baseline = std::move(b);
    }
    if (rep_i == 0 || f.critical_seconds < fast.critical_seconds) {
      fast = std::move(f);
    }
  }
  const auto packets = static_cast<double>(opts.packets);
  rep.baseline_pps = packets / baseline.critical_seconds;
  rep.fast_pps = packets / fast.critical_seconds;
  rep.speedup = rep.fast_pps / rep.baseline_pps;
  rep.sharded_wall_pps = packets / fast.base.seconds;
  rep.mailbox_in = fast.mailbox_in;
  // Identity: a traced pair at verification size, plus the timed pair.
  const std::uint64_t vpackets = std::min<std::uint64_t>(opts.packets, 30000);
  const auto vb = run(1u, true, vpackets);
  const auto vf = run(opts.shards, true, vpackets);
  rep.identical = vb.base.counters == vf.base.counters &&
                  vb.base.trace_hash == vf.base.trace_hash &&
                  vb.base.route_hash == vf.base.route_hash &&
                  baseline.base.counters == fast.base.counters &&
                  baseline.base.route_hash == fast.base.route_hash;
  return rep;
}

/// Sharded A/B: the 1-shard run vs. the N-shard run on the *same*
/// workload. Determinism compares summed counters, the canonical trace
/// digest, and router-hop hashes across shard counts.
WorkloadReport bench_sharded_workload(const Opts& opts,
                                      const std::string& name, bool relay) {
  return measure_sharded_pair(
      opts, name,
      [&](std::uint32_t shards, bool traced, std::uint64_t packets) {
        return run_sharded_workload(opts, relay, shards, traced, packets);
      });
}

// --- amplification campaign workload --------------------------------

/// Victim count of the amplification row: enough spoof targets to
/// spread reflection delivery over several shards.
constexpr int kAmpVictims = 4;

/// One reflective-amplification pass over the cross-shard relay world:
/// a single attacker injects spoofed-victim queries at the transparent
/// forwarders, every response crosses the fabric to a victim's meter.
/// The campaign's merged reflection log is folded into the identity
/// hash, so the A/B also proves the *attack-scenario* output is
/// shard-count-invariant at bench scale.
ShardedRun run_amplification_workload(const Opts& opts, std::uint32_t shards,
                                      bool traced, std::uint64_t packets) {
  ShardedWorld w = build_sharded_world(opts, /*relay=*/true, shards);
  auto& sim = *w.sim;
  if (traced) sim.set_packet_trace_enabled(true);

  scan::AmplificationConfig ac;
  ac.qname = *dnswire::Name::parse("amp.scan.odns-study.net");
  ac.probes_per_second = 1000000;  // census pacing shape, compressed
  ac.settle = util::Duration::seconds(1);
  scan::AmplificationCampaign campaign(sim, ac);
  campaign.add_attacker(w.scanner);
  for (int v = 0; v < kAmpVictims; ++v) {
    const std::uint32_t asn =
        2 + (static_cast<std::uint32_t>(v) * (opts.ases - 1)) / kAmpVictims;
    const Ipv4 addr{10, static_cast<std::uint8_t>(asn % 250),
                    static_cast<std::uint8_t>(asn / 250),
                    static_cast<std::uint8_t>(220 + v)};
    const auto host = sim.net().add_host(asn, {addr});
    campaign.add_victim(host, addr);
  }
  // One spoofed query per (victim, reflector) pair: cycle the TF row
  // until the campaign injects ~`packets` queries.
  const std::uint64_t per_victim =
      std::max<std::uint64_t>(packets / kAmpVictims, 1);
  std::vector<Ipv4> reflectors;
  reflectors.reserve(per_victim);
  for (std::uint64_t i = 0; i < per_victim; ++i) {
    reflectors.push_back(w.targets[i % w.targets.size()]);
  }

  ShardedRun r;
  const auto t0 = std::chrono::steady_clock::now();
  campaign.start(reflectors);
  campaign.run_to_completion();
  const auto t1 = std::chrono::steady_clock::now();
  r.base.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.base.counters = sim.counters();
  if (traced) r.base.trace_hash = sim.canonical_trace_digest();
  hash_routes(sim, w.targets, r.base);
  for (const auto& refl : campaign.merged_reflections()) {
    r.base.route_hash = fnv1a64(r.base.route_hash, refl.victim.value());
    r.base.route_hash = fnv1a64(r.base.route_hash, refl.src.value());
    r.base.route_hash = fnv1a64(
        r.base.route_hash, std::uint64_t{refl.src_port} << 48 |
                               std::uint64_t{refl.dst_port} << 32 |
                               (refl.truncated ? 1u : 0u));
    r.base.route_hash = fnv1a64(r.base.route_hash, refl.bytes);
    r.base.route_hash = fnv1a64(
        r.base.route_hash, static_cast<std::uint64_t>(refl.at.nanos()));
  }
  collect_shard_stats(sim, r);
  return r;
}

/// The amplification_reflection row: 1-shard run vs. the
/// N-shard run of the same campaign, critical-path measured like the
/// other sharded rows. Identity covers counters, the canonical trace,
/// router hops, AND the merged reflection log.
WorkloadReport bench_amplification_workload(const Opts& opts) {
  return measure_sharded_pair(
      opts, "amplification_reflection",
      [&](std::uint32_t shards, bool traced, std::uint64_t packets) {
        return run_amplification_workload(opts, shards, traced, packets);
      });
}

void print_report(const WorkloadReport& r) {
  std::cout << r.name << "\n"
            << "  one_shard: "
            << static_cast<std::uint64_t>(r.baseline_pps) << " pkts/s\n"
            << "  sharded_critical_path:   "
            << static_cast<std::uint64_t>(r.fast_pps) << " pkts/s\n"
            << "  speedup:  " << r.speedup << "x\n"
            << "  shards:   " << r.shards << " (wall "
            << static_cast<std::uint64_t>(r.sharded_wall_pps)
            << " pkts/s, mailbox " << r.mailbox_in << " msgs)\n"
            << "  determinism (counters + trace + router hops): "
            << (r.identical ? "identical" : "MISMATCH") << "\n\n";
}

void write_json(const Opts& opts, const std::vector<WorkloadReport>& reps) {
  std::ofstream out(opts.json_path);
  out << "{\n"
      << "  \"bench\": \"bench_netsim\",\n"
      << "  \"unit\": \"packets_per_second\",\n"
      << "  \"config\": {\"packets\": " << opts.packets
      << ", \"ases\": " << opts.ases << ", \"internal_hops\": " << opts.hops
      << ", \"seed\": " << opts.seed
      << ", \"shards\": " << opts.shards
      << ", \"cores\": " << std::thread::hardware_concurrency() << "},\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    out << "    {\"name\": \"" << r.name << "\", \"one_shard_pps\": "
        << static_cast<std::uint64_t>(r.baseline_pps)
        << ", \"sharded_critical_path_pps\": "
        << static_cast<std::uint64_t>(r.fast_pps)
        << ", \"speedup\": " << r.speedup << ", \"shards\": " << r.shards
        << ", \"sharded_wall_pps\": "
        << static_cast<std::uint64_t>(r.sharded_wall_pps)
        << ", \"mailbox_msgs\": " << r.mailbox_in
        << ", \"deterministic\": " << (r.identical ? "true" : "false")
        << "}" << (i + 1 < reps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Opts opts = Opts::parse(argc, argv);
  std::cout << "bench_netsim: packet-plane fast paths (ases="
            << opts.ases << " hops=" << opts.hops
            << " packets=" << opts.packets << " seed=" << opts.seed << ")\n\n";

  std::vector<WorkloadReport> reps;
  reps.push_back(bench_sharded_workload(opts, "sharded_census_scan",
                                        /*relay=*/false));
  reps.push_back(bench_sharded_workload(opts, "sharded_cross_shard_relay",
                                        /*relay=*/true));
  reps.push_back(bench_amplification_workload(opts));
  for (const auto& r : reps) print_report(r);

  if (!opts.json_path.empty()) write_json(opts, reps);

  for (const auto& r : reps) {
    if (!r.identical) {
      std::cerr << "FAIL: " << r.name
                << ": 1-shard and N-shard runs diverged\n";
      return 1;
    }
  }
  for (const auto& r : reps) {
    if (opts.min_speedup > 0.0 && r.speedup < opts.min_speedup) {
      std::cerr << "FAIL: " << r.name << " speedup " << r.speedup
                << "x below required " << opts.min_speedup << "x\n";
      return 2;
    }
  }
  return 0;
}

// Determinism goldens (docs/architecture.md, "Determinism goldens"):
// recorded, absolute fingerprints of the streaming census, the classic
// paper pipeline, three packet-plane scenarios and the DNS wire codec. The other suites
// prove that shard counts agree with each other (1 vs. 8 shards);
// this one pins *what* they agree on, so a change that shifts every
// path equally still fails here.
//
// When a value drifts, the failure message prints the whole table row
// with the actual values; re-recording is pasting that row over the
// old one. A golden changes only in a change that says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "classify/analysis.hpp"
#include "core/attack.hpp"
#include "core/census.hpp"
#include "dnswire/codec.hpp"
#include "honeypot/lab.hpp"
#include "netsim/sim.hpp"
#include "netsim/stream.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/ratelimit.hpp"
#include "scan/amplification.hpp"
#include "testutil.hpp"
#include "util/hash.hpp"

namespace odns {
namespace {

using netsim::HostId;
using netsim::SimConfig;
using netsim::SimCounters;
using util::Duration;
using util::Ipv4;
using util::Prefix;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A table-row number as written in the source ("0.004"), not at the
/// full precision gtest messages print doubles with.
std::string plain(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// Running FNV-1a digest over 64-bit words.
class Fnv {
 public:
  Fnv& add(std::uint64_t v) {
    h_ = util::fnv1a64(h_, v);
    return *this;
  }
  Fnv& add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<std::uint8_t>(c));
    return *this;
  }
  Fnv& add(std::initializer_list<std::uint64_t> values) {
    for (const std::uint64_t v : values) add(v);
    return *this;
  }
  Fnv& add(const dnswire::Name& n) {
    add(n.label_count());
    for (const auto& l : n.labels()) add(l);
    return *this;
  }
  Fnv& add(const dnswire::ResourceRecord& rr) {
    add(rr.name).add({static_cast<std::uint64_t>(rr.type),
                      static_cast<std::uint64_t>(rr.klass), rr.ttl,
                      rr.rdata.index()});
    std::visit(
        [this](const auto& rd) {
          using T = std::decay_t<decltype(rd)>;
          if constexpr (std::is_same_v<T, dnswire::ARecord>) {
            add(rd.addr.value());
          } else if constexpr (std::is_same_v<T, dnswire::NsRecord>) {
            add(rd.host);
          } else if constexpr (std::is_same_v<T, dnswire::CnameRecord> ||
                               std::is_same_v<T, dnswire::PtrRecord>) {
            add(rd.target);
          } else if constexpr (std::is_same_v<T, dnswire::TxtRecord>) {
            add(rd.strings.size());
            for (const auto& str : rd.strings) add(str);
          } else if constexpr (std::is_same_v<T, dnswire::SoaRecord>) {
            add(rd.mname).add(rd.rname).add(
                {rd.serial, rd.refresh, rd.retry, rd.expire, rd.minimum});
          } else if constexpr (std::is_same_v<T, dnswire::OptRecord>) {
            add(rd.udp_payload_size);
          } else {
            add(rd.data.size());
            for (const std::uint8_t b : rd.data) add(b);
          }
        },
        rr.rdata);
    return *this;
  }
  /// Every field a decoded message carries.
  Fnv& add(const dnswire::Message& m) {
    const dnswire::Header& h = m.header;
    add({h.id, h.qr ? 1u : 0u, static_cast<std::uint64_t>(h.opcode),
         h.aa ? 1u : 0u, h.tc ? 1u : 0u, h.rd ? 1u : 0u, h.ra ? 1u : 0u,
         static_cast<std::uint64_t>(h.rcode), m.questions.size()});
    for (const auto& q : m.questions) {
      add(q.name).add({static_cast<std::uint64_t>(q.type),
                       static_cast<std::uint64_t>(q.klass)});
    }
    for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
      add(section->size());
      for (const auto& rr : *section) add(rr);
    }
    return *this;
  }
  Fnv& add(const SimCounters& c) {
    return add({c.sent, c.delivered, c.dropped_sav, c.dropped_loss,
                c.dropped_no_route, c.ttl_expired, c.icmp_generated,
                c.redirected, c.dropped_outage, c.jittered, c.reordered,
                c.duplicated, c.corrupted, c.icmp_unreachable_suppressed});
  }
  [[nodiscard]] std::string hex() const { return odns::hex(h_); }

 private:
  std::uint64_t h_ = util::kFnv1aBasis;
};

/// The shard-invariant half of a DegradationReport: coverage counts,
/// scanner statistics and packet-plane counters.
std::string report_digest(const core::DegradationReport& r) {
  const scan::ScannerStats& s = r.scan;
  return Fnv()
      .add({r.targets_probed, r.targets_answered, r.ases_probed,
            r.ases_degraded, r.ases_dark, s.probes_sent, s.probes_retried,
            s.responses_received, s.responses_unmatched,
            s.responses_duplicate, s.responses_late, s.parse_errors,
            s.responses_corrupt, s.icmp_errors, r.trace_dropped})
      .add(r.net)
      .hex();
}

// ---------------------------------------------------------------------
// Streaming census: seeds × scales × {fault-free, faulted} × {1, 8}
// ---------------------------------------------------------------------

struct CensusGolden {
  std::uint64_t seed;
  double scale;
  bool faulted;
  const char* census;  // classify::census_fingerprint
  const char* report;  // report_digest(DegradationReport)
};

// One row per (seed, scale, faults); the 1-shard and the 8-shard
// threaded census must both reproduce it.
constexpr CensusGolden kStreamingCensus[] = {
    {1, 0.0015, false, "a898af66dc420bce", "bcf01cdd5b48c94f"},
    {1, 0.0015, true, "4ec3cbfd912a2fc7", "295c5419b3632eb3"},
    {1, 0.004, false, "735e9aecd05a69bc", "00eade26f362a4f4"},
    {1, 0.004, true, "88c25000e46410e8", "78c842c22754c6e7"},
    {7, 0.0015, false, "0deed7c31a250aa5", "0e22e90d8400359b"},
    {7, 0.0015, true, "36725fbac5afe5bb", "29770104e5a77685"},
    {7, 0.004, false, "b1b70727557f9bc9", "11685b2eb007364f"},
    {7, 0.004, true, "fdb80ec44138b85b", "c1259524e4792d17"},
    {2021, 0.0015, false, "0f18d2e71a72589d", "5fbbd6fcb0adef83"},
    {2021, 0.0015, true, "0e64965ca03ba91b", "030ac484b181e456"},
    {2021, 0.004, false, "98a543be9cd40577", "fefaf1a938616045"},
    {2021, 0.004, true, "2ba502977e18cbbf", "89703d1f7c31fc2c"},
};

/// Bulk-population streaming census as the scale suite runs it; the
/// faulted variant is the fault-plane suite's adverse network (5% loss,
/// jitter, reordering, duplication, corruption) with two retries.
core::CensusConfig streaming_cfg(const CensusGolden& g, std::uint32_t shards) {
  core::CensusConfig cfg;
  cfg.topology.scale = g.scale;
  cfg.topology.max_countries = 10;
  cfg.topology.seed = g.seed;
  cfg.topology.sim.seed = g.seed;
  cfg.sim_shards = shards;
  cfg.shard_interleaved_targets = true;
  cfg.vantages = shards;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = false;
  cfg.scan_timeout = Duration::seconds(2);
  cfg.correlate_flush = Duration::millis(250);
  if (g.faulted) {
    auto& sim = cfg.topology.sim;
    sim.loss_rate = 0.05;
    sim.faults.jitter_rate = 0.3;
    sim.faults.jitter_max = Duration::millis(5);
    sim.faults.reorder_rate = 0.15;
    sim.faults.dup_rate = 0.1;
    sim.faults.corrupt_rate = 0.05;
    cfg.scan_max_retries = 2;
    cfg.scan_retry_backoff = Duration::millis(500);
  }
  return cfg;
}

TEST(GoldenStreamingCensus, OneAndEightShardsMatchTheRecordedRow) {
  for (const CensusGolden& g : kStreamingCensus) {
    // The buffered cadence (run to completion, then one final flush of
    // the same correlator) must land on the same row.
    core::CensusConfig buffered = streaming_cfg(g, 1);
    buffered.streaming_correlation = false;
    for (const core::CensusConfig& cfg :
         {streaming_cfg(g, 1), streaming_cfg(g, 8), buffered}) {
      const auto result = core::run_census(cfg);
      const std::string census =
          hex(classify::census_fingerprint(result.census));
      const std::string report = report_digest(result.degradation);
      EXPECT_TRUE(census == g.census && report == g.report)
          << "shards=" << cfg.sim_shards
          << (cfg.streaming_correlation ? "" : " buffered")
          << ", actual row: {" << g.seed << ", " << plain(g.scale) << ", "
          << (g.faulted ? "true" : "false") << ", \"" << census << "\", \""
          << report << "\"},";
    }
  }
}

// ---------------------------------------------------------------------
// Classic pipeline: per-host world, census → DNSRoute++ → attack
// ---------------------------------------------------------------------

struct PipelineGolden {
  std::uint64_t seed;
  const char* census;         // classify::census_fingerprint
  std::uint64_t paths;        // run_dnsroute path count
  const char* path_hash;      // every hop of every path
  const char* amplification;  // AmplificationReport::fingerprint()
};

constexpr PipelineGolden kPipeline[] = {
    {1, "4a71a516410969da", 1140, "a52a98bb78a18e1f", "1cb47b484de5fc63"},
    {7, "61b3f311794f2810", 1140, "baccec887edea356", "a7cd0ac0ede5fae6"},
    {2021, "09215b450cdcaaec", 1140, "204c2d327a856d97", "f4100926a2c56a8c"},
};

std::string path_digest(const std::vector<dnsroute::TracePath>& paths) {
  Fnv d;
  for (const auto& p : paths) {
    d.add(p.target.value()).add(p.hops.size());
    for (const auto& hop : p.hops) {
      d.add(hop.responded ? 1 : 0).add(hop.addr.value());
    }
    d.add({static_cast<std::uint64_t>(p.target_distance),
           p.got_answer ? 1u : 0u, p.resolver.value(),
           static_cast<std::uint64_t>(p.answer_ttl)});
  }
  return d.hex();
}

TEST(GoldenPipeline, CensusDnsrouteAndAttackMatchTheRecordedRow) {
  for (const PipelineGolden& g : kPipeline) {
    core::CensusConfig cfg;
    cfg.topology.scale = 0.003;
    cfg.topology.max_countries = 3;
    cfg.topology.seed = g.seed;
    cfg.topology.sim.seed = g.seed;
    auto result = core::run_census(cfg);
    const std::string census = hex(classify::census_fingerprint(result.census));
    const auto routes = core::run_dnsroute(result);
    const std::string paths = path_digest(routes.paths);
    const auto attack =
        core::run_attack_scenario(result, core::AttackScenarioConfig{});
    const std::string amp = Fnv().add(attack.report.fingerprint()).hex();
    EXPECT_TRUE(census == g.census && routes.paths.size() == g.paths &&
                paths == g.path_hash && amp == g.amplification)
        << "actual row: {" << g.seed << ", \"" << census << "\", "
        << routes.paths.size() << ", \"" << paths << "\", \"" << amp
        << "\"},";
    // The streaming cadence must reproduce the same census.
    cfg.streaming_correlation = true;
    EXPECT_EQ(hex(classify::census_fingerprint(core::run_census(cfg).census)),
              g.census)
        << "streaming cadence, seed=" << g.seed;
  }
}

// ---------------------------------------------------------------------
// Packet-plane scenarios
// ---------------------------------------------------------------------

/// What a scenario pins: the canonical trace digest, a digest of the
/// counters and the scenario's own outputs, and the executed events.
struct SimFingerprint {
  std::string trace;
  std::string outputs;
  std::uint64_t events = 0;
};

std::string row_text(const SimFingerprint& fp) {
  std::ostringstream out;
  out << "\"" << fp.trace << "\", \"" << fp.outputs << "\", " << fp.events;
  return out.str();
}

bool matches(const SimFingerprint& fp, const char* trace, const char* outputs,
             std::uint64_t events) {
  return fp.trace == trace && fp.outputs == outputs && fp.events == events;
}

class EchoApp : public netsim::App {
 public:
  EchoApp(netsim::Simulator& sim, HostId host) : sim_(&sim), host_(host) {}
  void on_datagram(const netsim::Datagram& dgram) override {
    netsim::SendOptions reply;
    reply.dst = dgram.src;
    reply.src_port = dgram.dst_port;
    reply.dst_port = dgram.src_port;
    reply.payload = *dgram.payload;
    sim_->send_udp(host_, std::move(reply));
  }

 private:
  netsim::Simulator* sim_;
  HostId host_;
};

class NullApp : public netsim::App {
 public:
  void on_datagram(const netsim::Datagram&) override {}
};

/// A world exercising every event kind: transparent redirects
/// (re-injection), low-TTL probes (deferred ICMP), same-timestamp
/// bursts, echo replies, stream handshake timers, and loss.
SimFingerprint run_event_scenario() {
  SimConfig cfg;
  cfg.seed = 99;
  cfg.loss_rate = 0.02;
  netsim::Simulator sim(cfg);
  sim.set_packet_trace_enabled(true);
  auto& net = sim.net();

  auto add_as = [&](netsim::Asn asn, int hops, bool sav) {
    netsim::AsConfig as;
    as.asn = asn;
    as.internal_hops = hops;
    as.source_address_validation = sav;
    net.add_as(as);
  };
  add_as(1, 1, true);
  add_as(2, 2, true);
  add_as(3, 1, false);  // forwarder AS: SAV-free, as deployed TFs are
  add_as(4, 3, true);
  net.link(1, 2);
  net.link(2, 3);
  net.link(2, 4);
  net.announce(1, Prefix{Ipv4{10, 1, 0, 0}, 16});
  net.announce(3, Prefix{Ipv4{10, 3, 0, 0}, 16});
  net.announce(4, Prefix{Ipv4{10, 4, 0, 0}, 16});

  const HostId scanner = net.add_host(1, {Ipv4{10, 1, 0, 1}});
  const HostId fwd = net.add_host(3, {Ipv4{10, 3, 0, 1}});
  const HostId resolver = net.add_host(4, {Ipv4{10, 4, 0, 1}});
  const HostId server = net.add_host(4, {Ipv4{10, 4, 0, 2}});

  NullApp scanner_app;
  sim.bind_udp_wildcard(scanner, &scanner_app);
  EchoApp resolver_app(sim, resolver);
  sim.bind_udp(resolver, 53, &resolver_app);
  sim.add_port_redirect(fwd, 53, Ipv4{10, 4, 0, 1});

  // Stream handshakes: one accepted (direct), one timed out (through
  // the forwarder — the §6 property), both driven by typed timers.
  netsim::StreamEndpoint client(sim, scanner, netsim::StreamCallbacks{});
  netsim::StreamEndpoint dot(sim, server, netsim::StreamCallbacks{});
  dot.listen(853);
  client.connect(Ipv4{10, 4, 0, 2}, 853);
  client.connect(Ipv4{10, 3, 0, 1}, 53);

  // Same-timestamp probe bursts, mixed TTLs (some expire mid-path).
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 32; ++i) {
      netsim::SendOptions probe;
      probe.dst = (i % 2 == 0) ? Ipv4{10, 3, 0, 1} : Ipv4{10, 4, 0, 1};
      probe.src_port = static_cast<std::uint16_t>(30000 + i);
      probe.dst_port = 53;
      probe.ttl = (i % 5 == 0) ? 2 : 64;
      probe.payload = {0xAB, static_cast<std::uint8_t>(i)};
      sim.send_udp(scanner, std::move(probe));
    }
    sim.run_for(Duration::millis(5));
  }
  sim.run();
  sim.run_until(sim.now() + Duration::seconds(5));  // fire the timeouts
  sim.run();

  EXPECT_EQ(client.handshakes_rejected(), 1u);
  EXPECT_GT(sim.counters().redirected, 0u);
  EXPECT_GT(sim.counters().ttl_expired, 0u);
  SimFingerprint fp;
  fp.trace = hex(sim.canonical_trace_digest());
  fp.outputs = Fnv()
                   .add(sim.counters())
                   .add({client.handshakes_rejected(),
                         static_cast<std::uint64_t>(sim.now().nanos())})
                   .hex();
  fp.events = sim.events_executed();
  return fp;
}

TEST(GoldenNetsim, EventScenarioMatchesTheRecordedRow) {
  constexpr const char* kTrace = "b209a2553e1f1f7d";
  constexpr const char* kOutputs = "b48f35eb6dc42521";
  constexpr std::uint64_t kEvents = 300;
  const SimFingerprint fp = run_event_scenario();
  EXPECT_TRUE(matches(fp, kTrace, kOutputs, kEvents))
      << "actual row: " << row_text(fp);
}

SimConfig mini_cfg(std::uint64_t seed, double loss, std::uint32_t shards) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.loss_rate = loss;
  cfg.shards = shards;
  return cfg;
}

/// Six transparent forwarders relaying to the open resolver, the
/// resolver itself, and one unresponsive address — relays, ICMP,
/// resolver fan-out and mirror responses in one scan.
SimFingerprint run_mini_scan(const SimConfig& cfg) {
  test::MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);
  std::vector<std::unique_ptr<nodes::TransparentForwarder>> tfs;
  std::vector<Ipv4> targets;
  for (int i = 0; i < 6; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    tfs.push_back(std::make_unique<nodes::TransparentForwarder>(
        world.sim, world.add_access_host(addr), test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  targets.push_back(test::kResolverAddr);
  targets.push_back(Ipv4{20, 0, 9, 200});  // unresponsive: ICMP path

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);
  const auto scanner =
      honeypot::single_host_scanner(world.sim, world.scanner_host, sc);
  scanner->start(targets);
  scanner->run_to_completion();

  Fnv outputs;
  outputs.add(world.sim.counters());
  for (const auto& t : scanner->correlate()) {
    outputs.add({t.target.value(), t.answered ? 1u : 0u,
                 t.response_src.value(),
                 static_cast<std::uint64_t>(t.rtt.count_nanos()),
                 static_cast<std::uint64_t>(t.rcode)});
    for (const auto a : t.answer_addrs) outputs.add(a.value());
  }
  SimFingerprint fp;
  fp.trace = hex(world.sim.canonical_trace_digest());
  fp.outputs = outputs.hex();
  fp.events = world.sim.events_executed();
  return fp;
}

struct MiniScanGolden {
  std::uint64_t seed;
  double loss;
  const char* trace;
  const char* outputs;
  std::uint64_t events;
};

constexpr MiniScanGolden kMiniScan[] = {
    {1, 0.0, "ebff22656cdf8506", "bb6736b8317bc631", 37},
    {1, 0.08, "c5a9143fc0425650", "99d3bec39672d05d", 34},
    {2021, 0.0, "ebff22656cdf8506", "bb6736b8317bc631", 37},
    {2021, 0.08, "7cce6ab89af11c93", "736c15cb04aded90", 34},
};

TEST(GoldenNetsim, MiniScanMatchesTheRecordedRowOnOneAndEightShards) {
  for (const MiniScanGolden& g : kMiniScan) {
    for (const std::uint32_t shards : {1u, 8u}) {
      const SimFingerprint fp = run_mini_scan(mini_cfg(g.seed, g.loss, shards));
      EXPECT_TRUE(matches(fp, g.trace, g.outputs, g.events))
          << "shards=" << shards << ", actual row: {" << g.seed << ", "
          << plain(g.loss) << ", " << row_text(fp) << "},";
    }
  }
}

std::vector<std::string> txt_filler(std::size_t bytes) {
  static constexpr char kPattern[] = "golden-amplification-txt/";
  std::vector<std::string> strings;
  std::string chunk;
  for (std::size_t i = 0; i < bytes; ++i) {
    chunk.push_back(kPattern[i % (sizeof(kPattern) - 1)]);
    if (chunk.size() == 255) {
      strings.push_back(std::move(chunk));
      chunk.clear();
    }
  }
  if (!chunk.empty()) strings.push_back(std::move(chunk));
  return strings;
}

/// Reflective amplification through six transparent forwarders from
/// two attackers onto two victims, optionally against a rate-limited
/// resolver: same-instant response bursts and RRL verdicts.
SimFingerprint run_amplification(const SimConfig& cfg, bool rrl_on) {
  test::MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);
  std::vector<std::unique_ptr<nodes::TransparentForwarder>> tfs;
  std::vector<Ipv4> reflectors;
  for (int i = 0; i < 6; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    tfs.push_back(std::make_unique<nodes::TransparentForwarder>(
        world.sim, world.add_access_host(addr), test::kResolverAddr));
    tfs.back()->install();
    reflectors.push_back(addr);
  }
  const auto amp_name = *world.scan_name.prepend("amp");
  nodes::Zone* zone = world.auth->zone_for_mutable(amp_name);
  zone->add_record(dnswire::ResourceRecord::txt(amp_name, txt_filler(600),
                                                zone->default_ttl));
  if (rrl_on) world.resolver->set_rrl({/*rate=*/2, /*burst=*/2, /*slip=*/2});

  scan::AmplificationConfig ac;
  ac.qname = amp_name;
  ac.probes_per_second = rrl_on ? 40 : 20000;
  scan::AmplificationCampaign campaign(world.sim, ac);
  for (int i = 0; i < 2; ++i) {
    const Ipv4 base{198, 18, static_cast<std::uint8_t>(240 + i), 0};
    campaign.add_attacker(honeypot::attach_vantage(
        world.sim.net(), Prefix{base, 24}, Ipv4{base.value() + 7},
        /*sav=*/false));
  }
  for (int i = 0; i < 2; ++i) {
    const Ipv4 base{198, 18, static_cast<std::uint8_t>(200 + i), 0};
    const Ipv4 addr{base.value() + 7};
    campaign.add_victim(honeypot::attach_vantage(world.sim.net(),
                                                 Prefix{base, 24}, addr,
                                                 /*sav=*/true),
                        addr);
  }
  campaign.start(reflectors);
  campaign.run_to_completion();

  Fnv outputs;
  outputs.add(world.sim.counters());
  for (const auto& i : campaign.injections()) {
    outputs.add({static_cast<std::uint64_t>(i.at.nanos()), i.victim.value(),
                 i.reflector.value(), i.attacker_as, i.src_port, i.txid,
                 i.bytes});
  }
  for (const auto& r : campaign.merged_reflections()) {
    outputs.add({static_cast<std::uint64_t>(r.at.nanos()), r.victim.value(),
                 r.src.value(), r.src_port, r.dst_port, r.bytes,
                 r.truncated ? 1u : 0u});
  }
  if (const auto* rrl = world.resolver->rrl()) {
    outputs.add(
        {rrl->stats().passed, rrl->stats().slipped, rrl->stats().dropped});
  }
  SimFingerprint fp;
  fp.trace = hex(world.sim.canonical_trace_digest());
  fp.outputs = outputs.hex();
  fp.events = world.sim.events_executed();
  return fp;
}

struct AmplificationGolden {
  bool rrl;
  const char* trace;
  const char* outputs;
  std::uint64_t events;
};

constexpr AmplificationGolden kAmplification[] = {
    {false, "6e9aee609156f8e3", "6c23e5e15a2cd531", 57},
    {true, "dc89bc73281ee335", "0be1ec5bad39bdce", 52},
};

TEST(GoldenNetsim, AmplificationMatchesTheRecordedRowOnOneAndEightShards) {
  for (const AmplificationGolden& g : kAmplification) {
    for (const std::uint32_t shards : {1u, 8u}) {
      const SimFingerprint fp =
          run_amplification(mini_cfg(2021, 0.0, shards), g.rrl);
      EXPECT_TRUE(matches(fp, g.trace, g.outputs, g.events))
          << "shards=" << shards << ", actual row: {"
          << (g.rrl ? "true" : "false") << ", " << row_text(fp) << "},";
    }
  }
}

// ---------------------------------------------------------------------
// DNS wire codec: encoded bytes and decode verdicts
// ---------------------------------------------------------------------

/// encode() bytes of one seed's slice of the round-trip corpus.
struct CodecEncodeGolden {
  std::uint64_t seed;
  const char* bytes;
};

constexpr CodecEncodeGolden kCodecEncode[] = {
    {0xC0FFEE, "14cc22d4558ef66a"},
    {0xDECAF1, "4b7e412b2370fb32"},
    {0x5CA1AB1E, "f550d38bff66d482"},
    {0xB16B00B5, "cc8129427e2de6fe"},
    {0xCAFEF00D, "4f942c79917fad4d"},
};

TEST(GoldenCodec, EncodedCorpusMatchesTheRecordedRow) {
  for (const CodecEncodeGolden& g : kCodecEncode) {
    util::Rng rng(g.seed);
    Fnv d;
    for (int i = 0; i < test::corpus::kMessagesPerSeed; ++i) {
      const auto wire = dnswire::encode(test::corpus::random_message(rng));
      d.add(wire.size());
      for (const std::uint8_t b : wire) d.add(b);
    }
    EXPECT_EQ(d.hex(), g.bytes)
        << "actual row: {0x" << std::hex << std::uppercase << g.seed
        << ", \"" << d.hex() << "\"},";
  }
}

/// decode() verdicts over one fuzz corpus. Each input folds in either
/// its DecodeError or its decoded fields, never re-encoded bytes, so
/// the row pins the decoder alone.
struct CodecVerdictGolden {
  const char* corpus;
  std::vector<test::corpus::Wire> (*inputs)();
  const char* verdicts;
};

const CodecVerdictGolden kCodecVerdicts[] = {
    {"truncated", test::corpus::truncated_inputs, "a127430895b125a5"},
    {"corrupted", test::corpus::corrupted_inputs, "2c6e53392dd0d803"},
    {"garbage", test::corpus::garbage_inputs, "610319aa793e1046"},
};

TEST(GoldenCodec, DecodeVerdictsMatchTheRecordedRow) {
  for (const CodecVerdictGolden& g : kCodecVerdicts) {
    Fnv d;
    for (const auto& wire : g.inputs()) {
      const auto parsed = dnswire::decode(wire);
      if (parsed) {
        d.add(1).add(parsed.value());
      } else {
        d.add({0, static_cast<std::uint64_t>(parsed.error())});
      }
    }
    EXPECT_EQ(d.hex(), g.verdicts)
        << "actual row: {\"" << g.corpus << "\", test::corpus::" << g.corpus
        << "_inputs, \"" << d.hex() << "\"},";
  }
}

}  // namespace
}  // namespace odns

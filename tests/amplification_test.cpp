// Property / differential suite for the reflective-amplification
// campaign layer (docs/architecture.md, "Attack scenarios").
//
// Property bar: the amplification tables — and the raw injection and
// reflection logs they aggregate — must be byte-identical across shard
// counts (1, 2, 8), several seeds, and with
// the RRL and SAV defense toggles in every combination. RRL makes this
// non-trivial: a naive token bucket decides "who gets the last token"
// by same-instant arrival order, which is NOT shard-count-invariant;
// the per-instant gate + stateless slip hash in nodes::ratelimit is
// what the property pins down.
//
// Differential bar:
//  - RRL on never reflects more bytes per victim than RRL off for the
//    same world and seed (pass = same bytes, slip = smaller TC stub,
//    drop = zero).
//  - SAV at an attacker's origin AS drops exactly that attacker's
//    spoofed injections and nothing else: dropped_sav equals the
//    injection count, and the surviving reflection multiset equals the
//    baseline minus the reflections joined to the dropped injections
//    by (victim, dst_port == injection src_port).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "classify/amplification.hpp"
#include "core/attack.hpp"
#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/ratelimit.hpp"
#include "scan/amplification.hpp"
#include "testutil.hpp"

namespace odns {
namespace {

using netsim::HostId;
using netsim::SimConfig;
using netsim::SimCounters;
using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::Prefix;

std::vector<std::string> txt_filler(std::size_t bytes) {
  static constexpr char kPattern[] = "amplification-test-filler/";
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

std::string render_injections(const std::vector<scan::Injection>& log) {
  std::ostringstream out;
  for (const auto& i : log) {
    out << i.at.nanos() << ' ' << i.victim.to_string() << ' '
        << i.reflector.to_string() << ' ' << i.attacker_as << ' '
        << i.src_port << ' ' << i.txid << ' ' << i.bytes << '\n';
  }
  return out.str();
}

std::string render_reflections(const std::vector<scan::Reflection>& log) {
  std::ostringstream out;
  for (const auto& r : log) {
    out << r.at.nanos() << ' ' << r.victim.to_string() << ' '
        << r.src.to_string() << ' ' << r.src_port << ' ' << r.dst_port << ' '
        << r.bytes << ' ' << r.truncated << '\n';
  }
  return out.str();
}

std::string render_counters(const SimCounters& c) {
  std::ostringstream out;
  out << c.sent << ' ' << c.delivered << ' ' << c.dropped_sav << ' '
      << c.dropped_loss << ' ' << c.dropped_no_route << ' ' << c.ttl_expired
      << ' ' << c.icmp_generated << ' ' << c.redirected << '\n';
  return out.str();
}

std::string render_rrl(const nodes::RrlStats& s) {
  std::ostringstream out;
  out << s.passed << ' ' << s.slipped << ' ' << s.dropped << '\n';
  return out.str();
}

/// Campaign knobs for the MiniWorld-level runs.
struct AmpOptions {
  int forwarders = 6;
  int attackers = 2;
  int victims = 2;
  std::size_t amp_txt_bytes = 600;
  /// Injection pacing. The RRL variants pace slowly (e.g. 40/s) so
  /// responses reach each victim's bucket at distinct instants: a
  /// full-rate burst coalesces on the resolver and responds in one
  /// instant, where the per-instant gate passes everyone by design
  /// (bounded debt) and only later instants get limited.
  std::uint64_t pps = 20000;
  nodes::RrlConfig rrl;       // rate == 0: RRL off
  bool sav_attacker0 = false; // egress SAV at the first attacker's AS
};

/// Everything one campaign run produced, plus the invariance
/// fingerprint the property tests compare.
struct AmpRun {
  std::vector<scan::Injection> injections;
  std::vector<scan::Reflection> reflections;
  std::vector<netsim::Asn> attacker_ases;
  SimCounters counters;       // attack-phase delta
  nodes::RrlStats rrl;
  classify::AmplificationReport report;

  SimCounters world_counters; // whole-run, for the trace digest pairing
  std::uint64_t trace_digest = 0;
  std::uint64_t events = 0;
};

std::string amp_fingerprint(const AmpRun& run) {
  std::string fp = run.report.fingerprint();
  fp += render_injections(run.injections);
  fp += render_reflections(run.reflections);
  fp += render_counters(run.counters);
  fp += render_rrl(run.rrl);
  fp += render_counters(run.world_counters);
  fp += std::to_string(run.trace_digest) + ' ' +
        std::to_string(run.events) + '\n';
  return fp;
}

/// MiniWorld + a TF row relaying to the open resolver + a fat TXT
/// rrset planted at amp.<scan name> on the auth zone, attacked from
/// dedicated SAV-free vantage ASes spoofing dedicated victim ASes.
AmpRun run_amp(SimConfig cfg, const AmpOptions& opt) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> reflectors;
  for (int i = 0; i < opt.forwarders; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    reflectors.push_back(addr);
  }

  const auto amp_name = *world.scan_name.prepend("amp");
  nodes::Zone* zone = world.auth->zone_for_mutable(amp_name);
  zone->add_record(dnswire::ResourceRecord::txt(
      amp_name, txt_filler(opt.amp_txt_bytes), zone->default_ttl));

  if (opt.rrl.rate > 0) world.resolver->set_rrl(opt.rrl);

  scan::AmplificationConfig ac;
  ac.qname = amp_name;
  ac.probes_per_second = opt.pps;
  scan::AmplificationCampaign campaign(world.sim, ac);

  AmpRun run;
  for (int i = 0; i < opt.attackers; ++i) {
    const Ipv4 base{198, 18, static_cast<std::uint8_t>(240 + i), 0};
    const Ipv4 addr{base.value() + 7};
    const bool sav = opt.sav_attacker0 && i == 0;
    const HostId host = honeypot::attach_vantage(world.sim.net(),
                                                 Prefix{base, 24}, addr, sav);
    campaign.add_attacker(host);
    run.attacker_ases.push_back(world.sim.net().host(host).asn);
  }
  for (int i = 0; i < opt.victims; ++i) {
    const Ipv4 base{198, 18, static_cast<std::uint8_t>(200 + i), 0};
    const Ipv4 addr{base.value() + 7};
    const HostId host = honeypot::attach_vantage(world.sim.net(),
                                                 Prefix{base, 24}, addr,
                                                 /*sav=*/true);
    campaign.add_victim(host, addr);
  }

  const SimCounters before = world.sim.counters();
  campaign.start(reflectors);
  campaign.run_to_completion();

  run.injections = campaign.injections();
  run.reflections = campaign.merged_reflections();
  run.counters = world.sim.counters();
  run.counters.sent -= before.sent;
  run.counters.delivered -= before.delivered;
  run.counters.dropped_sav -= before.dropped_sav;
  run.counters.dropped_loss -= before.dropped_loss;
  run.counters.dropped_no_route -= before.dropped_no_route;
  run.counters.ttl_expired -= before.ttl_expired;
  run.counters.icmp_generated -= before.icmp_generated;
  run.counters.redirected -= before.redirected;
  if (const auto* rrl = world.resolver->rrl()) run.rrl = rrl->stats();
  // No registry at MiniWorld scale: the per-AS table lands in the
  // unmapped (0) bucket; AS attribution is exercised at core level.
  run.report = classify::amplification_report(run.injections,
                                              run.reflections,
                                              registry::RegistrySnapshot{});
  run.world_counters = world.sim.counters();
  run.trace_digest = world.sim.canonical_trace_digest();
  run.events = world.sim.events_executed();
  return run;
}

SimConfig sharded_cfg(std::uint32_t shards, std::uint64_t seed = 2021) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

TEST(AmplificationDeterminism, CampaignInvariantAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 2021ull}) {
    for (const bool rrl_on : {false, true}) {
      AmpOptions opt;
      if (rrl_on) {
        opt.rrl = {/*rate=*/2, /*burst=*/2, /*slip=*/2};
        opt.pps = 40;  // distinct-instant arrivals: slip/drop verdicts
                       // land in the fingerprint too
      }
      const auto reference =
          amp_fingerprint(run_amp(sharded_cfg(1, seed), opt));
      ASSERT_FALSE(reference.empty());
      for (const std::uint32_t shards : {2u, 8u}) {
        EXPECT_EQ(amp_fingerprint(run_amp(sharded_cfg(shards, seed), opt)),
                  reference)
            << "shards=" << shards << " seed=" << seed << " rrl=" << rrl_on;
      }
    }
  }
}

TEST(AmplificationDeterminism, DefensetogglesStayInvariantUnderSharding) {
  // RRL and SAV together: the hardest combination, since RRL state
  // only sees the injections SAV lets through.
  AmpOptions opt;
  opt.rrl = {/*rate=*/2, /*burst=*/2, /*slip=*/2};
  opt.pps = 40;
  opt.sav_attacker0 = true;
  const auto reference =
      amp_fingerprint(run_amp(sharded_cfg(1, 7), opt));
  for (const std::uint32_t shards : {2u, 8u}) {
    EXPECT_EQ(amp_fingerprint(run_amp(sharded_cfg(shards, 7), opt)),
              reference)
        << "shards=" << shards;
  }
}

TEST(AmplificationCampaign, ReflectsLargeResponsesOntoVictims) {
  const auto run = run_amp(sharded_cfg(1), AmpOptions{});
  // One injection per (victim, reflector) pair; every one answered.
  ASSERT_EQ(run.injections.size(), 12u);
  EXPECT_EQ(run.reflections.size(), 12u);
  // The join contract: reflections come back to the injection's port.
  std::set<std::pair<Ipv4, std::uint16_t>> sent;
  for (const auto& i : run.injections) sent.insert({i.victim, i.src_port});
  for (const auto& r : run.reflections) {
    EXPECT_TRUE(sent.contains({r.victim, r.dst_port}))
        << r.victim.to_string() << ':' << r.dst_port;
    // TF relay: the response source is the resolver, not the probed TF.
    EXPECT_EQ(r.src, test::kResolverAddr);
  }
  // A ~600-byte TXT rrset over a ~40-byte query: real amplification.
  ASSERT_EQ(run.report.victims.size(), 2u);
  for (const auto& v : run.report.victims) {
    EXPECT_EQ(v.queries, 6u);
    EXPECT_EQ(v.responses, 6u);
    EXPECT_GT(v.factor(), 5.0);
  }
  EXPECT_GT(run.report.overall_factor(), 5.0);
}

TEST(AmplificationDifferential, RrlNeverReflectsMoreBytesPerVictim) {
  for (const std::uint64_t seed : {3ull, 2021ull}) {
    AmpOptions off;
    off.pps = 40;
    const auto base = run_amp(sharded_cfg(1, seed), off);

    AmpOptions on = off;
    on.rrl = {/*rate=*/2, /*burst=*/2, /*slip=*/2};
    const auto limited = run_amp(sharded_cfg(1, seed), on);

    // Same campaign plan in both runs.
    ASSERT_EQ(render_injections(limited.injections),
              render_injections(base.injections));

    ASSERT_EQ(limited.report.victims.size(), base.report.victims.size());
    for (std::size_t i = 0; i < base.report.victims.size(); ++i) {
      const auto& was = base.report.victims[i];
      const auto& now = limited.report.victims[i];
      ASSERT_EQ(now.victim, was.victim);
      EXPECT_LE(now.bytes_reflected, was.bytes_reflected) << "seed=" << seed;
      EXPECT_LE(now.factor(), was.factor());
    }
    // 6 responses per victim against burst 2: the limiter engaged, and
    // with slip=2 both verdicts occur.
    EXPECT_LT(limited.report.total_bytes_reflected,
              base.report.total_bytes_reflected);
    EXPECT_GT(limited.rrl.passed, 0u);
    EXPECT_GT(limited.rrl.slipped, 0u);
    EXPECT_GT(limited.rrl.dropped, 0u);
    EXPECT_EQ(limited.report.total_truncated, limited.rrl.slipped);
    EXPECT_EQ(base.report.total_truncated, 0u);
    // Slip stubs are strictly smaller than the full response.
    for (const auto& r : limited.reflections) {
      if (r.truncated) {
        EXPECT_LT(r.bytes, 600u);
      }
    }
  }
}

/// Timing-free reflection identity: the fields that survive a world
/// re-run with a different defense toggle.
std::multiset<std::string> reflection_multiset(
    const std::vector<scan::Reflection>& log) {
  std::multiset<std::string> out;
  for (const auto& r : log) {
    out.insert(r.victim.to_string() + ' ' + r.src.to_string() + ' ' +
               std::to_string(r.dst_port) + ' ' + std::to_string(r.bytes) +
               ' ' + std::to_string(r.truncated));
  }
  return out;
}

TEST(AmplificationDifferential, SavDropsExactlyTheSpoofedInjections) {
  AmpOptions open;
  const auto base = run_amp(sharded_cfg(1, 5), open);
  ASSERT_EQ(base.counters.dropped_sav, 0u);

  AmpOptions sav = open;
  sav.sav_attacker0 = true;
  const auto defended = run_amp(sharded_cfg(1, 5), sav);

  // Identical plan; SAV acts on the wire, not on the schedule.
  ASSERT_EQ(render_injections(defended.injections),
            render_injections(base.injections));

  // Exactly attacker 0's injections die at the origin AS.
  const netsim::Asn atk0 = base.attacker_ases.at(0);
  std::uint64_t spoofed_from_atk0 = 0;
  std::set<std::pair<Ipv4, std::uint16_t>> dropped_ports;
  for (const auto& i : base.injections) {
    if (i.attacker_as == atk0) {
      ++spoofed_from_atk0;
      dropped_ports.insert({i.victim, i.src_port});
    }
  }
  ASSERT_GT(spoofed_from_atk0, 0u);
  EXPECT_EQ(defended.counters.dropped_sav, spoofed_from_atk0);

  // The surviving reflections are the baseline minus the ones joined
  // (victim, dst_port == src_port) to the dropped injections — nothing
  // else disappears, nothing new shows up.
  std::multiset<std::string> expected;
  for (const auto& r : base.reflections) {
    if (!dropped_ports.contains({r.victim, r.dst_port})) {
      expected.insert(r.victim.to_string() + ' ' + r.src.to_string() + ' ' +
                      std::to_string(r.dst_port) + ' ' +
                      std::to_string(r.bytes) + ' ' +
                      std::to_string(r.truncated));
    }
  }
  EXPECT_EQ(reflection_multiset(defended.reflections), expected);

  // Spent attacker bytes still count: SAV drives the factor down, it
  // does not shrink the denominator.
  EXPECT_EQ(defended.report.total_bytes_sent, base.report.total_bytes_sent);
  EXPECT_LT(defended.report.overall_factor(), base.report.overall_factor());
}

// ---------------------------------------------------------------------
// Core-level: census → attack scenario → defense sweeps, shard-count-
// invariant end to end.

struct CoreAmpFingerprint {
  /// Tables + reflection log + counters + RRL verdicts.
  std::string stable;
  /// stable + injection log.
  std::string full;
};

CoreAmpFingerprint core_attack(std::uint32_t shards, std::uint64_t seed,
                               bool rrl_on, std::uint32_t sav_k) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.003;
  cfg.topology.max_countries = 3;
  cfg.topology.seed = seed;
  cfg.topology.sim.seed = seed;
  cfg.sim_shards = shards;
  auto census = core::run_census(cfg);

  core::AttackScenarioConfig ac;
  ac.settle = Duration::seconds(10);
  if (rrl_on) ac.rrl = {/*rate=*/2, /*burst=*/2, /*slip=*/2};
  ac.sav_first_attackers = sav_k;
  const auto result = core::run_attack_scenario(census, ac);

  CoreAmpFingerprint fp;
  fp.stable = result.report.fingerprint();
  fp.stable += render_reflections(result.reflections);
  fp.stable += render_counters(result.counters);
  fp.stable += render_rrl(result.rrl);
  // Attacker ASNs are allocated after the census's capture fleet (one
  // vantage per shard), so each attacker renders as its index instead.
  std::vector<scan::Injection> injections = result.injections;
  for (auto& i : injections) {
    const auto& ases = result.attacker_ases;
    i.attacker_as = static_cast<netsim::Asn>(
        std::find(ases.begin(), ases.end(), i.attacker_as) - ases.begin());
  }
  fp.full = fp.stable + render_injections(injections);
  return fp;
}

TEST(AttackScenario, TablesInvariantAcrossShards) {
  // The census attaches one capture vantage per shard, so the 2- and
  // 8-shard runs also check that the attack never notices the fleet.
  const auto reference = core_attack(1, 11, false, 0);
  ASSERT_FALSE(reference.stable.empty());
  for (const std::uint32_t shards : {2u, 8u}) {
    EXPECT_EQ(core_attack(shards, 11, false, 0).full, reference.full)
        << "shards=" << shards;
  }
}

TEST(AttackScenario, DefenseTogglesInvariantAcrossShards) {
  const auto rrl_ref = core_attack(1, 11, true, 0);
  EXPECT_EQ(core_attack(8, 11, true, 0).full, rrl_ref.full);
  const auto sav_ref = core_attack(1, 11, false, 1);
  EXPECT_EQ(core_attack(8, 11, false, 1).full, sav_ref.full);
  // The toggles actually changed the outcome (the property above is
  // not comparing empty-vs-empty).
  EXPECT_NE(rrl_ref.stable, sav_ref.stable);
}

core::CensusConfig sweep_census_cfg() {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.003;
  cfg.topology.max_countries = 3;
  cfg.topology.seed = 11;
  cfg.topology.sim.seed = 11;
  return cfg;
}

TEST(AttackScenario, RrlDeploymentSweepAnswersTheWhatIf) {
  // The end-to-end what-if: how much attack volume does deploying RRL
  // at the top-N resolver ASes remove?
  core::AttackScenarioConfig ac;
  ac.settle = Duration::seconds(10);
  ac.rrl = {/*rate=*/1, /*burst=*/1, /*slip=*/2};
  const auto rows =
      core::sweep_rrl_deployment(sweep_census_cfg(), ac, {1, 64});
  ASSERT_EQ(rows.size(), 3u);

  // Undefended baseline: the campaign really amplifies.
  EXPECT_EQ(rows[0].label, "baseline");
  ASSERT_GT(rows[0].responses, 0u);
  EXPECT_GT(rows[0].factor, 1.0);
  EXPECT_EQ(rows[0].removed_vs_baseline, 0.0);

  // Wider deployment never reflects more; full deployment (top-64
  // covers every mapped resolver AS in a world this small) removes a
  // strictly positive share of the baseline volume.
  EXPECT_LE(rows[1].bytes_reflected, rows[0].bytes_reflected);
  EXPECT_LE(rows[2].bytes_reflected, rows[1].bytes_reflected);
  EXPECT_GT(rows[2].removed_vs_baseline, 0.0);
  EXPECT_GT(rows[2].truncated, 0u);  // the slip stubs are visible
  // Attacker spend is constant: the defense moves the numerator only.
  EXPECT_EQ(rows[1].bytes_sent, rows[0].bytes_sent);
  EXPECT_EQ(rows[2].bytes_sent, rows[0].bytes_sent);
}

TEST(AttackScenario, SavDeploymentSweepStarvesTheCampaign) {
  core::AttackScenarioConfig ac;
  ac.settle = Duration::seconds(10);
  const auto rows = core::sweep_sav_deployment(sweep_census_cfg(), ac);
  ASSERT_EQ(rows.size(), 3u);  // k = 0, 1, 2 attacker ASes

  ASSERT_GT(rows[0].bytes_reflected, 0u);
  EXPECT_LE(rows[1].bytes_reflected, rows[0].bytes_reflected);
  EXPECT_GT(rows[1].bytes_reflected, 0u);  // the other attacker still lands
  // SAV at every attacker AS: the campaign is fully starved, while the
  // spent bytes (the denominator) stay on the books.
  EXPECT_EQ(rows[2].bytes_reflected, 0u);
  EXPECT_EQ(rows[2].factor, 0.0);
  EXPECT_EQ(rows[2].bytes_sent, rows[0].bytes_sent);
  EXPECT_DOUBLE_EQ(rows[2].removed_vs_baseline, 1.0);
}

}  // namespace
}  // namespace odns

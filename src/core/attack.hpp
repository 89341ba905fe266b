#pragma once
// What-if attack/defense platform on top of the census (ROADMAP item
// 2): run a reflective-amplification campaign through the transparent
// forwarders a census discovered, then sweep the two deployable
// defenses — resolver-side response rate limiting (RRL) at chosen
// resolver ASes and partial SAV deployment at attacker ASes — and
// quantify the attack volume each deployment removes. See "Attack
// scenarios" in docs/architecture.md.

#include <string>
#include <vector>

#include "classify/amplification.hpp"
#include "core/census.hpp"
#include "nodes/ratelimit.hpp"
#include "scan/amplification.hpp"

namespace odns::core {

struct AttackScenarioConfig {
  /// Injection sources, each attached as its own SAV-free vantage AS.
  std::uint32_t attackers = 2;
  /// Spoofed victims, each attached as its own (SAV-enabled) stub AS.
  std::uint32_t victims = 2;
  /// Reflector budget: the first N census-discovered transparent
  /// forwarders in target order (0 = all of them).
  std::size_t max_reflectors = 0;
  std::uint64_t probes_per_second = 20000;
  dnswire::RrType qtype = dnswire::RrType::txt;
  /// TXT rdata bytes planted at amp.<scan name> — the response size
  /// that drives the amplification factor.
  std::size_t amp_txt_bytes = 1024;
  util::Duration settle = util::Duration::seconds(20);

  /// RRL parameters applied to resolvers when rrl.rate > 0: to those
  /// whose AS is listed in rrl_ases, or to every resolver when
  /// rrl_ases is empty.
  nodes::RrlConfig rrl;
  std::vector<netsim::Asn> rrl_ases;

  /// Partial SAV deployment: enable egress SAV on these existing ASes
  /// plus on the first `sav_first_attackers` attacker vantage ASes
  /// (spoofed injections from a SAV-enabled AS die at the source).
  std::vector<netsim::Asn> sav_ases;
  std::uint32_t sav_first_attackers = 0;
};

struct AttackScenarioResult {
  classify::AmplificationReport report;
  std::vector<scan::Injection> injections;
  std::vector<scan::Reflection> reflections;
  /// Attacker vantage ASes in attachment order (the subset
  /// sav_first_attackers counts over).
  std::vector<netsim::Asn> attacker_ases;
  /// RRL verdicts summed over every deployed resolver.
  nodes::RrlStats rrl;
  /// Packet-plane counter delta over the attack phase (dropped_sav
  /// counts the injections SAV killed at attacker ASes).
  netsim::SimCounters counters;
};

/// Runs the campaign against the censused world: plants the large TXT
/// rrset in the scan zone, attaches attacker/victim vantage networks,
/// applies the configured RRL/SAV toggles, injects one spoofed query
/// per (victim, transparent forwarder) pair, and aggregates the
/// amplification tables. Mutates the census's world (vantages, zone
/// data, defense toggles) — rebuild the census for an independent
/// scenario.
[[nodiscard]] AttackScenarioResult run_attack_scenario(
    CensusResult& census, const AttackScenarioConfig& cfg);

/// Resolver ASes by reflected volume, descending (ties toward the
/// lower ASN; the unmapped bucket excluded) — the "where to deploy
/// RRL first" ranking.
[[nodiscard]] std::vector<netsim::Asn> top_resolver_ases(
    const classify::AmplificationReport& report, std::size_t n);

struct DefenseSweepRow {
  std::string label;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_reflected = 0;
  std::uint64_t responses = 0;
  std::uint64_t truncated = 0;
  double factor = 0.0;
  /// Fraction of the baseline row's reflected bytes this deployment
  /// removed (0 for the baseline itself).
  double removed_vs_baseline = 0.0;
};

/// "How much attack volume does deploying RRL at the top-N resolver
/// ASes remove?" — row 0 is the undefended baseline (which also ranks
/// the ASes); one row per requested N. Every row rebuilds the world
/// from `census_cfg` (fresh caches, fresh counters), so rows are
/// independent, deterministic, and shard-count-invariant.
[[nodiscard]] std::vector<DefenseSweepRow> sweep_rrl_deployment(
    const CensusConfig& census_cfg, const AttackScenarioConfig& attack,
    const std::vector<std::size_t>& top_n);

/// Partial SAV deployment sweep: row k enables egress SAV at the first
/// k attacker ASes (k = 0..attackers), starving their spoofed
/// injections at the source.
[[nodiscard]] std::vector<DefenseSweepRow> sweep_sav_deployment(
    const CensusConfig& census_cfg, const AttackScenarioConfig& attack);

}  // namespace odns::core

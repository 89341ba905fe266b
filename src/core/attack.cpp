#include "core/attack.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace odns::core {

namespace {

netsim::SimCounters operator-(const netsim::SimCounters& a,
                              const netsim::SimCounters& b) {
  netsim::SimCounters d;
  d.sent = a.sent - b.sent;
  d.delivered = a.delivered - b.delivered;
  d.dropped_sav = a.dropped_sav - b.dropped_sav;
  d.dropped_loss = a.dropped_loss - b.dropped_loss;
  d.dropped_no_route = a.dropped_no_route - b.dropped_no_route;
  d.ttl_expired = a.ttl_expired - b.ttl_expired;
  d.icmp_generated = a.icmp_generated - b.icmp_generated;
  d.redirected = a.redirected - b.redirected;
  return d;
}

/// Deterministic filler for the planted TXT rrset, chunked to the
/// 255-octet character-string limit.
std::vector<std::string> amp_txt_strings(std::size_t bytes) {
  static constexpr char kPattern[] = "odns-amplification-study-payload/";
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

DefenseSweepRow row_from(std::string label, const AttackScenarioResult& r) {
  DefenseSweepRow row;
  row.label = std::move(label);
  row.bytes_sent = r.report.total_bytes_sent;
  row.bytes_reflected = r.report.total_bytes_reflected;
  row.responses = r.report.total_responses;
  row.truncated = r.report.total_truncated;
  row.factor = r.report.overall_factor();
  return row;
}

void fill_removed(std::vector<DefenseSweepRow>& rows) {
  if (rows.empty() || rows.front().bytes_reflected == 0) return;
  const double base = static_cast<double>(rows.front().bytes_reflected);
  for (auto& row : rows) {
    row.removed_vs_baseline =
        1.0 - static_cast<double>(row.bytes_reflected) / base;
  }
}

}  // namespace

AttackScenarioResult run_attack_scenario(CensusResult& census,
                                         const AttackScenarioConfig& cfg) {
  topo::Deployment& world = *census.world;
  auto& sim = world.sim();
  auto& net = sim.net();

  // The large-response name: a fat TXT rrset under the scan zone, so
  // resolvers iterate the existing hierarchy (root -> TLD -> scan
  // auth) and cache it like any other name.
  const auto amp_name = world.scan_name().prepend("amp");
  if (!amp_name) throw std::runtime_error("attack: cannot derive amp name");
  nodes::Zone* zone = world.auth().zone_for_mutable(*amp_name);
  if (zone == nullptr) {
    throw std::runtime_error("attack: no zone serves the amp name");
  }
  if (zone->find(dnswire::wire_key(*amp_name, dnswire::RrType::txt)) ==
      nullptr) {
    zone->add_record(dnswire::ResourceRecord::txt(
        *amp_name, amp_txt_strings(cfg.amp_txt_bytes), zone->default_ttl));
  }

  // Victim and attacker vantage networks. Blocks are carved from
  // 198.18.0.0/16 well away from the prefixes tests/examples use for
  // campaign vantages; the capture fleet lives in 198.19.0.0/16.
  scan::AmplificationConfig ac;
  ac.qname = *amp_name;
  ac.qtype = cfg.qtype;
  ac.probes_per_second = cfg.probes_per_second;
  ac.settle = cfg.settle;
  scan::AmplificationCampaign campaign(sim, ac);

  for (std::uint32_t i = 0; i < cfg.victims; ++i) {
    const util::Ipv4 base{198, 18, static_cast<std::uint8_t>(200 + i), 0};
    const util::Ipv4 addr{base.value() + kCampaignVantageHostOffset};
    const auto host = honeypot::attach_vantage(world, util::Prefix{base, 24},
                                               addr, /*sav=*/true);
    campaign.add_victim(host, addr);
  }
  AttackScenarioResult result;
  for (std::uint32_t i = 0; i < cfg.attackers; ++i) {
    const util::Ipv4 base{198, 18, static_cast<std::uint8_t>(240 + i), 0};
    const util::Ipv4 addr{base.value() + kCampaignVantageHostOffset};
    const auto host = honeypot::attach_vantage(world, util::Prefix{base, 24},
                                               addr, /*sav=*/false);
    campaign.add_attacker(host);
    result.attacker_ases.push_back(net.host(host).asn);
  }

  // Defense toggles. Both mutate per-packet-checked state only, so
  // applying them between runs is safe.
  std::vector<netsim::Asn> sav_targets = cfg.sav_ases;
  for (std::uint32_t i = 0;
       i < cfg.sav_first_attackers && i < result.attacker_ases.size(); ++i) {
    sav_targets.push_back(result.attacker_ases[i]);
  }
  for (const auto asn : sav_targets) {
    if (auto* as_info = net.find_as_mutable(asn)) {
      as_info->cfg.source_address_validation = true;
    }
  }
  if (cfg.rrl.rate > 0) {
    const std::unordered_set<netsim::Asn> rrl_set(cfg.rrl_ases.begin(),
                                                  cfg.rrl_ases.end());
    for (auto& resolver : world.resolvers_) {
      const auto asn = net.host(resolver->host()).asn;
      if (rrl_set.empty() || rrl_set.contains(asn)) {
        resolver->set_rrl(cfg.rrl);
      }
    }
  }

  // Reflectors: the transparent forwarders this census discovered.
  std::vector<util::Ipv4> reflectors;
  for (const auto& item : census.classified) {
    if (item.klass == classify::Klass::transparent_forwarder) {
      reflectors.push_back(item.txn.target);
      if (cfg.max_reflectors != 0 && reflectors.size() >= cfg.max_reflectors) {
        break;
      }
    }
  }

  const netsim::SimCounters before = sim.counters();
  campaign.start(reflectors);
  campaign.run_to_completion();
  result.counters = sim.counters() - before;

  result.injections = campaign.injections();
  result.reflections = campaign.merged_reflections();
  result.report = classify::amplification_report(
      result.injections, result.reflections, census.registry);
  for (const auto& resolver : world.resolvers_) {
    if (const auto* rrl = resolver->rrl()) result.rrl += rrl->stats();
  }
  return result;
}

std::vector<netsim::Asn> top_resolver_ases(
    const classify::AmplificationReport& report, std::size_t n) {
  std::vector<classify::ResolverAsAmplification> rows;
  for (const auto& row : report.by_resolver_as) {
    if (row.asn != 0) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) {
              if (a.bytes_reflected != b.bytes_reflected) {
                return a.bytes_reflected > b.bytes_reflected;
              }
              return a.asn < b.asn;
            });
  if (rows.size() > n) rows.resize(n);
  std::vector<netsim::Asn> ases;
  ases.reserve(rows.size());
  for (const auto& row : rows) ases.push_back(row.asn);
  return ases;
}

std::vector<DefenseSweepRow> sweep_rrl_deployment(
    const CensusConfig& census_cfg, const AttackScenarioConfig& attack,
    const std::vector<std::size_t>& top_n) {
  std::vector<DefenseSweepRow> rows;

  AttackScenarioConfig baseline_cfg = attack;
  baseline_cfg.rrl.rate = 0;
  baseline_cfg.rrl_ases.clear();
  CensusResult baseline_census = run_census(census_cfg);
  const auto baseline = run_attack_scenario(baseline_census, baseline_cfg);
  rows.push_back(row_from("baseline", baseline));

  for (const std::size_t n : top_n) {
    AttackScenarioConfig cfg = attack;
    cfg.rrl_ases = top_resolver_ases(baseline.report, n);
    CensusResult census = run_census(census_cfg);
    const auto result = run_attack_scenario(census, cfg);
    rows.push_back(row_from("rrl@top-" + std::to_string(n), result));
  }
  fill_removed(rows);
  return rows;
}

std::vector<DefenseSweepRow> sweep_sav_deployment(
    const CensusConfig& census_cfg, const AttackScenarioConfig& attack) {
  std::vector<DefenseSweepRow> rows;
  for (std::uint32_t k = 0; k <= attack.attackers; ++k) {
    AttackScenarioConfig cfg = attack;
    cfg.sav_first_attackers = k;
    CensusResult census = run_census(census_cfg);
    const auto result = run_attack_scenario(census, cfg);
    rows.push_back(
        row_from("sav@" + std::to_string(k) + "-attacker-ases", result));
  }
  fill_removed(rows);
  return rows;
}

}  // namespace odns::core

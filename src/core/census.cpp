#include "core/census.hpp"

#include <unordered_set>

namespace odns::core {

namespace {

/// Seals the degradation report once the census tables are final:
/// population totals from the class counters, per-AS gaps from the
/// coverage map, scanner stats and packet-plane counters from the run.
DegradationReport degradation_of(const CensusResult& result,
                                 const scan::ScannerStats& scan_stats) {
  DegradationReport report;
  const classify::Census& census = result.census;
  report.targets_probed = census.rr + census.rf + census.tf + census.invalid +
                          census.unresponsive;
  report.targets_answered = report.targets_probed - census.unresponsive;
  report.ases_probed = census.coverage_by_asn.size();
  for (const auto& [asn, cov] : census.coverage_by_asn) {
    if (cov.answered < cov.probed) ++report.ases_degraded;
    if (cov.answered == 0) ++report.ases_dark;
  }
  report.scan = scan_stats;
  const auto& sim = result.world->sim();
  report.trace_dropped = sim.trace_dropped();
  report.net = sim.counters();
  return report;
}

}  // namespace

CensusResult run_census(const CensusConfig& cfg) {
  CensusResult result;
  topo::TopologyConfig topology = cfg.topology;
  if (cfg.sim_shards > 0) topology.sim.shards = cfg.sim_shards;
  result.world = topo::TopologyBuilder::build(topology);
  result.registry =
      registry::RegistrySnapshot::derive(*result.world, cfg.registry);
  auto& sim = result.world->sim();

  const std::vector<util::Ipv4> targets = result.world->scan_targets();
  if (sim.shard_count() > 1) {
    // Balance the AS partition by expected event load: the dominant
    // per-shard cost of a census is serving + capturing its probe
    // targets, and a forwarder target counts double — it relays the
    // probe upstream, so its virtual shard executes the relay leg on
    // top of the delivery leg.
    std::vector<std::uint64_t> weights(netsim::Simulator::kVirtualShards, 0);
    for (const auto& gt : result.world->ground_truth()) {
      weights[sim.virtual_shard_of_as(gt.asn)] +=
          gt.kind == topo::OdnsKind::recursive_resolver ? 1 : 2;
    }
    sim.set_partition_load_hints(std::move(weights));
  }

  scan::ScanConfig sc;
  sc.qname = result.world->scan_name();
  sc.timeout = cfg.scan_timeout;
  sc.probes_per_second = cfg.probes_per_second;
  sc.shard_interleave = true;
  sc.max_retries = cfg.scan_max_retries;
  sc.backoff_base = cfg.scan_retry_backoff;

  classify::ClassifyConfig cc;
  cc.control_addr = result.world->control_addr();
  cc.strict_two_records = cfg.strict_validation;

  result.vantage_set = std::make_unique<scan::VantageSet>(
      sim, sc, result.world->scanner_addr(),
      honeypot::attach_capture_vantages(*result.world, sim.shard_count()));
  scan::VantageSet& scanner = *result.vantage_set;
  scanner.start(targets);

  // Each transaction is classified and folded into the census tables
  // as the correlator finalizes it; the per-probe logs are only kept
  // on request.
  classify::CensusAccumulator acc(result.registry);
  if (cfg.retain_transactions) {
    result.transactions.reserve(targets.size());
    result.classified.reserve(targets.size());
  }
  result.stream_stats = scanner.run_and_correlate_streaming(
      cfg.correlate_flush, [&](std::size_t, scan::Transaction&& txn) {
        classify::Classified item;
        item.klass = classify::classify_one(txn, cc);
        item.txn = std::move(txn);
        acc.add(item);
        if (cfg.retain_transactions) {
          result.transactions.push_back(item.txn);
          result.classified.push_back(std::move(item));
        }
      });
  result.census = acc.finish();
  result.degradation = degradation_of(result, scanner.stats());
  return result;
}

classify::Census reanalyze(const CensusResult& result,
                           bool strict_validation) {
  classify::ClassifyConfig cc;
  cc.control_addr = result.world->control_addr();
  cc.strict_two_records = strict_validation;
  const auto classified = classify::classify_all(result.transactions, cc);
  return classify::analyze(classified, result.registry);
}

std::unique_ptr<scan::StatelessCampaign> run_campaign(
    topo::Deployment& world, scan::CampaignKind kind, util::Prefix vantage,
    const std::vector<util::Ipv4>& targets) {
  const util::Ipv4 host_addr{vantage.base().value() +
                             kCampaignVantageHostOffset};
  const auto host = honeypot::attach_vantage(world, vantage, host_addr);
  scan::CampaignConfig cc;
  cc.kind = kind;
  cc.qname = world.scan_name();
  auto campaign =
      std::make_unique<scan::StatelessCampaign>(world.sim(), host, cc);
  campaign->run(targets);
  return campaign;
}

std::map<std::string, std::uint64_t> campaign_country_counts(
    const scan::StatelessCampaign& campaign,
    const registry::RegistrySnapshot& registry) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& addr : campaign.discovered()) {
    if (auto country = registry.country_of(addr)) {
      ++counts[*country];
    }
  }
  return counts;
}

std::vector<util::Ipv4> transparent_forwarders(const CensusResult& result) {
  std::unordered_set<util::Ipv4> found;
  for (const auto& item : result.classified) {
    if (item.klass == classify::Klass::transparent_forwarder) {
      found.insert(item.txn.target);
    }
  }
  std::vector<util::Ipv4> out;
  out.reserve(found.size());
  for (const auto& gt : result.world->ground_truth()) {
    if (found.contains(gt.addr)) out.push_back(gt.addr);
  }
  return out;
}

DnsrouteResult run_dnsroute(CensusResult& result, int max_ttl) {
  const std::vector<util::Ipv4> targets = transparent_forwarders(result);
  dnsroute::DnsrouteConfig rc;
  rc.qname = result.world->scan_name();
  rc.max_ttl = max_ttl;
  DnsrouteResult out;
  {
    // DNSRoute++ traces from the scanner host itself, so its probes'
    // responses (and ICMP) must reach that host again — turn off the
    // capture override for the remainder of the run.
    auto& sim = result.world->sim();
    const netsim::HostId host = result.world->scanner_host();
    sim.clear_vantage_capture();
    dnsroute::DnsroutePlusPlus tracer(sim, host, rc);
    out.paths = tracer.run(targets);
    // The tracer borrowed the scanner host's wildcard socket and ICMP
    // sink; release both before it goes out of scope.
    sim.set_icmp_handler(host, {});
    sim.bind_udp_wildcard(host, nullptr);
  }
  out.samples = dnsroute::path_length_samples(out.paths, result.registry);
  out.relationships =
      dnsroute::infer_relationships(out.paths, result.registry);
  return out;
}

}  // namespace odns::core

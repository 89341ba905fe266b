#pragma once
// The paper's measurement system as a product: one call builds the
// world, runs the transactional scan, correlates, classifies, joins
// with the registries, and returns every analysis surface the paper's
// tables and figures draw from. Step-wise entry points are exposed for
// benches that need intermediate control (method ablations, campaign
// comparisons, DNSRoute++).
//
// Pipeline: topo::TopologyBuilder → scan::VantageSet (one capture
// vantage per shard) → scan::StreamingCorrelator →
// classify::classify_one → classify::CensusAccumulator (registry
// joins) → classify::Census; see "The census pipeline" in
// docs/architecture.md.

#include <memory>

#include "classify/analysis.hpp"
#include "dnsroute/dnsroute.hpp"
#include "honeypot/lab.hpp"
#include "scan/campaigns.hpp"
#include "scan/vantage.hpp"
#include "topo/deployment.hpp"

namespace odns::core {

struct CensusConfig {
  topo::TopologyConfig topology;
  registry::SnapshotConfig registry;
  util::Duration scan_timeout = util::Duration::seconds(20);
  std::uint64_t probes_per_second = 20000;
  /// Strict two-record validation (this work) vs. single-record
  /// (Shadowserver-style) — the §4.2 ablation.
  bool strict_validation = true;
  /// Event-engine shards for the simulated world (> 0 overrides
  /// topology.sim.shards; 0 keeps it). N > 1 runs the census on N
  /// worker threads with byte-identical results — see "Sharded
  /// execution" in docs/architecture.md.
  std::uint32_t sim_shards = 0;
  /// No-op (the benchmark sets it): targets are always interleaved.
  bool shard_interleaved_targets = false;
  /// No-op (the benchmark sets it): one capture vantage per shard.
  std::uint32_t vantages = 0;
  /// No-op (the benchmark sets it): correlation always streams.
  bool streaming_correlation = false;
  /// Flush window of the streaming correlator: the simulator runs in
  /// these windows and each probe is finalized as its timeout window
  /// closes, so steady-state memory is bounded by the in-flight window,
  /// not the run length. Must be positive (run_census throws
  /// std::invalid_argument otherwise).
  util::Duration correlate_flush = util::Duration::seconds(1);
  /// Keep the per-probe transactions/classified vectors in the result.
  /// Million-host runs turn this off: the Census tables are the
  /// product, and the O(targets) logs are the last per-probe state.
  bool retain_transactions = true;
  /// Per-probe retransmissions under adverse networks (see
  /// scan::ScanConfig::max_retries): each unanswered probe is resent
  /// up to this many times with exponential backoff. 0 = classic
  /// single-shot census. Retries are unconditional (zmap -P style), so
  /// the schedule — and with it the census — is shard-count-invariant.
  std::uint32_t scan_max_retries = 0;
  /// Backoff base: retry k lands backoff * (2^k - 1) after the
  /// original send.
  util::Duration scan_retry_backoff = util::Duration::seconds(1);
};

/// Host offset inside a campaign's vantage prefix (the address the
/// campaign host binds: prefix base + offset). Previously a magic `+7`
/// in run_campaign.
inline constexpr std::uint32_t kCampaignVantageHostOffset = 7;

/// Graceful-degradation accounting of one census run: how much of the
/// target population actually answered, which ASes degraded or went
/// dark, and the fault/retry counters explaining why. Populated on
/// every run (all zero-gap on a fault-free world) — the comparison
/// surface for retry sweeps and the chaos harness.
struct DegradationReport {
  /// Probe targets (census rows) and how many produced any response.
  std::uint64_t targets_probed = 0;
  std::uint64_t targets_answered = 0;
  /// ASes with probed targets; of those, ASes that lost at least one
  /// answer, and ASes that lost every answer.
  std::uint64_t ases_probed = 0;
  std::uint64_t ases_degraded = 0;
  std::uint64_t ases_dark = 0;
  /// Aggregated scanner statistics (sent/retried/duplicate/late/...).
  scan::ScannerStats scan;
  /// Trace records dropped by the per-shard trace cap.
  std::uint64_t trace_dropped = 0;
  /// Packet-plane counters (loss, outage, jitter, corruption, ...).
  netsim::SimCounters net;

  /// Fraction of probed targets that answered (1.0 when none probed).
  [[nodiscard]] double coverage() const {
    return targets_probed == 0
               ? 1.0
               : static_cast<double>(targets_answered) /
                     static_cast<double>(targets_probed);
  }
};

struct CensusResult {
  std::unique_ptr<topo::Deployment> world;
  registry::RegistrySnapshot registry;
  /// The capture set that ran the scan.
  std::unique_ptr<scan::VantageSet> vantage_set;
  /// Per-probe logs in probe (pacing) order — the order the correlator
  /// finalized them, not target order; empty when retain_transactions
  /// is off. transparent_forwarders() gives the TFs in target order.
  std::vector<scan::Transaction> transactions;
  std::vector<classify::Classified> classified;
  classify::Census census;
  /// Memory high-water marks of the streaming correlator.
  scan::VantageSet::StreamStats stream_stats;
  /// Coverage and fault accounting for this run.
  DegradationReport degradation;
};

/// Full pipeline: topology → scan → correlate → classify → analyze.
[[nodiscard]] CensusResult run_census(const CensusConfig& cfg);

/// The transparent forwarders the census classified, in target order
/// (world->ground_truth() / scan_targets()), independent of the probe
/// order. Empty when retain_transactions was off.
[[nodiscard]] std::vector<util::Ipv4> transparent_forwarders(
    const CensusResult& result);

/// Re-classifies and re-analyzes an existing scan under different
/// validation rules (cheap; reuses the transaction log, which is
/// vantage-invariant).
[[nodiscard]] classify::Census reanalyze(const CensusResult& result,
                                         bool strict_validation);

/// Runs a stateless campaign model against the same world from its own
/// vantage network; returns the campaign (with its discovered set).
[[nodiscard]] std::unique_ptr<scan::StatelessCampaign> run_campaign(
    topo::Deployment& world, scan::CampaignKind kind, util::Prefix vantage,
    const std::vector<util::Ipv4>& targets);

/// Per-country ODNS counts as the campaign would publish them.
[[nodiscard]] std::map<std::string, std::uint64_t> campaign_country_counts(
    const scan::StatelessCampaign& campaign,
    const registry::RegistrySnapshot& registry);

struct DnsrouteResult {
  std::vector<dnsroute::TracePath> paths;
  std::vector<dnsroute::PathLengthSample> samples;
  dnsroute::AsRelationshipReport relationships;
};

/// DNSRoute++ campaign over all transparent forwarders found by the
/// census, in target order.
[[nodiscard]] DnsrouteResult run_dnsroute(CensusResult& result,
                                          int max_ttl = 30);

}  // namespace odns::core

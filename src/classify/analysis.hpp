#pragma once
// Aggregation of classified transactions into the paper's analyses:
// per-country composition (Fig. 3/4, Table 5), resolver-project
// attribution and indirect consolidation (Fig. 5, Table 4), /24
// population density (Fig. 8), device attribution and AS
// classification (§6, Appendix E). All joins go through the registry
// snapshot — never ground truth — mirroring the real pipeline.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "classify/classify.hpp"
#include "registry/registry.hpp"

namespace odns::classify {

/// Well-known service addresses of the big public resolver projects
/// (operator-published constants).
[[nodiscard]] std::optional<topo::ResolverProject> project_of_service_addr(
    util::Ipv4 addr);

constexpr std::size_t project_index(topo::ResolverProject p) {
  return static_cast<std::size_t>(p);
}
inline constexpr std::size_t kProjectCount = 5;  // google..other

struct CountryReport {
  std::string code;
  std::uint64_t rr = 0;
  std::uint64_t rf = 0;
  std::uint64_t tf = 0;
  std::uint64_t invalid = 0;
  std::uint64_t unresponsive = 0;
  /// Transparent forwarders by the project of the response source.
  std::array<std::uint64_t, kProjectCount> tf_by_project{};
  /// Of the "other"-project TFs: responses whose A_resolver maps into
  /// a big-4 AS (indirect consolidation) vs. mapped at all.
  std::uint64_t other_indirect = 0;
  std::uint64_t other_mapped = 0;
  /// Response-source ASNs of "other" TFs (Table 4's top-ASN column).
  std::unordered_map<netsim::Asn, std::uint64_t> other_response_asns;
  /// Distinct ASes with at least one transparent forwarder.
  std::uint64_t ases_with_tf = 0;

  [[nodiscard]] std::uint64_t odns_total() const { return rr + rf + tf; }
  [[nodiscard]] double tf_share() const {
    const auto t = odns_total();
    return t == 0 ? 0.0 : static_cast<double>(tf) / static_cast<double>(t);
  }
  [[nodiscard]] std::optional<netsim::Asn> top_other_asn() const;
};

/// Per-AS census coverage: how many targets in the AS were probed and
/// how many answered (any viable or invalid response). The graceful-
/// degradation surface — under adverse-network faults the gap between
/// the two is where the census silently loses hosts, and retries are
/// measured by how much of it they close.
struct AsCoverage {
  std::uint64_t probed = 0;
  std::uint64_t answered = 0;
};

struct Census {
  std::uint64_t rr = 0;
  std::uint64_t rf = 0;
  std::uint64_t tf = 0;
  std::uint64_t invalid = 0;
  std::uint64_t unresponsive = 0;
  std::uint64_t unmapped_country = 0;
  std::map<std::string, CountryReport> by_country;
  /// Probed/answered per origin AS of the target (degradation report).
  std::map<netsim::Asn, AsCoverage> coverage_by_asn;
  std::unordered_map<netsim::Asn, std::uint64_t> tf_by_asn;
  /// Transparent forwarders per covering /24 (keyed by prefix base).
  std::unordered_map<std::uint32_t, std::uint32_t> tf_per_24;
  /// Distinct resolvers observed answering for TFs, with fan-out.
  std::unordered_map<util::Ipv4, std::uint64_t> tf_responses_by_source;

  [[nodiscard]] std::uint64_t odns_total() const { return rr + rf + tf; }

  /// Country reports ordered by transparent-forwarder count, descending.
  [[nodiscard]] std::vector<const CountryReport*> countries_by_tf() const;
  /// Country reports ordered by total ODNS components, descending.
  [[nodiscard]] std::vector<const CountryReport*> countries_by_odns() const;
  [[nodiscard]] std::vector<std::pair<netsim::Asn, std::uint64_t>> top_tf_ases(
      std::size_t n) const;
  /// TF counts per /24, as a plain vector (Fig. 8 input).
  [[nodiscard]] std::vector<std::uint32_t> tf_per_24_counts() const;
  /// Fraction of TFs in /24s populated with at most `limit` TFs.
  [[nodiscard]] double tf_fraction_with_density_at_most(
      std::uint32_t limit) const;
  [[nodiscard]] double tf_fraction_with_density_at_least(
      std::uint32_t limit) const;
};

/// Incremental Census construction for streaming correlation: each
/// finalized transaction is classified and folded into the tables as
/// it arrives (no buffered Classified vector required), and finish()
/// seals the cross-item aggregates (distinct TF ASes per country).
/// Feeding the same items in any order yields the same Census as
/// analyze() — every table update is commutative — so the streaming
/// census is byte-identical to the buffered one.
class CensusAccumulator {
 public:
  explicit CensusAccumulator(const registry::RegistrySnapshot& registry)
      : registry_(&registry) {}

  /// Folds one classified transaction into the census tables.
  void add(const Classified& item);
  /// Seals cross-item aggregates and returns the finished census.
  /// The accumulator is spent afterwards.
  [[nodiscard]] Census finish();
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

 private:
  const registry::RegistrySnapshot* registry_;
  Census census_;
  std::unordered_map<std::string, std::unordered_map<netsim::Asn, bool>>
      country_tf_ases_;
  std::uint64_t consumed_ = 0;
};

/// Runs all registry joins and aggregations over classified scans.
[[nodiscard]] Census analyze(const std::vector<Classified>& classified,
                             const registry::RegistrySnapshot& registry);

/// Order-independent structural digest of every census table (scalars,
/// per-country composition including the project/consolidation
/// columns, TF-by-AS, /24 density, response fan-out) — the goldens'
/// byte-identity oracle across shard counts and thread modes.
[[nodiscard]] std::uint64_t census_fingerprint(const Census& census);

/// Per-vantage composition of a multi-vantage scan: what each capture
/// host observed, by class — the multi-campaign comparison surface
/// (each vantage is an independent concurrent measurement of the same
/// infrastructure; the paper's point is that their union, not any
/// single one, is the census). Vantage attribution is an execution
/// detail (it depends on the shard count), so this is a diagnostic
/// view, never an input to the Census tables. A single-vantage scan
/// yields one row.
struct VantageReport {
  std::uint32_t vantage = 0;
  std::uint64_t rr = 0;
  std::uint64_t rf = 0;
  std::uint64_t tf = 0;
  std::uint64_t invalid = 0;
  std::uint64_t unresponsive = 0;

  [[nodiscard]] std::uint64_t total() const {
    return rr + rf + tf + invalid + unresponsive;
  }
};

[[nodiscard]] std::vector<VantageReport> vantage_breakdown(
    const std::vector<Classified>& classified);

// --- §6 / Appendix E analyses ----------------------------------------

struct DeviceReport {
  std::uint64_t tf_total = 0;
  std::uint64_t fingerprinted = 0;  // hosts with Shodan-style banners
  std::map<std::string, std::uint64_t> by_product;
  std::uint64_t mikrotik = 0;
  std::uint64_t mikrotik_in_full_24 = 0;

  [[nodiscard]] double mikrotik_share_of_fingerprinted() const {
    return fingerprinted == 0 ? 0.0
                              : static_cast<double>(mikrotik) /
                                    static_cast<double>(fingerprinted);
  }
};

/// Port/banner correlation over the transparent-forwarder population
/// (detects MikroTik via the RouterOS port signature).
[[nodiscard]] DeviceReport device_attribution(
    const Census& census, const std::vector<Classified>& classified,
    const registry::RegistrySnapshot& registry);

struct AsClassificationReport {
  std::size_t top_n = 0;
  std::map<topo::AsType, int> by_type;   // via PeeringDB
  int classified_peeringdb = 0;
  int classified_manual = 0;
  int unclassified = 0;
  int eyeball_total = 0;  // PeeringDB + manual, Cable/DSL/ISP
  int wide_asns = 0;      // 32-bit ASNs (RFC 4893)
  double tf_coverage = 0.0;  // share of all TFs inside the top-N ASes
};

/// PeeringDB-first, manual-research-second typing of the top-N ASes by
/// transparent-forwarder count (Appendix E).
[[nodiscard]] AsClassificationReport classify_ases(
    const Census& census, const registry::RegistrySnapshot& registry,
    std::size_t top_n = 100);

}  // namespace odns::classify

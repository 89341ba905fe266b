#pragma once
// The built world: a Simulator wired with the full ODNS population
// (recursive resolvers, recursive forwarders, transparent forwarders),
// the public resolver anycast deployments, national resolvers, the DNS
// hierarchy (root / TLD / scan-zone authoritative), and the scanner
// vantage point — plus the ground truth the evaluation compares
// against and attribution tables (service address → project, ASN →
// project / country / type).

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dnswire/name.hpp"
#include "netsim/sim.hpp"
#include "nodes/auth_server.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/forwarder_bank.hpp"
#include "nodes/resolver.hpp"
#include "topo/model.hpp"

namespace odns::topo {

struct PublicResolverPop {
  ResolverProject project = ResolverProject::google;
  netsim::HostId host = netsim::kInvalidHost;
  netsim::Asn asn = 0;
  util::Ipv4 egress;
};

struct TopologyConfig {
  /// Fraction of the paper's April-2021 population to instantiate.
  /// 0.01 keeps every bench under a minute; 0.1 is still practical.
  double scale = 0.01;
  std::uint64_t seed = 42;
  netsim::SimConfig sim;
  bool include_tail_countries = true;
  /// Restrict to the first N profile countries (0 = all); micro
  /// topologies for tests use small N.
  std::size_t max_countries = 0;
  int tier1_count = 8;
  int hubs_per_region = 3;
  /// No effect: every world builds its recursive forwarders as rows of
  /// per-virtual-shard nodes::ForwarderBank instances. Kept only
  /// because benchmark/odns_bench.cpp still sets it.
  bool bulk_population = false;
  /// Multiplies the per-country eyeball AS count (after the sub-linear
  /// scale exponent). Internet-scale worlds use it to push the AS
  /// count to O(10^4) while `scale` controls the host population.
  double eyeball_as_multiplier = 1.0;
};

class Deployment {
 public:
  netsim::Simulator& sim() { return *sim_; }
  const netsim::Simulator& sim() const { return *sim_; }

  // --- measurement infrastructure -----------------------------------
  [[nodiscard]] netsim::HostId scanner_host() const { return scanner_host_; }
  [[nodiscard]] util::Ipv4 scanner_addr() const { return scanner_addr_; }
  [[nodiscard]] const dnswire::Name& scan_name() const { return scan_name_; }
  [[nodiscard]] util::Ipv4 control_addr() const { return control_addr_; }
  [[nodiscard]] util::Ipv4 auth_addr() const { return auth_addr_; }
  [[nodiscard]] util::Ipv4 root_addr() const { return root_addr_; }
  nodes::AuthServer& auth() { return *auth_server_; }

  // --- population ----------------------------------------------------
  [[nodiscard]] const std::vector<GroundTruth>& ground_truth() const {
    return ground_truth_;
  }
  [[nodiscard]] const std::vector<PublicResolverPop>& pops() const {
    return pops_;
  }
  /// Addresses a scanner should probe: every ODNS component address.
  [[nodiscard]] std::vector<util::Ipv4> scan_targets() const;

  // --- attribution (ground-truth side; the registry module derives
  // noisy dump-shaped views of the same data) ------------------------
  [[nodiscard]] std::optional<ResolverProject> project_of_service_addr(
      util::Ipv4 addr) const;
  [[nodiscard]] std::optional<ResolverProject> project_of_asn(
      netsim::Asn asn) const;
  [[nodiscard]] std::string country_of_asn(netsim::Asn asn) const;
  [[nodiscard]] AsType type_of_asn(netsim::Asn asn) const;
  [[nodiscard]] const std::vector<CountryProfile>& profiles_used() const {
    return profiles_used_;
  }

  /// Provider→customer edges as constructed (ground truth for the
  /// AS-relationship-inference experiment).
  [[nodiscard]] const std::vector<std::pair<netsim::Asn, netsim::Asn>>&
  provider_customer_edges() const {
    return provider_customer_;
  }

  /// Aggregate cache behaviour across every deployed resolver —
  /// Table 2's "utilization of caches" metric.
  [[nodiscard]] nodes::CacheStats aggregate_resolver_cache_stats() const;

  [[nodiscard]] const TopologyConfig& config() const { return cfg_; }

  // Implementation detail: the fields below are populated by
  // TopologyBuilder's helper pipeline (builder.cpp). Use the accessors
  // above; the trailing-underscore names are not part of the stable
  // API.
 public:
  TopologyConfig cfg_;
  std::unique_ptr<netsim::Simulator> sim_;

  // Node ownership. Order matters: nodes reference the simulator, so
  // they are declared after it (destroyed first).
  std::vector<std::unique_ptr<nodes::AuthServer>> auth_servers_;
  std::vector<std::unique_ptr<nodes::RecursiveResolver>> resolvers_;
  /// Caching chain relays behind indirect-consolidation transparent
  /// forwarders (at most one per AS).
  std::vector<std::unique_ptr<nodes::RecursiveForwarder>> chain_relays_;
  /// One bank per virtual shard (index = virtual shard; null when the
  /// shard has no recursive forwarder), each serving that shard's
  /// recursive forwarders as dense rows.
  std::vector<std::unique_ptr<nodes::ForwarderBank>> forwarder_banks_;
  std::vector<nodes::TransparentForwarder> transparent_;

  nodes::AuthServer* auth_server_ = nullptr;
  netsim::HostId scanner_host_ = netsim::kInvalidHost;
  util::Ipv4 scanner_addr_;
  dnswire::Name scan_name_;
  util::Ipv4 control_addr_;
  util::Ipv4 auth_addr_;
  util::Ipv4 root_addr_;

  std::vector<GroundTruth> ground_truth_;
  std::vector<PublicResolverPop> pops_;
  std::vector<CountryProfile> profiles_used_;
  std::unordered_map<util::Ipv4, ResolverProject> service_addr_project_;
  std::unordered_map<netsim::Asn, ResolverProject> asn_project_;
  std::unordered_map<netsim::Asn, std::string> asn_country_;
  std::unordered_map<netsim::Asn, AsType> asn_type_;
  std::vector<std::pair<netsim::Asn, netsim::Asn>> provider_customer_;
};

class TopologyBuilder {
 public:
  /// Builds the full world. Deterministic in (cfg.seed, cfg.scale).
  static std::unique_ptr<Deployment> build(const TopologyConfig& cfg);
};

}  // namespace odns::topo

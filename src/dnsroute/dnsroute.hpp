#pragma once
// DNSRoute++ (§5): a traceroute that sends DNS queries and — unlike
// classic traceroute — keeps incrementing the TTL after the target is
// reached. A transparent forwarder's IP stack answers TTL-exceeded when
// the TTL dies on the device, but relays the query onward otherwise, so
// probes with larger TTLs expire *behind* the forwarder and reveal the
// path segment between forwarder and recursive resolver.
//
// Relies on the hop-accurate TTL/ICMP semantics of netsim (sim.hpp);
// docs/architecture.md diagrams the relay behavior being exploited.
//
// Probe matching is arithmetic, with no per-probe table. Probe
// k = target_index * max_ttl + (ttl - 1) is the k-th one sent; it
// leaves from port 1024 + k mod 64512 with txid 1 + k / 64512. A DNS
// answer echoes both, so (port, txid) names exactly one probe. An ICMP
// Time-Exceeded quotes only the offending UDP header (ports, not the
// DNS payload), so it is attributed to the latest probe sent from its
// port. Ports are reused every 64,512 probes (about 1.3 s at the
// default 50k probes/s): an ICMP error slower than that is credited to
// the newer probe on its port, as a port-keyed capture would.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dnswire/arena_codec.hpp"
#include "netsim/sim.hpp"
#include "registry/registry.hpp"

namespace odns::dnsroute {

struct DnsrouteConfig {
  dnswire::Name qname;
  int max_ttl = 30;
  std::uint64_t probes_per_second = 50000;
  util::Duration settle = util::Duration::seconds(10);
};

struct Hop {
  bool responded = false;
  util::Ipv4 addr;  // ICMP Time-Exceeded source for this TTL
};

struct TracePath {
  util::Ipv4 target;
  std::vector<Hop> hops;  // index 0 = TTL 1
  /// TTL at which the target itself answered TTL-exceeded (-1: never).
  int target_distance = -1;
  bool got_answer = false;
  util::Ipv4 resolver;  // DNS answer source (the forwarder's resolver)
  int answer_ttl = -1;  // smallest TTL that produced a DNS answer

  /// IP hops from the transparent forwarder to its resolver, counting
  /// the resolver itself (Fig. 6 metric).
  [[nodiscard]] int forwarder_to_resolver_hops() const {
    if (target_distance < 0 || answer_ttl < 0) return -1;
    return answer_ttl - target_distance;
  }

  /// Sanitization (§5): the path is usable when the target was seen,
  /// an answer arrived, and no hop before the answer is missing
  /// (loss/churn produce gaps, which would corrupt hop counts).
  [[nodiscard]] bool complete() const;

  /// Ordered ICMP hop addresses up to (excluding) the answer TTL.
  [[nodiscard]] std::vector<util::Ipv4> hop_addrs() const;
};

class DnsroutePlusPlus : public netsim::App, public netsim::TimerTarget {
 public:
  DnsroutePlusPlus(netsim::Simulator& sim, netsim::HostId host,
                   DnsrouteConfig cfg);

  /// Probes every target at TTL 1..max_ttl and runs the simulator
  /// until all probes are answered or settled. Throws
  /// std::invalid_argument when targets × max_ttl exceeds the
  /// 64,512 × 65,535 distinct (port, txid) tuples.
  std::vector<TracePath> run(const std::vector<util::Ipv4>& targets);

  void on_datagram(const netsim::Datagram& dgram) override;
  /// Probe-pacing timer: `k` is the index of the probe to emit.
  void on_timer(std::uint64_t k, std::uint64_t) override;

 private:
  void on_icmp(const netsim::Packet& pkt);
  /// The probe k matches, or nullopt when k is not yet sent.
  [[nodiscard]] std::optional<std::pair<std::size_t, int>> probe(
      std::uint64_t k) const;

  netsim::Simulator* sim_;
  netsim::HostId host_;
  DnsrouteConfig cfg_;
  dnswire::QueryTemplate query_;  // cfg_.qname/A, encoded once
  std::vector<TracePath> paths_;
  /// Probes sent so far in this run: probe k is sent k-th, so the
  /// latest one is sent_ - 1.
  std::uint64_t sent_ = 0;
  util::SimTime last_send_at_;
  dnswire::WireArena rx_arena_;  // decode_into target, reset per datagram
};

// --- Path analyses -----------------------------------------------------

struct PathLengthSample {
  topo::ResolverProject project;
  netsim::Asn forwarder_asn = 0;
  int hops = 0;
};

/// Fig. 6 input: per-project forwarder→resolver hop counts for all
/// complete paths whose resolver belongs to a big project.
[[nodiscard]] std::vector<PathLengthSample> path_length_samples(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry);

struct AsRelationshipReport {
  std::uint64_t paths_considered = 0;
  std::uint64_t paths_with_as_mapping = 0;
  std::uint64_t as_in_equals_as_out = 0;   // §5: 62% of usable paths
  std::uint64_t inferred_provider_customer = 0;
  std::uint64_t unknown_to_caida = 0;      // §5: 41 new relationships
};

/// Infers provider→customer edges: when the AS before and after the
/// forwarder coincide, that AS must be the forwarder AS's provider
/// (the scanner is outside its customer cone).
[[nodiscard]] AsRelationshipReport infer_relationships(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry);

}  // namespace odns::dnsroute

#pragma once
// Reflective-amplification campaign model ("Forward to Hell?" follow-up
// threat): attackers inject DNS queries with the *victim's* spoofed
// source address toward transparent forwarders, which relay them to
// open resolvers; the resolvers' (large, e.g. TXT) responses land on
// the victim. The campaign records every injection and, through a
// wildcard meter bound on each victim host, every reflected datagram —
// the raw material for classify's per-victim / per-resolver-AS
// amplification tables.
//
// Determinism contract: the injection schedule is materialized up
// front and paced by shard-affine timer runs; on_timer only stamps the
// txid into the encoded query and sends (no shared mutable state), so
// multiple attackers on different shards never race. Each victim's
// meter is touched only by the shard owning the victim host;
// merged_reflections() orders the union by (time, content), which is
// invariant across shard counts.

#include <cstdint>
#include <memory>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "dnswire/name.hpp"
#include "dnswire/types.hpp"
#include "netsim/sim.hpp"
#include "util/time.hpp"

namespace odns::scan {

struct AmplificationConfig {
  /// Query name with a large answer (e.g. amp.scan.<zone> carrying a
  /// fat TXT rrset) and the large-response query type.
  dnswire::Name qname;
  dnswire::RrType qtype = dnswire::RrType::txt;
  std::uint64_t probes_per_second = 20000;
  /// Window run_to_completion() keeps simulating after the last
  /// injection so recursion + reflections settle.
  util::Duration settle = util::Duration::seconds(20);
  std::uint16_t port_base = 20000;
  std::uint16_t port_limit = 60000;
};

/// One spoofed query as injected by an attacker.
struct Injection {
  util::Ipv4 victim;     // spoofed source address
  util::Ipv4 reflector;  // destination (transparent forwarder)
  netsim::HostId attacker = netsim::kInvalidHost;
  netsim::Asn attacker_as = 0;
  std::uint16_t src_port = 0;
  std::uint16_t txid = 0;
  std::uint64_t bytes = 0;  // query wire size
  util::SimTime at;         // scheduled injection instant
};

/// One datagram arriving at a victim (a reflected response). The
/// reflection's dst_port equals the matching injection's src_port —
/// the join key the differential tests rely on.
struct Reflection {
  util::Ipv4 victim;
  util::Ipv4 src;  // resolver service/egress address
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t bytes = 0;
  bool truncated = false;  // TC=1 (RRL slip stub)
  util::SimTime at;
};

/// Wildcard sink on a victim host counting everything that lands there.
class VictimMeter : public netsim::App {
 public:
  VictimMeter(netsim::Simulator& sim, util::Ipv4 victim)
      : sim_(&sim), victim_(victim) {}

  void on_datagram(const netsim::Datagram& dgram) override;

  [[nodiscard]] util::Ipv4 victim() const { return victim_; }
  [[nodiscard]] const std::vector<Reflection>& records() const {
    return records_;
  }

 private:
  netsim::Simulator* sim_;
  util::Ipv4 victim_;
  std::vector<Reflection> records_;
  dnswire::WireArena rx_arena_;  // decode_into target, reset per datagram
};

class AmplificationCampaign : public netsim::TimerTarget {
 public:
  AmplificationCampaign(netsim::Simulator& sim, AmplificationConfig cfg);

  /// Adds an injection source. The host's AS should have SAV disabled
  /// (spoofed packets are dropped at the origin AS otherwise — which
  /// is exactly what the SAV deployment sweep measures).
  void add_attacker(netsim::HostId host);
  /// Adds a spoof target and binds its meter (wildcard) on `host`.
  void add_victim(netsim::HostId host, util::Ipv4 addr);

  /// Builds and schedules the paced injection plan: one spoofed query
  /// per (victim, reflector) pair, attackers round-robin. Call
  /// run_to_completion() (or drive the simulator manually) afterwards.
  void start(const std::vector<util::Ipv4>& reflectors);
  void run_to_completion();

  void on_timer(std::uint64_t injection_index, std::uint64_t) override;

  [[nodiscard]] const std::vector<Injection>& injections() const {
    return injections_;
  }
  /// Every victim's capture log merged and sorted by (time, content) —
  /// the shard-count-invariant reflection record.
  [[nodiscard]] std::vector<Reflection> merged_reflections() const;
  [[nodiscard]] util::SimTime last_send_at() const { return last_send_at_; }

 private:
  struct VictimSlot {
    netsim::HostId host = netsim::kInvalidHost;
    std::unique_ptr<VictimMeter> meter;
  };

  netsim::Simulator* sim_;
  AmplificationConfig cfg_;
  /// cfg_'s query, encoded once; each injection stamps its txid.
  dnswire::QueryTemplate query_;
  std::vector<netsim::HostId> attackers_;
  std::vector<VictimSlot> victims_;
  std::vector<Injection> injections_;
  util::SimTime last_send_at_;
};

}  // namespace odns::scan

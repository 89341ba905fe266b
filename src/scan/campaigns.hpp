#pragma once
// Models of the popular scanning campaigns the paper's controlled
// experiment evaluates (§3). All three send single-packet probes and
// analyze responses *statelessly* — they never correlate a response
// with the probe that triggered it. They differ in how they sanitize:
//
//   Shadowserver — reports every distinct response source address.
//                  A transparent forwarder therefore shows up as "the
//                  resolver answered", collapsing thousands of
//                  forwarders into one resolver IP.
//   Censys/Shodan — additionally drop responses whose source does not
//                  match a probed target, so off-path answers vanish
//                  entirely.
//
// The transactional scanner (scan::VantageSet, vantage.hpp) is this
// work's contrast.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "netsim/sim.hpp"

namespace odns::scan {

enum class CampaignKind : std::uint8_t { shadowserver, censys, shodan };

std::string to_string(CampaignKind k);

struct CampaignConfig {
  CampaignKind kind = CampaignKind::shadowserver;
  dnswire::Name qname;
  dnswire::RrType qtype = dnswire::RrType::a;
  std::uint64_t probes_per_second = 20000;
  util::Duration settle = util::Duration::seconds(25);
  /// Ephemeral source-port pool [port_base, port_limit]; wraps back to
  /// port_base when exhausted (previously hard-coded 2048/65000).
  std::uint16_t port_base = 2048;
  std::uint16_t port_limit = 65000;
};

class StatelessCampaign : public netsim::App, public netsim::TimerTarget {
 public:
  StatelessCampaign(netsim::Simulator& sim, netsim::HostId host,
                    CampaignConfig cfg);

  /// Probes every target, waits for the settle window.
  void run(const std::vector<util::Ipv4>& targets);

  /// The campaign's published view: addresses it believes are ODNS
  /// speakers.
  [[nodiscard]] const std::unordered_set<util::Ipv4>& discovered() const {
    return discovered_;
  }
  [[nodiscard]] bool has_discovered(util::Ipv4 addr) const {
    return discovered_.contains(addr);
  }
  [[nodiscard]] std::uint64_t responses_seen() const { return responses_; }
  [[nodiscard]] std::uint64_t responses_dropped_sanitize() const {
    return dropped_sanitize_;
  }

  void on_datagram(const netsim::Datagram& dgram) override;
  /// Probe-pacing timer: `target_bits` is the probe target's address.
  void on_timer(std::uint64_t target_bits, std::uint64_t) override;

 private:
  void send_probe(util::Ipv4 target);

  netsim::Simulator* sim_;
  netsim::HostId host_;
  CampaignConfig cfg_;
  /// Ephemeral source port → probed target. Censys/Shodan-style
  /// sanitization compares a response's source with the target probed
  /// from that socket.
  std::unordered_map<std::uint16_t, util::Ipv4> probe_target_by_port_;
  std::unordered_set<util::Ipv4> discovered_;
  std::uint64_t responses_ = 0;
  std::uint64_t dropped_sanitize_ = 0;
  std::uint16_t next_port_;  // starts at cfg_.port_base
  std::uint16_t next_txid_ = 1;
  util::SimTime last_send_at_;
  dnswire::WireArena rx_arena_;  // decode_into target, reset per datagram
};

}  // namespace odns::scan

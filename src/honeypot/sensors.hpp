#pragma once
// The three ODNS honeypot sensors of the controlled experiment (§3.1).
// All resolve through a public resolver and rate-limit to one answer
// per source /24 per window (anti-amplification):
//
//   Sensor 1 "recursive resolver": answers from the address the query
//            arrived on — every viable campaign must find it.
//   Sensor 2 "interior transparent forwarder": receives on IP_a but
//            answers from IP_b in the same /24 — mimics the key
//            observable (response source ≠ probed address) without
//            needing a spoofing-capable network.
//   Sensor 3 "exterior transparent forwarder": relays the query to the
//            public resolver with the client's source address spoofed;
//            the sensor never sees the answer.

#include <memory>
#include <optional>
#include <unordered_map>

#include "nodes/dns_node.hpp"
#include "nodes/ratelimit.hpp"

namespace odns::honeypot {

struct SensorConfig {
  util::Ipv4 upstream;  // public resolver used for resolution
  util::Duration rate_window = util::Duration::minutes(5);
};

class SensorBase : public nodes::DnsNode {
 public:
  SensorBase(netsim::Simulator& sim, netsim::HostId host, SensorConfig cfg)
      : SensorBase(sim, host, cfg, /*port_base=*/40000) {}

  [[nodiscard]] const nodes::PrefixRateLimiter& limiter() const {
    return limiter_;
  }
  [[nodiscard]] std::uint64_t queries_seen() const { return queries_seen_; }

 protected:
  /// Upstream queries use ports port_base..50000 (wrapping) and txids
  /// counting from 1.
  SensorBase(netsim::Simulator& sim, netsim::HostId host, SensorConfig cfg,
             std::uint16_t port_base)
      : DnsNode(sim, host), cfg_(cfg), limiter_(cfg.rate_window),
        port_base_(port_base), next_port_(port_base) {}

  bool admit(const netsim::Datagram& dgram) {
    ++queries_seen_;
    if (!limiter_.allow(dgram.src, sim().now())) {
      ++counters_.rate_limited;
      return false;
    }
    return true;
  }

  /// Resolves the client's single question through the upstream
  /// resolver, sending from `src` (default: the host address).
  void relay_query(const netsim::Datagram& dgram,
                   const dnswire::MessageView& msg,
                   std::optional<util::Ipv4> src = std::nullopt);
  /// Relays the upstream answer to its client with the client's txid
  /// and RA set, from `src` (default: the address the query arrived
  /// on). Unmatched responses are dropped.
  void relay_response(const netsim::Datagram& dgram,
                      const dnswire::MessageView& msg,
                      std::optional<util::Ipv4> src = std::nullopt);

  SensorConfig cfg_;
  nodes::PrefixRateLimiter limiter_;
  std::uint64_t queries_seen_ = 0;

 private:
  struct Pending {
    util::Ipv4 client;
    std::uint16_t client_port = 0;
    std::uint16_t client_txid = 0;
    util::Ipv4 arrival_dst;
  };
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::uint16_t port_base_;
  std::uint16_t next_port_;
  std::uint16_t next_txid_ = 1;
};

/// Sensor 1: behaves like a public recursive resolver (single address).
class ResolverSensor : public SensorBase {
 public:
  using SensorBase::SensorBase;
  void start();

 protected:
  void on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;
};

/// Sensor 2: receives on one address, answers from a second address in
/// the same /24.
class InteriorForwarderSensor : public SensorBase {
 public:
  InteriorForwarderSensor(netsim::Simulator& sim, netsim::HostId host,
                          SensorConfig cfg, util::Ipv4 recv_addr,
                          util::Ipv4 send_addr)
      : SensorBase(sim, host, cfg, /*port_base=*/41000),
        recv_addr_(recv_addr), send_addr_(send_addr) {}
  void start();

  [[nodiscard]] util::Ipv4 recv_addr() const { return recv_addr_; }
  [[nodiscard]] util::Ipv4 send_addr() const { return send_addr_; }

 protected:
  void on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;

 private:
  util::Ipv4 recv_addr_;
  util::Ipv4 send_addr_;
};

/// Sensor 3: true transparent forwarder — relays with the client's
/// source address; requires a SAV-free network and sees no answers.
class ExteriorForwarderSensor : public SensorBase {
 public:
  using SensorBase::SensorBase;
  void start();

  [[nodiscard]] std::uint64_t relayed() const { return relayed_; }

 protected:
  void on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;

 private:
  std::uint64_t relayed_ = 0;
};

}  // namespace odns::honeypot

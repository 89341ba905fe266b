#pragma once
// The two forwarder species the paper distinguishes.
//
// RecursiveForwarder: an application-level relay. It replaces the
// client's source address with its own, so responses flow back through
// it. The census population of recursive forwarders lives in
// ForwarderBank rows (nodes/forwarder_bank.hpp); this node is the
// caching same-AS relay the topology builder places behind
// indirect-consolidation transparent forwarders (TF → RF → public
// resolver). Its cache answers scanner retries, so it stays a node.
// Like a bank row, it relays the upstream response view with the
// client txid restored; it copies out only the answers it caches.
//
// TransparentForwarder: an IP-level relay that preserves the client's
// source address. The response bypasses it entirely. It is implemented
// as a netsim port-redirect rule; this class is the bookkeeping wrapper
// that installs the rule and exposes relay statistics.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "nodes/cache.hpp"
#include "nodes/dns_node.hpp"

namespace odns::nodes {

/// How long a recursive forwarder (node or bank row) waits for its
/// upstream before a late response is dropped as expired.
inline constexpr util::Duration kForwarderUpstreamTimeout =
    util::Duration::seconds(5);

struct ForwarderStats {
  std::uint64_t client_queries = 0;
  std::uint64_t cache_answers = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t upstream_responses = 0;
  std::uint64_t expired = 0;
};

class RecursiveForwarder : public DnsNode {
 public:
  /// Relays to `upstream` (a resolver or the next forwarder).
  RecursiveForwarder(netsim::Simulator& sim, netsim::HostId host,
                     util::Ipv4 upstream);

  void start();

  [[nodiscard]] const ForwarderStats& stats() const { return fstats_; }

 protected:
  void on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;

 private:
  struct Pending {
    util::Ipv4 client;
    std::uint16_t client_port = 0;
    std::uint16_t client_txid = 0;
    util::Ipv4 arrival_dst;
    std::string cache_key;  // wire_key of the client's question
    util::SimTime deadline;
  };

  void handle_query(const netsim::Datagram& dgram,
                    const dnswire::MessageView& msg);
  void handle_response(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg);

  static std::uint32_t pending_key(std::uint16_t port, std::uint16_t txid) {
    return (std::uint32_t{port} << 16) | txid;
  }

  util::Ipv4 upstream_;
  DnsCache cache_;
  ForwarderStats fstats_;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::uint16_t next_port_ = 32768;
  std::uint16_t next_txid_ = 1;
};

/// Bookkeeping wrapper around the netsim transparent-redirect rule.
class TransparentForwarder {
 public:
  TransparentForwarder(netsim::Simulator& sim, netsim::HostId host,
                       util::Ipv4 resolver)
      : sim_(&sim), host_(host), resolver_(resolver) {}

  /// Installs the port-53 redirect on the device.
  void install() { sim_->add_port_redirect(host_, kDnsPort, resolver_); }
  void uninstall() { sim_->remove_port_redirect(host_, kDnsPort); }

  [[nodiscard]] netsim::HostId host() const { return host_; }
  [[nodiscard]] util::Ipv4 address() const {
    return sim_->net().primary_addr(host_);
  }
  [[nodiscard]] util::Ipv4 resolver() const { return resolver_; }
  [[nodiscard]] std::uint64_t relayed() const {
    return sim_->redirect_relays(host_);
  }

 private:
  netsim::Simulator* sim_;
  netsim::HostId host_;
  util::Ipv4 resolver_;
};

}  // namespace odns::nodes

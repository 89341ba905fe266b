#pragma once
// Minimal stub client: issues queries toward any DNS speaker and
// records whatever comes back (from any source — by design, since
// transparent forwarders produce responses from third parties). It
// reads responses as views like every node and keeps an owned copy of
// each for the tests to inspect.

#include <cstdint>
#include <vector>

#include "nodes/dns_node.hpp"

namespace odns::nodes {

struct StubResponse {
  util::Ipv4 from;
  std::uint16_t from_port = 0;
  std::uint16_t to_port = 0;
  dnswire::Message message;
  util::SimTime time;
};

class StubClient : public DnsNode {
 public:
  StubClient(netsim::Simulator& sim, netsim::HostId host)
      : DnsNode(sim, host) {}

  /// Binds the wildcard so responses to any ephemeral port arrive here.
  void start() { sim().bind_udp_wildcard(host(), this); }

  /// Fires a query; returns the transaction id used.
  std::uint16_t query(util::Ipv4 server, const dnswire::Name& name,
                      dnswire::RrType type = dnswire::RrType::a) {
    const std::uint16_t txid = next_txid_++;
    const std::uint16_t port = next_port_;
    next_port_ = next_port_ >= 30000 ? 20000 : static_cast<std::uint16_t>(next_port_ + 1);
    const auto msg = dnswire::make_query(txid, name, type);
    send(server, port, kDnsPort, dnswire::view_of(scratch_arena(), msg));
    return txid;
  }

  [[nodiscard]] const std::vector<StubResponse>& responses() const {
    return responses_;
  }
  void clear() { responses_.clear(); }

 protected:
  void on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override {
    if (!msg.header.qr) return;
    responses_.push_back(StubResponse{dgram.src, dgram.src_port,
                                      dgram.dst_port,
                                      dnswire::materialize(msg), sim().now()});
  }

 private:
  std::vector<StubResponse> responses_;
  std::uint16_t next_txid_ = 100;
  std::uint16_t next_port_ = 20000;
};

}  // namespace odns::nodes

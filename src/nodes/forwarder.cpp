#include "nodes/forwarder.hpp"

#include <utility>

namespace odns::nodes {

using dnswire::Message;
using dnswire::Rcode;

RecursiveForwarder::RecursiveForwarder(netsim::Simulator& sim,
                                       netsim::HostId host,
                                       util::Ipv4 upstream)
    : DnsNode(sim, host), upstream_(upstream) {}

void RecursiveForwarder::start() {
  sim().bind_udp(host(), kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

void RecursiveForwarder::on_message(const netsim::Datagram& dgram,
                                    dnswire::Message msg) {
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    handle_query(dgram, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_response(dgram, std::move(msg));
  }
}

void RecursiveForwarder::handle_query(const netsim::Datagram& dgram,
                                      const Message& msg) {
  ++fstats_.client_queries;
  if (msg.questions.size() != 1) {
    reply(dgram, dnswire::make_response(msg, Rcode::formerr));
    return;
  }
  const auto& q = msg.questions.front();

  if (auto hit = cache_.get(q.name, q.type, sim().now());
      hit && !hit->negative) {
    ++fstats_.cache_answers;
    Message resp = dnswire::make_response(msg);
    resp.header.ra = true;
    resp.answers = hit->records;
    reply(dgram, resp);
    return;
  }

  Pending p;
  p.client = dgram.src;
  p.client_port = dgram.src_port;
  p.client_txid = msg.header.id;
  p.arrival_dst = dgram.dst;
  p.question = q;
  p.deadline = sim().now() + kForwarderUpstreamTimeout;

  // Source substitution happens implicitly: the upstream query leaves
  // with this host's own address — the defining difference from a
  // transparent forwarder.
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 65535 ? 32768 : static_cast<std::uint16_t>(next_port_ + 1);
  const std::uint16_t txid = next_txid_++;
  pending_[key(port, txid)] = p;
  ++fstats_.forwarded;

  Message upstream = dnswire::make_query(txid, q.name, q.type);
  send_message(upstream_, port, kDnsPort, upstream);
}

void RecursiveForwarder::handle_response(const netsim::Datagram& dgram,
                                         Message msg) {
  auto it = pending_.find(key(dgram.dst_port, msg.header.id));
  if (it == pending_.end()) return;
  Pending p = it->second;
  pending_.erase(it);
  ++fstats_.upstream_responses;
  if (sim().now() > p.deadline) {
    ++fstats_.expired;
    return;
  }
  if (msg.header.rcode == Rcode::noerror && !msg.answers.empty()) {
    cache_.put(p.question.name, p.question.type, msg.answers, sim().now());
  }
  msg.header.id = p.client_txid;
  send_message(p.client, kDnsPort, p.client_port, msg, p.arrival_dst);
}

}  // namespace odns::nodes

#include "nodes/forwarder.hpp"

#include <utility>

namespace odns::nodes {

using dnswire::MessageView;
using dnswire::Rcode;

RecursiveForwarder::RecursiveForwarder(netsim::Simulator& sim,
                                       netsim::HostId host,
                                       util::Ipv4 upstream)
    : DnsNode(sim, host), upstream_(upstream) {}

void RecursiveForwarder::start() {
  sim().bind_udp(host(), kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

void RecursiveForwarder::on_message_view(const netsim::Datagram& dgram,
                                         const MessageView& msg) {
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    handle_query(dgram, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_response(dgram, msg);
  }
}

void RecursiveForwarder::handle_query(const netsim::Datagram& dgram,
                                      const MessageView& msg) {
  ++fstats_.client_queries;
  if (msg.questions.size() != 1) {
    reply(dgram, dnswire::make_response(msg, Rcode::formerr));
    return;
  }
  const auto& q = msg.questions.front();

  std::string cache_key = dnswire::wire_key(q.name, q.type);
  if (auto hit = cache_.get(cache_key, sim().now()); hit && !hit->negative) {
    ++fstats_.cache_answers;
    MessageView resp = dnswire::make_response(msg);
    resp.header.ra = true;
    resp.answers = hit->views(scratch_arena());
    reply(dgram, resp);
    return;
  }

  // Source substitution happens implicitly: the upstream query leaves
  // with this host's own address — the defining difference from a
  // transparent forwarder.
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 65535 ? 32768 : static_cast<std::uint16_t>(next_port_ + 1);
  const std::uint16_t txid = next_txid_++;
  pending_[pending_key(port, txid)] =
      Pending{dgram.src, dgram.src_port, msg.header.id, dgram.dst,
              std::move(cache_key), sim().now() + kForwarderUpstreamTimeout};
  ++fstats_.forwarded;

  const dnswire::QuestionView question{q.name, q.type, dnswire::RrClass::in};
  send(upstream_, port, kDnsPort, dnswire::make_query(txid, question));
}

void RecursiveForwarder::handle_response(const netsim::Datagram& dgram,
                                         const MessageView& msg) {
  auto it = pending_.find(pending_key(dgram.dst_port, msg.header.id));
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  ++fstats_.upstream_responses;
  if (sim().now() > p.deadline) {
    ++fstats_.expired;
    return;
  }
  if (msg.header.rcode == Rcode::noerror && !msg.answers.empty()) {
    cache_.put(std::move(p.cache_key), msg.answers, sim().now());
  }
  MessageView resp = msg;
  resp.header.id = p.client_txid;
  send(p.client, kDnsPort, p.client_port, resp, p.arrival_dst);
}

}  // namespace odns::nodes

#include "honeypot/sensors.hpp"

namespace odns::honeypot {

using dnswire::MessageView;

// --- Sensors 1 and 2: relays through the upstream resolver -------------

void SensorBase::relay_query(const netsim::Datagram& dgram,
                             const MessageView& msg,
                             std::optional<util::Ipv4> src) {
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 50000 ? port_base_
                                   : static_cast<std::uint16_t>(next_port_ + 1);
  const std::uint16_t txid = next_txid_++;
  pending_[(std::uint32_t{port} << 16) | txid] =
      Pending{dgram.src, dgram.src_port, msg.header.id, dgram.dst};
  const auto& q = msg.questions.front();
  const dnswire::QuestionView question{q.name, q.type, dnswire::RrClass::in};
  send(cfg_.upstream, port, nodes::kDnsPort,
       dnswire::make_query(txid, question), src);
}

void SensorBase::relay_response(const netsim::Datagram& dgram,
                                const MessageView& msg,
                                std::optional<util::Ipv4> src) {
  auto it = pending_.find((std::uint32_t{dgram.dst_port} << 16) |
                          msg.header.id);
  if (it == pending_.end()) return;
  const Pending p = it->second;
  pending_.erase(it);
  MessageView resp = msg;
  resp.header.id = p.client_txid;
  resp.header.ra = true;
  send(p.client, nodes::kDnsPort, p.client_port, resp,
       src.value_or(p.arrival_dst));
}

// --- Sensor 1 ---------------------------------------------------------

void ResolverSensor::start() {
  sim().bind_udp(host(), nodes::kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

void ResolverSensor::on_message_view(const netsim::Datagram& dgram,
                                     const MessageView& msg) {
  if (dgram.dst_port == nodes::kDnsPort && !msg.header.qr) {
    if (msg.questions.size() == 1 && admit(dgram)) relay_query(dgram, msg);
  } else if (dgram.dst_port != nodes::kDnsPort && msg.header.qr) {
    // The defining sensor-1 behaviour: answer from the same address
    // that received the query.
    relay_response(dgram, msg);
  }
}

// --- Sensor 2 ---------------------------------------------------------

void InteriorForwarderSensor::start() {
  sim().bind_udp(host(), nodes::kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

void InteriorForwarderSensor::on_message_view(const netsim::Datagram& dgram,
                                              const MessageView& msg) {
  if (dgram.dst_port == nodes::kDnsPort && !msg.header.qr) {
    // Only the receive address plays transparent-forwarder; queries to
    // the send address are ignored (it is not an advertised service).
    if (dgram.dst == recv_addr_ && msg.questions.size() == 1 &&
        admit(dgram)) {
      relay_query(dgram, msg, send_addr_);
    }
  } else if (dgram.dst_port != nodes::kDnsPort && msg.header.qr) {
    // Answer from the *other* address of the same /24: stateless
    // response-based campaigns record send_addr, transactional scans
    // attribute the answer to recv_addr.
    relay_response(dgram, msg, send_addr_);
  }
}

// --- Sensor 3 ---------------------------------------------------------

void ExteriorForwarderSensor::start() {
  sim().bind_udp(host(), nodes::kDnsPort, this);
}

void ExteriorForwarderSensor::on_message_view(const netsim::Datagram& dgram,
                                              const MessageView& msg) {
  if (msg.header.qr || msg.questions.empty()) return;
  if (!admit(dgram)) return;
  ++relayed_;
  // Relay verbatim — same TXID, same client port, and crucially the
  // client's own source address. The public resolver answers the
  // client directly; this sensor never observes the response.
  send(cfg_.upstream, dgram.src_port, nodes::kDnsPort, msg, dgram.src);
}

}  // namespace odns::honeypot

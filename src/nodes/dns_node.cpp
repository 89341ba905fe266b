#include "nodes/dns_node.hpp"

namespace odns::nodes {

void DnsNode::on_datagram(const netsim::Datagram& dgram) {
  ++counters_.datagrams_in;
  rx_arena_.reset();
  scratch_arena_.reset();
  auto parsed = dnswire::decode_into(
      rx_arena_, std::span<const std::uint8_t>(*dgram.payload));
  if (!parsed) {
    ++counters_.parse_errors;
    return;
  }
  const dnswire::MessageView& view = parsed.value();
  if (view.header.qr) {
    ++counters_.responses_in;
  } else {
    ++counters_.queries_in;
  }
  on_message_view(dgram, view);
}

void DnsNode::send(util::Ipv4 dst, std::uint16_t src_port,
                        std::uint16_t dst_port, const dnswire::MessageView& msg,
                        std::optional<util::Ipv4> src_override) {
  tx_arena_.reset();
  netsim::SendOptions opts;
  opts.dst = dst;
  opts.src_port = src_port;
  opts.dst_port = dst_port;
  const auto wire = dnswire::encode_into(tx_arena_, msg);
  opts.payload.assign(wire.begin(), wire.end());
  opts.spoof_src = src_override;
  if (msg.header.qr) {
    ++counters_.responses_out;
  } else {
    ++counters_.queries_out;
  }
  sim_->send_udp(host_, std::move(opts));
}

void DnsNode::reply(const netsim::Datagram& dgram,
                         const dnswire::MessageView& msg,
                         std::optional<util::Ipv4> src_override) {
  // Reply source defaults to the address the query arrived on, which is
  // what distinguishes sensor 1 (same address) from sensor 2 (different
  // address) in the controlled experiment.
  send(dgram.src, /*src_port=*/dgram.dst_port,
            /*dst_port=*/dgram.src_port, msg,
            src_override.has_value() ? src_override
                                     : std::optional<util::Ipv4>(dgram.dst));
}

}  // namespace odns::nodes

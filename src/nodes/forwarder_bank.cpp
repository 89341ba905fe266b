#include "nodes/forwarder_bank.hpp"

#include <algorithm>
#include <stdexcept>

#include "nodes/dns_node.hpp"

namespace odns::nodes {

using dnswire::MessageView;
using dnswire::RdataView;
using dnswire::RecordView;

namespace {
constexpr std::uint8_t kRewrite = 1;
constexpr std::uint8_t kStrip = 2;
constexpr std::uint16_t kPortBase = 32768;
constexpr std::uint32_t kPortSpan = 32768;
}  // namespace

void ForwarderBank::add_member(netsim::HostId host, const MemberConfig& mc) {
  if (sealed_) {
    throw std::logic_error("ForwarderBank::add_member after seal");
  }
  addr_.push_back(mc.addr);
  upstream_.push_back(mc.upstream);
  rewrite_target_.push_back(mc.rewrite_target);
  host_.push_back(host);
  seq_.push_back(0);
  flags_.push_back(static_cast<std::uint8_t>(
      (mc.rewrite_answers ? kRewrite : 0) |
      (mc.strip_second_record ? kStrip : 0)));
  sim_->bind_udp(host, kDnsPort, this);
  sim_->bind_udp_wildcard(host, this);
}

void ForwarderBank::seal() {
  by_addr_.resize(addr_.size());
  for (std::uint32_t i = 0; i < by_addr_.size(); ++i) by_addr_[i] = i;
  std::sort(by_addr_.begin(), by_addr_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return addr_[a].value() < addr_[b].value();
            });
  sealed_ = true;
}

std::size_t ForwarderBank::member_of(util::Ipv4 addr) const {
  auto it = std::lower_bound(by_addr_.begin(), by_addr_.end(), addr.value(),
                             [this](std::uint32_t i, std::uint32_t value) {
                               return addr_[i].value() < value;
                             });
  if (it == by_addr_.end() || addr_[*it].value() != addr.value()) {
    return addr_.size();
  }
  return *it;
}

void ForwarderBank::on_datagram(const netsim::Datagram& dgram) {
  if (!sealed_) {
    throw std::logic_error("ForwarderBank received a datagram before seal");
  }
  rx_arena_.reset();
  tx_arena_.reset();
  const auto parsed = dnswire::decode_into(rx_arena_, *dgram.payload);
  if (!parsed) return;
  const MessageView& msg = parsed.value();
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    const std::size_t member = member_of(dgram.dst);
    if (member == addr_.size()) return;  // not a member address
    handle_query(dgram, member, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_response(dgram, msg);
  }
}

void ForwarderBank::handle_query(const netsim::Datagram& dgram,
                                 std::size_t member, const MessageView& msg) {
  ++stats_.client_queries;
  if (msg.questions.size() != 1) return;  // banks don't answer formerr
  const auto& q = msg.questions.front();

  // Index-derived upstream tuple: member m's queries always use ports
  // kPortBase + (m*256+seq) % 32768 and txids 1 + (m*256+seq) / 32768,
  // so the wire bytes depend only on the member's own query sequence.
  const std::uint32_t g = tuple_of(static_cast<std::uint32_t>(member),
                                   seq_[member]);
  seq_[member] = static_cast<std::uint8_t>(seq_[member] + 1);
  const auto port = static_cast<std::uint16_t>(kPortBase + g % kPortSpan);
  const auto txid = static_cast<std::uint16_t>(1 + (g / kPortSpan) % 65535);

  if (pending_.size() >= sweep_at_) sweep_expired();
  Pending& p = pending_[g];
  p.client = dgram.src;
  p.client_port = dgram.src_port;
  p.client_txid = msg.header.id;
  p.member = static_cast<std::uint32_t>(member);
  p.deadline = sim_->now() + kForwarderUpstreamTimeout;
  peak_pending_ = std::max(peak_pending_, pending_.size());
  ++stats_.forwarded;

  const dnswire::QuestionView question{q.name, q.type, dnswire::RrClass::in};
  send(host_[member], upstream_[member], port, kDnsPort,
       dnswire::make_query(txid, question));
}

void ForwarderBank::handle_response(const netsim::Datagram& dgram,
                                    const MessageView& msg) {
  // Invert the tuple derivation to recover the pending key directly.
  if (dgram.dst_port < kPortBase || msg.header.id == 0) return;
  const std::uint32_t g =
      static_cast<std::uint32_t>(msg.header.id - 1) * kPortSpan +
      (dgram.dst_port - kPortBase);
  auto it = pending_.find(g);
  if (it == pending_.end()) return;
  const Pending p = it->second;
  pending_.erase(it);
  ++stats_.upstream_responses;
  if (sim_->now() > p.deadline) {
    ++stats_.expired;
    return;
  }

  MessageView resp = msg;
  resp.header.id = p.client_txid;
  const std::uint8_t flags = flags_[p.member];
  if ((flags & kRewrite) != 0) {
    // Rewrite on an arena copy of the answer span; the rx view stays
    // untouched.
    const auto answers = tx_arena_.alloc_array<RecordView>(msg.answers.size());
    std::copy(msg.answers.begin(), msg.answers.end(), answers.begin());
    for (auto& rr : answers) {
      if (rr.rdata.tag == RdataView::Tag::a) {
        rr.rdata.a_addr = rewrite_target_[p.member];
      }
    }
    resp.answers = answers;
  }
  if ((flags & kStrip) != 0 && resp.answers.size() > 1) {
    resp.answers = resp.answers.first(1);
  }
  send(host_[p.member], p.client, kDnsPort, p.client_port, resp);
}

void ForwarderBank::send(netsim::HostId from, util::Ipv4 dst,
                         std::uint16_t src_port, std::uint16_t dst_port,
                         const MessageView& msg) {
  netsim::SendOptions opts;
  opts.dst = dst;
  opts.src_port = src_port;
  opts.dst_port = dst_port;
  const auto wire = dnswire::encode_into(tx_arena_, msg);
  opts.payload.assign(wire.begin(), wire.end());
  sim_->send_udp(from, std::move(opts));
}

void ForwarderBank::sweep_expired() {
  const util::SimTime now = sim_->now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now > it->second.deadline) {
      ++stats_.expired;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  sweep_at_ = std::max<std::size_t>(64, pending_.size() * 2);
}

}  // namespace odns::nodes

#include "scan/campaigns.hpp"

namespace odns::scan {

std::string to_string(CampaignKind k) {
  switch (k) {
    case CampaignKind::shadowserver: return "Shadowserver";
    case CampaignKind::censys: return "Censys";
    case CampaignKind::shodan: return "Shodan";
  }
  return "?";
}

StatelessCampaign::StatelessCampaign(netsim::Simulator& sim,
                                     netsim::HostId host, CampaignConfig cfg)
    : sim_(&sim),
      host_(host),
      cfg_(std::move(cfg)),
      query_(cfg_.qname, cfg_.qtype),
      target_by_port_(cfg_.port_limit >= cfg_.port_base
                          ? cfg_.port_limit - cfg_.port_base + 1u
                          : 1u),
      next_port_(cfg_.port_base) {
  sim_->bind_udp_wildcard(host_, this);
}

void StatelessCampaign::run(const std::vector<util::Ipv4>& targets) {
  const auto gap = util::Duration::nanos(static_cast<std::int64_t>(
      1e9 / static_cast<double>(cfg_.probes_per_second)));
  std::vector<netsim::TimerRunEntry> pacing;
  pacing.reserve(targets.size());
  util::SimTime at = sim_->now();
  for (auto target : targets) {
    pacing.push_back(netsim::TimerRunEntry{at, target.value(), 0});
    at = at + gap;
  }
  // Shard-affine pacing (run() is called from outside the event loop).
  sim_->schedule_timer_run_on(host_, this, std::move(pacing));
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
}

void StatelessCampaign::on_timer(std::uint64_t target_bits, std::uint64_t) {
  send_probe(util::Ipv4{static_cast<std::uint32_t>(target_bits)});
}

void StatelessCampaign::send_probe(util::Ipv4 target) {
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= cfg_.port_limit
                   ? cfg_.port_base
                   : static_cast<std::uint16_t>(next_port_ + 1);
  target_by_port_[port - cfg_.port_base] = target;
  netsim::SendOptions opts;
  opts.dst = target;
  opts.src_port = port;
  opts.dst_port = 53;
  opts.payload = query_.with_id(next_txid_++);
  last_send_at_ = sim_->now();
  sim_->send_udp(host_, std::move(opts));
}

void StatelessCampaign::on_datagram(const netsim::Datagram& dgram) {
  rx_arena_.reset();
  const auto parsed = dnswire::decode_into(rx_arena_, *dgram.payload);
  if (!parsed) return;
  const dnswire::MessageView& msg = parsed.value();
  if (!msg.header.qr || msg.header.rcode != dnswire::Rcode::noerror ||
      msg.answers.empty()) {
    return;  // all campaigns require a positive answer
  }
  ++responses_;
  switch (cfg_.kind) {
    case CampaignKind::shadowserver:
      // Pure response-based inventory: whoever answered is recorded.
      discovered_.insert(dgram.src);
      break;
    case CampaignKind::censys:
    case CampaignKind::shodan: {
      // Sanitizing step: the response must come from the address this
      // socket probed; off-target answers are scan artifacts.
      const std::size_t slot = dgram.dst_port - cfg_.port_base;
      if (dgram.dst_port >= cfg_.port_base && slot < target_by_port_.size() &&
          target_by_port_[slot] == dgram.src) {
        discovered_.insert(dgram.src);
      } else {
        ++dropped_sanitize_;
      }
      break;
    }
  }
}

}  // namespace odns::scan

#include "scan/amplification.hpp"

#include <algorithm>
#include <tuple>

#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"

namespace odns::scan {

void VictimMeter::on_datagram(const netsim::Datagram& dgram) {
  Reflection r;
  r.victim = victim_;
  r.src = dgram.src;
  r.src_port = dgram.src_port;
  r.dst_port = dgram.dst_port;
  r.bytes = dgram.payload->size();
  r.at = sim_->now();
  rx_arena_.reset();
  if (const auto parsed = dnswire::decode_into(rx_arena_, *dgram.payload)) {
    r.truncated = parsed.value().header.tc;
  }
  records_.push_back(std::move(r));
}

AmplificationCampaign::AmplificationCampaign(netsim::Simulator& sim,
                                             AmplificationConfig cfg)
    : sim_(&sim), cfg_(std::move(cfg)) {}

void AmplificationCampaign::add_attacker(netsim::HostId host) {
  attackers_.push_back(host);
}

void AmplificationCampaign::add_victim(netsim::HostId host, util::Ipv4 addr) {
  VictimSlot slot;
  slot.host = host;
  slot.meter = std::make_unique<VictimMeter>(*sim_, addr);
  sim_->bind_udp_wildcard(host, slot.meter.get());
  victims_.push_back(std::move(slot));
}

void AmplificationCampaign::start(const std::vector<util::Ipv4>& reflectors) {
  if (attackers_.empty() || victims_.empty() || reflectors.empty()) {
    last_send_at_ = sim_->now();
    return;
  }
  // Every query is the same question, so the wire size (txid is always
  // two octets) is a constant of the campaign.
  const std::uint64_t query_bytes =
      dnswire::encode(dnswire::make_query(0, cfg_.qname, cfg_.qtype)).size();
  const std::uint64_t gap_ns =
      cfg_.probes_per_second == 0
          ? 0
          : 1'000'000'000ull / cfg_.probes_per_second;
  const std::uint32_t port_range =
      static_cast<std::uint32_t>(cfg_.port_limit - cfg_.port_base);

  const util::SimTime t0 = sim_->now();
  injections_.reserve(victims_.size() * reflectors.size());
  std::size_t i = 0;
  for (const auto& slot : victims_) {
    for (const util::Ipv4 reflector : reflectors) {
      Injection inj;
      inj.victim = slot.meter->victim();
      inj.reflector = reflector;
      inj.attacker = attackers_[i % attackers_.size()];
      inj.attacker_as = sim_->net().host(inj.attacker).asn;
      inj.src_port = static_cast<std::uint16_t>(
          cfg_.port_base + static_cast<std::uint32_t>(i) % port_range);
      inj.txid = static_cast<std::uint16_t>(i + 1);
      inj.bytes = query_bytes;
      const auto delay = util::Duration::nanos(
          static_cast<std::int64_t>(gap_ns * i));
      inj.at = t0 + delay;
      injections_.push_back(inj);
      // Injections fire on the shard owning their attacker; start()
      // runs outside the event loop, so the timers must be placed
      // shard-affine (exactly the scanner's pacing pattern).
      sim_->schedule_timer_on(inj.attacker, delay, this, i);
      ++i;
    }
  }
  last_send_at_ = injections_.back().at;
}

void AmplificationCampaign::on_timer(std::uint64_t injection_index,
                                     std::uint64_t) {
  // Sends only — injections_ is immutable after start(), so concurrent
  // attacker shards share nothing mutable here.
  const Injection& inj = injections_[injection_index];
  netsim::SendOptions opts;
  opts.dst = inj.reflector;
  opts.src_port = inj.src_port;
  opts.dst_port = 53;
  opts.spoof_src = inj.victim;
  opts.payload = dnswire::encode(
      dnswire::make_query(inj.txid, cfg_.qname, cfg_.qtype));
  sim_->send_udp(inj.attacker, std::move(opts));
}

void AmplificationCampaign::run_to_completion() {
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
}

std::vector<Reflection> AmplificationCampaign::merged_reflections() const {
  std::vector<Reflection> all;
  for (const auto& slot : victims_) {
    const auto& recs = slot.meter->records();
    all.insert(all.end(), recs.begin(), recs.end());
  }
  std::sort(all.begin(), all.end(), [](const Reflection& a, const Reflection& b) {
    return std::tuple(a.at.nanos(), a.victim, a.src, a.src_port, a.dst_port,
                      a.bytes, a.truncated) <
           std::tuple(b.at.nanos(), b.victim, b.src, b.src_port, b.dst_port,
                      b.bytes, b.truncated);
  });
  return all;
}

}  // namespace odns::scan

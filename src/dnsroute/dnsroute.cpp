#include "dnsroute/dnsroute.hpp"

#include <algorithm>
#include <unordered_set>

namespace odns::dnsroute {

bool TracePath::complete() const {
  if (target_distance < 0 || !got_answer || answer_ttl <= target_distance) {
    return false;
  }
  for (int t = 1; t < answer_ttl; ++t) {
    if (!hops[static_cast<std::size_t>(t - 1)].responded) return false;
  }
  return true;
}

std::vector<util::Ipv4> TracePath::hop_addrs() const {
  std::vector<util::Ipv4> out;
  const int limit = answer_ttl > 0 ? answer_ttl - 1
                                   : static_cast<int>(hops.size());
  for (int t = 1; t <= limit; ++t) {
    const auto& hop = hops[static_cast<std::size_t>(t - 1)];
    if (hop.responded) out.push_back(hop.addr);
  }
  return out;
}

DnsroutePlusPlus::DnsroutePlusPlus(netsim::Simulator& sim,
                                   netsim::HostId host, DnsrouteConfig cfg)
    : sim_(&sim), host_(host), cfg_(std::move(cfg)) {
  sim_->bind_udp_wildcard(host_, this);
  sim_->set_icmp_handler(host_,
                         [this](const netsim::Packet& pkt) { on_icmp(pkt); });
}

void DnsroutePlusPlus::send_probe(std::size_t target_idx, int ttl) {
  const std::uint16_t port = next_port_;
  if (next_port_ >= 65535) {
    next_port_ = 1024;
    ++next_txid_;
    if (next_txid_ == 0) next_txid_ = 1;
  } else {
    ++next_port_;
  }
  const std::uint16_t txid = next_txid_;
  probe_of_[key(port, txid)] = {static_cast<std::uint32_t>(target_idx), ttl};
  probe_by_port_[port] = {static_cast<std::uint32_t>(target_idx), ttl};

  netsim::SendOptions opts;
  opts.dst = paths_[target_idx].target;
  opts.src_port = port;
  opts.dst_port = 53;
  opts.ttl = ttl;
  opts.payload = dnswire::encode(
      dnswire::make_query(txid, cfg_.qname, dnswire::RrType::a));
  last_send_at_ = sim_->now();
  sim_->send_udp(host_, std::move(opts));
}

void DnsroutePlusPlus::on_timer(std::uint64_t target_idx, std::uint64_t ttl) {
  send_probe(static_cast<std::size_t>(target_idx), static_cast<int>(ttl));
}

std::vector<TracePath> DnsroutePlusPlus::run(
    const std::vector<util::Ipv4>& targets) {
  paths_.clear();
  paths_.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    paths_[i].target = targets[i];
    paths_[i].hops.assign(static_cast<std::size_t>(cfg_.max_ttl), Hop{});
  }
  const auto gap = util::Duration::nanos(static_cast<std::int64_t>(
      1e9 / static_cast<double>(cfg_.probes_per_second)));
  util::Duration at = util::Duration::nanos(0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (int ttl = 1; ttl <= cfg_.max_ttl; ++ttl) {
      // Shard-affine pacing: scheduled from outside the event loop, so
      // the timer must land on the shard owning the vantage host.
      sim_->schedule_timer_on(host_, at, this, i,
                              static_cast<std::uint64_t>(ttl));
      at = at + gap;
    }
  }
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
  return std::move(paths_);
}

void DnsroutePlusPlus::on_icmp(const netsim::Packet& pkt) {
  if (pkt.icmp_type != netsim::IcmpType::ttl_exceeded) return;
  auto it = probe_by_port_.find(pkt.icmp_quote.orig_src_port);
  if (it == probe_by_port_.end()) return;
  const auto [target_idx, ttl] = it->second;
  auto& path = paths_[target_idx];
  auto& hop = path.hops[static_cast<std::size_t>(ttl - 1)];
  if (!hop.responded) {
    hop.responded = true;
    hop.addr = pkt.src;
  }
  if (pkt.src == path.target &&
      (path.target_distance < 0 || ttl < path.target_distance)) {
    path.target_distance = ttl;
  }
}

void DnsroutePlusPlus::on_datagram(const netsim::Datagram& dgram) {
  rx_arena_.reset();
  const auto parsed = dnswire::decode_into(rx_arena_, *dgram.payload);
  if (!parsed) return;
  const dnswire::MessageView& msg = parsed.value();
  if (!msg.header.qr) return;
  auto it = probe_of_.find(key(dgram.dst_port, msg.header.id));
  if (it == probe_of_.end()) return;
  const auto [target_idx, ttl] = it->second;
  auto& path = paths_[target_idx];
  if (msg.header.rcode != dnswire::Rcode::noerror || msg.answers.empty()) {
    return;
  }
  if (!path.got_answer || ttl < path.answer_ttl) {
    path.got_answer = true;
    path.answer_ttl = ttl;
    path.resolver = dgram.src;
  }
}

std::vector<PathLengthSample> path_length_samples(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry) {
  std::vector<PathLengthSample> out;
  for (const auto& path : paths) {
    if (!path.complete()) continue;
    const auto project_addr = path.resolver;
    std::optional<topo::ResolverProject> project;
    // Attribute by the answering service address's origin AS.
    if (auto asn = registry.routeviews.origin_of(project_addr)) {
      project = registry.project_of_asn(*asn);
    }
    if (!project) continue;  // national/ISP resolvers: out of Fig. 6 scope
    PathLengthSample sample;
    sample.project = *project;
    sample.hops = path.forwarder_to_resolver_hops();
    if (auto fwd_asn = registry.routeviews.origin_of(path.target)) {
      sample.forwarder_asn = *fwd_asn;
    }
    out.push_back(sample);
  }
  return out;
}

AsRelationshipReport infer_relationships(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry) {
  AsRelationshipReport report;
  std::unordered_set<std::uint64_t> inferred;
  for (const auto& path : paths) {
    if (!path.complete()) continue;
    ++report.paths_considered;
    const auto fwd_asn = registry.routeviews.origin_of(path.target);
    if (!fwd_asn) continue;

    // AS immediately before the forwarder (last hop < target_distance)
    // and immediately after (first hop > target_distance) on the path.
    std::optional<netsim::Asn> as_in;
    std::optional<netsim::Asn> as_out;
    for (int t = path.target_distance - 1; t >= 1; --t) {
      const auto& hop = path.hops[static_cast<std::size_t>(t - 1)];
      if (!hop.responded) break;
      const auto asn = registry.routeviews.origin_of(hop.addr);
      if (asn && *asn != *fwd_asn) {
        as_in = asn;
        break;
      }
    }
    for (int t = path.target_distance + 1; t < path.answer_ttl; ++t) {
      const auto& hop = path.hops[static_cast<std::size_t>(t - 1)];
      if (!hop.responded) break;
      const auto asn = registry.routeviews.origin_of(hop.addr);
      if (asn && *asn != *fwd_asn) {
        as_out = asn;
        break;
      }
    }
    if (!as_in || !as_out) continue;
    ++report.paths_with_as_mapping;
    if (*as_in != *as_out) continue;
    ++report.as_in_equals_as_out;
    const std::uint64_t edge = (std::uint64_t{*as_in} << 32) | *fwd_asn;
    if (inferred.insert(edge).second) {
      ++report.inferred_provider_customer;
      if (!registry.caida.knows(*as_in, *fwd_asn)) {
        ++report.unknown_to_caida;
      }
    }
  }
  return report;
}

}  // namespace odns::dnsroute

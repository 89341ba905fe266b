#include "dnsroute/dnsroute.hpp"

#include <algorithm>
#include <stdexcept>
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

namespace {

// Probe k leaves from port kPortBase + k % kPorts with txid
// 1 + k / kPorts (dnsroute.hpp).
constexpr std::uint64_t kPortBase = 1024;
constexpr std::uint64_t kPorts = 65536 - kPortBase;
constexpr std::uint64_t kTxids = 65535;  // txid 0 is never sent

}  // namespace

DnsroutePlusPlus::DnsroutePlusPlus(netsim::Simulator& sim,
                                   netsim::HostId host, DnsrouteConfig cfg)
    : sim_(&sim),
      host_(host),
      cfg_(std::move(cfg)),
      query_(cfg_.qname, dnswire::RrType::a) {
  sim_->bind_udp_wildcard(host_, this);
  sim_->set_icmp_handler(host_,
                         [this](const netsim::Packet& pkt) { on_icmp(pkt); });
}

std::optional<std::pair<std::size_t, int>> DnsroutePlusPlus::probe(
    std::uint64_t k) const {
  if (k >= sent_) return std::nullopt;
  const auto max_ttl = static_cast<std::uint64_t>(cfg_.max_ttl);
  return std::pair{static_cast<std::size_t>(k / max_ttl),
                   static_cast<int>(k % max_ttl) + 1};
}

void DnsroutePlusPlus::on_timer(std::uint64_t k, std::uint64_t) {
  sent_ = k + 1;
  const auto [target_idx, ttl] = *probe(k);
  netsim::SendOptions opts;
  opts.dst = paths_[target_idx].target;
  opts.src_port = static_cast<std::uint16_t>(kPortBase + k % kPorts);
  opts.dst_port = 53;
  opts.ttl = ttl;
  opts.payload = query_.with_id(static_cast<std::uint16_t>(1 + k / kPorts));
  last_send_at_ = sim_->now();
  sim_->send_udp(host_, std::move(opts));
}

std::vector<TracePath> DnsroutePlusPlus::run(
    const std::vector<util::Ipv4>& targets) {
  const std::uint64_t probes =
      targets.size() * static_cast<std::uint64_t>(cfg_.max_ttl);
  if (probes > kPorts * kTxids) {
    throw std::invalid_argument(
        "DnsroutePlusPlus::run: more probes than (port, txid) tuples");
  }
  paths_.clear();
  paths_.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    paths_[i].target = targets[i];
    paths_[i].hops.assign(static_cast<std::size_t>(cfg_.max_ttl), Hop{});
  }
  sent_ = 0;
  const auto gap = util::Duration::nanos(static_cast<std::int64_t>(
      1e9 / static_cast<double>(cfg_.probes_per_second)));
  std::vector<netsim::TimerRunEntry> pacing;
  pacing.reserve(probes);
  util::SimTime at = sim_->now();
  for (std::uint64_t k = 0; k < probes; ++k) {
    pacing.push_back(netsim::TimerRunEntry{at, k, 0});
    at = at + gap;
  }
  // Shard-affine pacing: armed from outside the event loop, so the run
  // must land on the shard owning the vantage host.
  sim_->schedule_timer_run_on(host_, this, std::move(pacing));
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
  return std::move(paths_);
}

void DnsroutePlusPlus::on_icmp(const netsim::Packet& pkt) {
  if (pkt.icmp_type != netsim::IcmpType::ttl_exceeded) return;
  const std::uint64_t port = pkt.icmp_quote.orig_src_port;
  if (port < kPortBase) return;
  const std::uint64_t slot = port - kPortBase;
  if (slot >= sent_) return;  // no probe has left from this port yet
  // The latest probe sent from this port.
  const std::uint64_t last = sent_ - 1;
  const auto [target_idx, ttl] = *probe(last - (last - slot) % kPorts);
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
  if (dgram.dst_port < kPortBase || msg.header.id == 0) return;
  const auto matched =
      probe((msg.header.id - 1u) * kPorts + (dgram.dst_port - kPortBase));
  if (!matched) return;
  const auto [target_idx, ttl] = *matched;
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

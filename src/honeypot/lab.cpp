#include "honeypot/lab.hpp"

#include <stdexcept>

namespace odns::honeypot {

namespace {

netsim::Asn fresh_asn(const netsim::Network& net, netsim::Asn start) {
  netsim::Asn asn = start;
  while (net.find_as(asn) != nullptr) ++asn;
  return asn;
}

}  // namespace

SensorLab deploy_sensor_lab(topo::Deployment& world, util::Prefix block,
                            util::Ipv4 upstream, util::Duration rate_window) {
  auto& sim = world.sim();
  auto& net = sim.net();
  if (block.length() != 24) {
    throw std::invalid_argument("sensor lab needs a /24");
  }

  SensorLab lab;
  netsim::AsConfig ac;
  ac.asn = fresh_asn(net, 64900);
  ac.country = "DEU";
  ac.internal_hops = 1;
  // §3.1 deployment requirements: no egress SAV (sensor 3 spoofs) and
  // direct peering with the resolver's network at an IXP.
  ac.source_address_validation = false;
  net.add_as(ac);
  lab.asn = ac.asn;
  net.announce(ac.asn, block);

  // Peer with the AS of the upstream's nearest PoP: resolve from a hub
  // first so there is connectivity to compute nearest against.
  net.link(ac.asn, net.all_asns().front());
  const netsim::HostId pop = net.resolve_destination(upstream, ac.asn);
  if (pop != netsim::kInvalidHost) {
    net.link(ac.asn, net.host(pop).asn);
  }

  const auto base = block.base().value();
  lab.sensor1_addr = util::Ipv4{base + 10};
  lab.sensor2_recv_addr = util::Ipv4{base + 20};
  lab.sensor2_send_addr = util::Ipv4{base + 21};
  lab.sensor3_addr = util::Ipv4{base + 30};

  SensorConfig cfg;
  cfg.upstream = upstream;
  cfg.rate_window = rate_window;

  const auto h1 = net.add_host(ac.asn, {lab.sensor1_addr});
  lab.sensor1 = std::make_unique<ResolverSensor>(sim, h1, cfg);
  lab.sensor1->start();

  const auto h2 =
      net.add_host(ac.asn, {lab.sensor2_recv_addr, lab.sensor2_send_addr});
  lab.sensor2 = std::make_unique<InteriorForwarderSensor>(
      sim, h2, cfg, lab.sensor2_recv_addr, lab.sensor2_send_addr);
  lab.sensor2->start();

  const auto h3 = net.add_host(ac.asn, {lab.sensor3_addr});
  lab.sensor3 = std::make_unique<ExteriorForwarderSensor>(sim, h3, cfg);
  lab.sensor3->start();

  return lab;
}

netsim::HostId attach_vantage(netsim::Network& net, util::Prefix block,
                              util::Ipv4 host_addr, bool sav,
                              std::optional<netsim::Asn> mirror_links_of) {
  netsim::AsConfig ac;
  ac.asn = fresh_asn(net, 65100);
  ac.country = "USA";
  ac.internal_hops = 1;
  ac.source_address_validation = sav;
  std::vector<netsim::Asn> links{net.all_asns().front()};
  if (mirror_links_of) {
    const auto* mirrored = net.find_as(*mirror_links_of);
    if (mirrored == nullptr) {
      throw std::invalid_argument("attach_vantage: unknown mirrored ASN");
    }
    // Hop-identical routing: same internal chain length and the same
    // neighbor set in the same order, so BFS from the vantage explores
    // the graph exactly as BFS from the mirrored AS does (the vantage
    // itself is a stub and can never shorten anyone's path).
    ac.internal_hops = mirrored->cfg.internal_hops;
    links = mirrored->neighbors;
  }
  net.add_as(ac);
  net.announce(ac.asn, block);
  for (const netsim::Asn neighbor : links) net.link(ac.asn, neighbor);
  return net.add_host(ac.asn, {host_addr});
}

netsim::HostId attach_vantage(topo::Deployment& world, util::Prefix block,
                              util::Ipv4 host_addr, bool sav,
                              std::optional<netsim::Asn> mirror_links_of) {
  return attach_vantage(world.sim().net(), block, host_addr, sav,
                        mirror_links_of);
}

std::vector<netsim::HostId> attach_capture_vantages(netsim::Network& net,
                                                    netsim::Asn mirror_as,
                                                    std::uint32_t count) {
  std::vector<netsim::HostId> members;
  members.reserve(count);
  for (std::uint32_t j = 0; j < count; ++j) {
    // One /24 per member from 198.19.0.0/16 — the half of the RFC 2544
    // benchmarking range the campaign vantages (198.18.x.0/24 in
    // tests, examples, and benches) never touch.
    const util::Ipv4 base{static_cast<std::uint32_t>(
        (198u << 24) | (19u << 16) | (j << 8))};
    members.push_back(attach_vantage(net, util::Prefix{base, 24},
                                     util::Ipv4{base.value() + 1},
                                     /*sav=*/false, mirror_as));
  }
  return members;
}

std::vector<netsim::HostId> attach_capture_vantages(topo::Deployment& world,
                                                    std::uint32_t count) {
  auto& net = world.sim().net();
  return attach_capture_vantages(net, net.host(world.scanner_host()).asn,
                                 count);
}

std::unique_ptr<scan::VantageSet> single_host_scanner(netsim::Simulator& sim,
                                                      netsim::HostId host,
                                                      scan::ScanConfig cfg) {
  auto& net = sim.net();
  const util::Ipv4 capture_addr = net.primary_addr(host);
  auto members = attach_capture_vantages(net, net.host(host).asn, 1);
  return std::make_unique<scan::VantageSet>(sim, std::move(cfg), capture_addr,
                                            std::move(members));
}

}  // namespace odns::honeypot

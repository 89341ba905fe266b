#pragma once
// Deployment helpers for the §3 controlled experiment: attach the
// sensor network (SAV-free, peering directly with the public resolver,
// as the paper's setup requires) and external vantage points for the
// scanning-campaign models and for every transactional scan's capture
// vantages.

#include <memory>
#include <optional>
#include <vector>

#include "honeypot/sensors.hpp"
#include "scan/vantage.hpp"
#include "topo/deployment.hpp"

namespace odns::honeypot {

struct SensorLab {
  netsim::Asn asn = 0;
  util::Ipv4 sensor1_addr;       // IP1
  util::Ipv4 sensor2_recv_addr;  // IP2
  util::Ipv4 sensor2_send_addr;  // IP3 (same /24 as IP2)
  util::Ipv4 sensor3_addr;       // IP4
  std::unique_ptr<ResolverSensor> sensor1;
  std::unique_ptr<InteriorForwarderSensor> sensor2;
  std::unique_ptr<ExteriorForwarderSensor> sensor3;
};

/// Creates the sensor AS (SAV disabled, direct IXP peering with the
/// upstream resolver project's nearest PoP AS) and deploys all three
/// sensors. `block` must be an unused /24.
SensorLab deploy_sensor_lab(topo::Deployment& world, util::Prefix block,
                            util::Ipv4 upstream,
                            util::Duration rate_window =
                                util::Duration::minutes(5));

/// Attaches a standalone external network with one host — used for
/// campaign vantage points (each campaign scans from its own prefix,
/// so sensor rate limiting treats them independently).
///
/// With `mirror_links_of` set, the new AS copies that AS's neighbor
/// list (in order) and internal-hop count instead of linking to the
/// first hub — which makes every route from the vantage hop-identical
/// (same length, same onward AS path) to the same route from the
/// mirrored AS. The multi-vantage census relies on this to keep probe
/// timing byte-identical to the single-vantage scanner's.
netsim::HostId attach_vantage(netsim::Network& net, util::Prefix block,
                              util::Ipv4 host_addr, bool sav = true,
                              std::optional<netsim::Asn> mirror_links_of =
                                  std::nullopt);
netsim::HostId attach_vantage(topo::Deployment& world, util::Prefix block,
                              util::Ipv4 host_addr, bool sav = true,
                              std::optional<netsim::Asn> mirror_links_of =
                                  std::nullopt);

/// Capture fleet of a scan::VantageSet: `count` SAV-free vantage ASes
/// mirroring `mirror_as`'s (the scanner AS's) attachment, one capture
/// host each. Addresses are carved from
/// 198.19.0.0/16 — the upper half of the RFC 2544 benchmarking range,
/// disjoint from the 198.18.0.0/16 blocks the campaign vantages in
/// tests/examples allocate from. Returns the member hosts in pin
/// order — hand them to scan::VantageSet, which registers them as the
/// capture set for the scanner address.
std::vector<netsim::HostId> attach_capture_vantages(netsim::Network& net,
                                                    netsim::Asn mirror_as,
                                                    std::uint32_t count);
std::vector<netsim::HostId> attach_capture_vantages(topo::Deployment& world,
                                                    std::uint32_t count);

/// A single-host scan: a scan::VantageSet of one capture vantage
/// (attach_capture_vantages(net, host's AS, 1)) that probes as, and
/// captures for, `host`'s primary address.
std::unique_ptr<scan::VantageSet> single_host_scanner(netsim::Simulator& sim,
                                                      netsim::HostId host,
                                                      scan::ScanConfig cfg);

}  // namespace odns::honeypot

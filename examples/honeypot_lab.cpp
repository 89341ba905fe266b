// The §3 controlled experiment as a runnable lab: deploy the three
// ODNS honeypot sensors, let the Shadowserver/Censys/Shodan models scan
// them, and show what each campaign believes exists — then contrast
// with a transactional scan that sees all three sensors.
//
//   $ ./examples/honeypot_lab

#include <iostream>

#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "scan/campaigns.hpp"

using namespace odns;

int main() {
  topo::TopologyConfig cfg;
  cfg.scale = 0.002;
  cfg.seed = 7;
  cfg.max_countries = 4;
  auto world = topo::TopologyBuilder::build(cfg);

  std::cout << "Deploying sensor lab (SAV-free network, direct peering "
               "with Google's nearest PoP)...\n";
  auto lab = honeypot::deploy_sensor_lab(
      *world, util::Prefix{util::Ipv4{203, 0, 113, 0}, 24},
      util::Ipv4{8, 8, 8, 8});
  std::cout << "  sensor 1 (recursive resolver)       " << '\t'
            << lab.sensor1_addr.to_string() << "\n"
            << "  sensor 2 (interior transp. fwd)     " << '\t'
            << lab.sensor2_recv_addr.to_string() << " -> replies from "
            << lab.sensor2_send_addr.to_string() << "\n"
            << "  sensor 3 (exterior transp. fwd)     " << '\t'
            << lab.sensor3_addr.to_string() << "\n\n";

  const std::vector<util::Ipv4> targets{lab.sensor1_addr,
                                        lab.sensor2_recv_addr,
                                        lab.sensor2_send_addr,
                                        lab.sensor3_addr};
  std::uint8_t vantage = 1;
  for (const auto kind :
       {scan::CampaignKind::shadowserver, scan::CampaignKind::censys,
        scan::CampaignKind::shodan}) {
    auto campaign = core::run_campaign(
        *world, kind, util::Prefix{util::Ipv4{198, 18, vantage++, 0}, 24},
        targets);
    std::cout << scan::to_string(kind) << " discovered:";
    if (campaign->discovered().empty()) std::cout << " (nothing)";
    for (const auto addr : campaign->discovered()) {
      std::cout << " " << addr.to_string();
    }
    std::cout << "  [saw " << campaign->responses_seen() << " responses, "
              << campaign->responses_dropped_sanitize() << " sanitized]\n";
  }

  std::cout << "\nTransactional scan of the same sensors:\n";
  const auto host = honeypot::attach_vantage(
      *world, util::Prefix{util::Ipv4{198, 18, 9, 0}, 24},
      util::Ipv4{198, 18, 9, 7});
  scan::ScanConfig sc;
  sc.qname = world->scan_name();
  const auto scanner = honeypot::single_host_scanner(world->sim(), host, sc);
  scanner->start({lab.sensor1_addr, lab.sensor2_recv_addr, lab.sensor3_addr});
  scanner->run_to_completion();
  for (const auto& txn : scanner->correlate()) {
    std::cout << "  probe " << txn.target.to_string() << " -> "
              << (txn.answered
                      ? "answered from " + txn.response_src.to_string()
                      : "no answer")
              << "\n";
  }
  std::cout << "\nSensor 3 relayed " << lab.sensor3->relayed()
            << " queries upstream and observed "
            << lab.sensor3->counters().responses_in
            << " responses — the answers bypassed it entirely.\n"
            << "Rate limiter: " << lab.sensor1->limiter().granted()
            << " grants, " << lab.sensor1->limiter().denied()
            << " denials on sensor 1.\n";
  return 0;
}

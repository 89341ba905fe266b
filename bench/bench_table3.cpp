// Table 3: detection of the three honeypot sensors by popular scanning
// campaigns. Paper: Shadowserver finds IP1 and IP3 (not IP2/IP4);
// Censys and Shodan find only IP1. A transactional scan finds all.

#include "bench_common.hpp"
#include "honeypot/lab.hpp"
#include "scan/campaigns.hpp"

using namespace odns;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, /*default_scale=*/0.002);
  bench::print_header("Table 3 — sensor detection by scanning campaigns",
                      args);

  topo::TopologyConfig cfg;
  cfg.scale = args.scale;
  cfg.seed = args.seed;
  auto world = topo::TopologyBuilder::build(cfg);
  auto lab = honeypot::deploy_sensor_lab(
      *world, util::Prefix{util::Ipv4{203, 0, 113, 0}, 24},
      util::Ipv4{8, 8, 8, 8});

  std::cout << "Sensors deployed (resolving via Google, rate limit 1 per "
               "5 min per /24):\n"
            << "  Sensor 1 (recursive resolver):        IP1 = "
            << lab.sensor1_addr.to_string() << "\n"
            << "  Sensor 2 (interior transp. forwarder): IP2 = "
            << lab.sensor2_recv_addr.to_string()
            << ", replies from IP3 = " << lab.sensor2_send_addr.to_string()
            << "\n"
            << "  Sensor 3 (exterior transp. forwarder): IP4 = "
            << lab.sensor3_addr.to_string() << "\n\n";

  const std::vector<util::Ipv4> targets{
      lab.sensor1_addr, lab.sensor2_recv_addr, lab.sensor2_send_addr,
      lab.sensor3_addr};

  auto mark = [](bool found) { return found ? std::string("Y") : "-"; };

  util::Table t({"Scanner", "IP1", "IP2", "IP3", "IP4"});
  std::uint8_t vantage = 0;
  for (const auto kind :
       {scan::CampaignKind::shadowserver, scan::CampaignKind::censys,
        scan::CampaignKind::shodan}) {
    auto campaign = core::run_campaign(
        *world, kind,
        util::Prefix{util::Ipv4{198, 18, vantage, 0}, 24}, targets);
    ++vantage;
    t.add_row({scan::to_string(kind),
               mark(campaign->has_discovered(lab.sensor1_addr)),
               mark(campaign->has_discovered(lab.sensor2_recv_addr)),
               mark(campaign->has_discovered(lab.sensor2_send_addr)),
               mark(campaign->has_discovered(lab.sensor3_addr))});
  }

  // The contrast row: this work's transactional scanner.
  const auto vantage_host = honeypot::attach_vantage(
      *world, util::Prefix{util::Ipv4{198, 18, 9, 0}, 24},
      util::Ipv4{198, 18, 9, 7});
  scan::ScanConfig sc;
  sc.qname = world->scan_name();
  const auto scanner =
      honeypot::single_host_scanner(world->sim(), vantage_host, sc);
  scanner->start({lab.sensor1_addr, lab.sensor2_recv_addr, lab.sensor3_addr});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();
  t.add_row({"Transactional (this work)", mark(txns[0].answered),
             mark(txns[1].answered), "n/a", mark(txns[2].answered)});
  t.print(std::cout);

  std::cout << "\nSensor 3 relayed " << lab.sensor3->relayed()
            << " queries and observed " << lab.sensor3->counters().responses_in
            << " responses (transparent: answers bypass it).\n";
  bench::print_paper_note(
      "Table 3: Shadowserver -> IP1+IP3; Censys/Shodan -> IP1 only; no "
      "campaign discovers a transparent forwarder.");
  return 0;
}

// Design-choice ablations called out in DESIGN.md §5:
//
//  A. Correlation key — (port, TXID) tuples vs IP-only matching: how
//     many responses become unattributable as forwarder fan-in grows.
//  B. Scan-name strategy — static name vs destination-encoded names:
//     resolver cache pollution (the §6 cache-entry argument against
//     query-based campaigns: ">40k cache entries at a single resolver").
//  C. Transport — UDP vs connection-oriented (DoT) through the same
//     transparent device: why the phenomenon is UDP-only (§6).

#include "bench_common.hpp"
#include "honeypot/lab.hpp"
#include "nodes/dot.hpp"
#include "nodes/forwarder.hpp"

using namespace odns;

namespace {

void ablation_correlation(const bench::BenchArgs& args) {
  std::cout << "--- A. Correlation key: tuple vs IP-only -----------------\n";
  topo::TopologyConfig cfg;
  cfg.scale = args.scale;
  cfg.seed = args.seed;
  auto world = topo::TopologyBuilder::build(cfg);
  scan::ScanConfig sc;
  sc.qname = world->scan_name();
  const auto scanner =
      honeypot::single_host_scanner(world->sim(), world->scanner_host(), sc);
  const auto targets = world->scan_targets();
  scanner->start(targets);
  scanner->run_to_completion();

  // Counted before correlate(), which drains the capture buffer.
  const std::unordered_set<util::Ipv4> probed(targets.begin(), targets.end());
  std::uint64_t answered = 0;
  std::uint64_t ip_attributable = 0;
  for (const auto& rec : scanner->capture_of(0)) {
    ++answered;
    if (probed.contains(rec.src)) ++ip_attributable;
  }
  std::uint64_t tuple_attributed = 0;
  for (const auto& txn : scanner->correlate()) {
    if (txn.answered) ++tuple_attributed;
  }
  util::Table t({"Matching strategy", "Responses attributed", "Share"});
  t.add_row({"(port, TXID) tuple", std::to_string(tuple_attributed),
             util::Table::fmt_percent(
                 static_cast<double>(tuple_attributed) /
                     static_cast<double>(answered),
                 1)});
  t.add_row({"response source IP", std::to_string(ip_attributable),
             util::Table::fmt_percent(
                 static_cast<double>(ip_attributable) /
                     static_cast<double>(answered),
                 1)});
  t.print(std::cout);
  std::cout << "IP-only matching loses every transparent-forwarder "
               "transaction (responses arrive from resolver addresses).\n\n";
}

void ablation_cache_pollution(const bench::BenchArgs& args) {
  std::cout << "--- B. Scan name: static vs destination-encoded ----------\n";
  auto run = [&](bool encoded) {
    topo::TopologyConfig cfg;
    cfg.scale = args.scale;
    cfg.seed = args.seed;
    auto world = topo::TopologyBuilder::build(cfg);
    scan::ScanConfig sc;
    sc.qname = world->scan_name();
    if (encoded) {
      sc.qname_for_target = [](util::Ipv4 target) {
        std::string label = target.to_string();
        for (auto& ch : label) {
          if (ch == '.') ch = '-';
        }
        return *dnswire::Name::parse(label + ".q.odns-study.net");
      };
    }
    const auto scanner =
        honeypot::single_host_scanner(world->sim(), world->scanner_host(), sc);
    scanner->start(world->scan_targets());
    scanner->run_to_completion();
    return world->aggregate_resolver_cache_stats();
  };
  const auto static_name = run(false);
  const auto encoded = run(true);
  util::Table t({"Metric", "Static name (this work)", "Encoded names"});
  t.add_row({"Cache entries inserted", std::to_string(static_name.inserts),
             std::to_string(encoded.inserts)});
  t.add_row({"Cache hits", std::to_string(static_name.hits),
             std::to_string(encoded.hits)});
  t.add_row({"Cache evictions", std::to_string(static_name.evictions),
             std::to_string(encoded.evictions)});
  t.print(std::cout);
  std::cout << "Destination-encoded names insert one entry per scanned "
               "target into shared resolver caches — the paper's "
               "cache-pollution argument (§6).\n\n";
}

void ablation_transport(const bench::BenchArgs& args) {
  std::cout << "--- C. Transport: UDP vs DoT through the same device -----\n";
  topo::TopologyConfig cfg;
  cfg.scale = 0.001;
  cfg.seed = args.seed;
  cfg.max_countries = 2;
  auto world = topo::TopologyBuilder::build(cfg);
  auto& net = world->sim().net();

  // A DoT endpoint at a public-resolver PoP.
  const auto pop = world->pops().front();
  const util::Ipv4 dot_addr{pop.egress.value() + 1};
  net.add_host_address(pop.host, dot_addr);
  nodes::DotService dot_service(world->sim(), pop.host,
                                world->control_addr());

  // One device, both redirects.
  const auto& gt = world->ground_truth().front();
  const util::Prefix block{util::Ipv4{203, 0, 113, 0}, 24};
  net.announce(gt.asn, block);
  const util::Ipv4 device_addr{203, 0, 113, 1};
  const auto device = net.add_host(gt.asn, {device_addr});
  world->sim().add_port_redirect(device, nodes::kDnsPort,
                                 util::Ipv4{8, 8, 8, 8});
  world->sim().add_port_redirect(device, nodes::kDotPort, dot_addr);

  // UDP probe from the scanner.
  scan::ScanConfig sc;
  sc.qname = world->scan_name();
  const auto scanner =
      honeypot::single_host_scanner(world->sim(), world->scanner_host(), sc);
  scanner->start({device_addr});
  scanner->run_to_completion();
  const auto txns = scanner->correlate();

  // DoT query from a client host.
  const auto client = net.add_host(gt.asn, {util::Ipv4{203, 0, 113, 2}});
  nodes::DotClient dot_client(world->sim(), client);
  dot_client.query(device_addr, world->scan_name());
  world->sim().run();

  util::Table t({"Transport", "Through transparent device", "Outcome"});
  t.add_row({"UDP/53",
             txns[0].answered ? "answered from " +
                                    txns[0].response_src.to_string()
                              : "no answer",
             txns[0].answered ? "works (relayed, source spoofed)" : "broken"});
  t.add_row({"DoT/853",
             dot_client.answers() > 0 ? "answered" : "handshake failed",
             dot_client.answers() > 0 ? "works" : "broken (SYN-ACK from "
                                                  "unexpected peer)"});
  t.print(std::cout);
  std::cout << "Connection-oriented DNS cannot be transparently forwarded "
               "(§6): the handshake reply bypasses the device.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, /*default_scale=*/0.005);
  bench::print_header("Ablations — design choices behind the method", args);
  ablation_correlation(args);
  ablation_cache_pollution(args);
  ablation_transport(args);
  return 0;
}

// DNSRoute++ exploration: pick a handful of transparent forwarders and
// print their hop-by-hop paths — the hops *behind* the forwarder (up
// to its recursive resolver) are exactly what classic traceroute never
// shows.
//
//   $ ./examples/dnsroute_explore [scale]

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/census.hpp"

using namespace odns;

int main(int argc, char** argv) {
  core::CensusConfig cfg;
  cfg.topology.scale = argc > 1 ? std::atof(argv[1]) : 0.003;
  cfg.topology.seed = 99;

  std::cout << "Running census to find transparent forwarders...\n";
  auto result = core::run_census(cfg);
  std::cout << "Found " << result.census.tf << " transparent forwarders; "
            << "tracing them with DNSRoute++ and showing the first few.\n\n";

  // run_dnsroute releases the scanner address from the census's capture
  // vantages so the tracer on the scanner host sees its own answers.
  const auto routes = core::run_dnsroute(result, /*max_ttl=*/28);
  const std::size_t shown = std::min<std::size_t>(routes.paths.size(), 5);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& path = routes.paths[i];
    std::cout << "dnsroute++ to " << path.target.to_string() << "\n";
    const int limit = path.answer_ttl > 0 ? path.answer_ttl
                                          : static_cast<int>(path.hops.size());
    for (int ttl = 1; ttl < limit; ++ttl) {
      const auto& hop = path.hops[static_cast<std::size_t>(ttl - 1)];
      std::cout << "  " << std::setw(2) << ttl << "  ";
      if (!hop.responded) {
        std::cout << "*";
      } else {
        std::cout << hop.addr.to_string();
        if (auto asn = result.registry.routeviews.origin_of(hop.addr)) {
          std::cout << "  [AS" << *asn << "]";
        }
        if (ttl == path.target_distance) {
          std::cout << "  <-- the transparent forwarder itself";
        }
      }
      std::cout << "\n";
    }
    if (path.got_answer) {
      std::cout << "  " << std::setw(2) << path.answer_ttl << "  "
                << path.resolver.to_string()
                << "  <-- DNS answer (the forwarder's resolver)\n";
      std::cout << "  forwarder -> resolver: "
                << path.forwarder_to_resolver_hops() << " IP hops; path "
                << (path.complete() ? "complete" : "incomplete") << "\n";
    } else {
      std::cout << "  (no DNS answer within TTL budget)\n";
    }
    std::cout << "\n";
  }
  return 0;
}

// Quickstart: build a small synthetic Internet, run the transactional
// scan, classify every open DNS speaker, and print the composition —
// the 60-second tour of the library's core loop.
//
//   $ ./examples/quickstart [scale]
//
// The scale argument (default 0.002) is the fraction of the paper's
// April-2021 ODNS population to instantiate.

#include <cstdlib>
#include <iostream>

#include "core/census.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace odns;

  core::CensusConfig cfg;
  cfg.topology.scale = argc > 1 ? std::atof(argv[1]) : 0.002;
  cfg.topology.seed = 2021;

  std::cout << "Building topology (scale " << cfg.topology.scale
            << ") and scanning...\n";
  auto result = core::run_census(cfg);

  std::cout << "\nProbed " << result.transactions.size()
            << " targets from " << result.world->scanner_addr().to_string()
            << "; " << result.degradation.scan.responses_received
            << " responses captured.\n\n";

  std::cout << "ODNS composition (paper Table 1):\n";
  core::report::table1_composition(result.census).print(std::cout);

  std::cout << "\nTop countries by transparent forwarders (paper Fig. 4):\n";
  core::report::fig4_top_countries(result.census, 10).print(std::cout);

  std::cout << "\nResolver projects used by transparent forwarders "
               "(paper Fig. 5):\n";
  core::report::fig5_project_shares(result.census, 10).print(std::cout);

  // A taste of what stateless scanning misses.
  const auto strict = result.census.odns_total();
  std::cout << "\nA response-source campaign on the same population would "
               "miss all " << result.census.tf << " transparent forwarders ("
            << static_cast<double>(100 * result.census.tf) /
                   static_cast<double>(strict == 0 ? 1 : strict)
            << "% of the ODNS).\n";
  return 0;
}

#pragma once
// Shared plumbing for the per-table/figure bench binaries: flag
// parsing, census construction, and the paper-vs-measured framing that
// EXPERIMENTS.md records.

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/census.hpp"
#include "core/report.hpp"

namespace odns::bench {

[[noreturn]] inline void malformed_flag(const char* prog,
                                        const std::string& flag,
                                        const char* text) {
  std::cerr << prog << ": malformed value for " << flag << ": '" << text
            << "'\n";
  std::exit(64);
}

/// Parses all of `text` as a T, or exits 64: a value that reads as 0 by
/// accident (`--scale=abc`) would silently run a different experiment.
template <typename T>
T parse_flag_value(const char* prog, const std::string& flag,
                   const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc{} || ptr != end) {
    malformed_flag(prog, flag, text);
  }
  return value;
}

struct BenchArgs {
  double scale = 0.02;
  std::uint64_t seed = 2021;

  /// Reads --scale=F (F > 0) and --seed=N. A malformed value or an
  /// unknown flag exits 64; --help prints the usage and exits 0.
  static BenchArgs parse(int argc, char** argv, double default_scale = 0.02) {
    BenchArgs args;
    args.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string flag = arg.substr(0, arg.find('=') + 1);
      const char* val = arg.c_str() + flag.size();
      if (flag == "--scale=") {
        args.scale = parse_flag_value<double>(argv[0], flag, val);
        if (!(args.scale > 0.0)) malformed_flag(argv[0], flag, val);
      } else if (flag == "--seed=") {
        args.seed = parse_flag_value<std::uint64_t>(argv[0], flag, val);
      } else {
        std::cout << "usage: " << argv[0] << " [--scale=F] [--seed=N]\n";
        std::exit(arg == "--help" ? 0 : 64);
      }
    }
    return args;
  }
};

inline core::CensusResult run_standard_census(const BenchArgs& args) {
  core::CensusConfig cfg;
  cfg.topology.scale = args.scale;
  cfg.topology.seed = args.seed;
  return core::run_census(cfg);
}

inline void print_header(const std::string& title, const BenchArgs& args) {
  std::cout << "==========================================================\n"
            << title << "\n"
            << "scale=" << args.scale << " seed=" << args.seed
            << "  (counts are ~scale x the April-2021 population;\n"
            << "   shares, rankings and orderings are the reproduction"
            << " target)\n"
            << "==========================================================\n\n";
}

inline void print_paper_note(const std::string& note) {
  std::cout << "\nPaper reference: " << note << "\n";
}

}  // namespace odns::bench

// Scale-invariance harness for the Internet-scale census: the 10k ->
// 100k (-> opt-in 1M) scale sweep over census worlds, the
// serving-cost partition lever, and the streaming memory audit. The
// claim under test: the forwarder-bank plane and the streaming
// correlation cadence change *how* the census executes, never *what*
// it measures. That both correlation cadences land on the same census
// is pinned by the goldens (tests/golden_test.cpp).

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "core/census.hpp"

namespace odns::core {
namespace {

using classify::census_fingerprint;

/// One digest over everything the census run observed: the census
/// tables plus the correlated transaction log and scanner statistics.
std::string full_fingerprint(const CensusResult& result) {
  std::ostringstream out;
  out << std::hex << census_fingerprint(result.census) << '\n';
  for (const auto& txn : result.transactions) {
    out << txn.target.value() << ',' << txn.sent_at.nanos() << ','
        << txn.answered;
    if (txn.answered) {
      out << ',' << txn.response_src.value() << ','
          << txn.rtt.count_nanos() << ','
          << static_cast<int>(txn.rcode);
      for (const auto a : txn.answer_addrs) out << ',' << a.value();
    }
    out << '\n';
  }
  const auto& stats = result.degradation.scan;
  out << stats.probes_sent << '/' << stats.responses_received << '/'
      << stats.responses_unmatched << '/' << stats.responses_duplicate << '/'
      << stats.responses_late << '/' << stats.parse_errors << '/'
      << stats.icmp_errors << '\n';
  return out.str();
}

// ---------------------------------------------------------------------
// Scale sweep (satellite 2 + the streaming memory audit, satellite 4)
// ---------------------------------------------------------------------

struct TierResult {
  std::size_t hosts = 0;
  classify::Census census;
  scan::VantageSet::StreamStats stream;
  std::uint64_t probes_per_second = 0;
  util::Duration timeout;
  util::Duration flush;
  std::size_t vantage_classes_consistent = 0;
};

TierResult run_tier(double scale, std::uint64_t pps, bool retain) {
  CensusConfig cfg;
  cfg.topology.scale = scale;
  cfg.topology.seed = 97;
  cfg.topology.sim.seed = 97;
  cfg.sim_shards = 4;
  cfg.shard_interleaved_targets = true;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = retain;
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.probes_per_second = pps;
  cfg.correlate_flush = util::Duration::millis(250);
  auto result = run_census(cfg);

  TierResult tier;
  tier.hosts = result.world->ground_truth().size();
  tier.census = std::move(result.census);
  tier.stream = result.stream_stats;
  tier.probes_per_second = pps;
  tier.timeout = cfg.scan_timeout;
  tier.flush = cfg.correlate_flush;
  if (retain) {
    // Vantage-breakdown fingerprint: the per-vantage rows must
    // partition exactly the census composition (the union IS the
    // census — the paper's multi-vantage point).
    const auto rows = classify::vantage_breakdown(result.classified);
    std::uint64_t rr = 0, rf = 0, tf = 0, invalid = 0, unresponsive = 0;
    for (const auto& row : rows) {
      rr += row.rr;
      rf += row.rf;
      tf += row.tf;
      invalid += row.invalid;
      unresponsive += row.unresponsive;
    }
    tier.vantage_classes_consistent =
        (rr == tier.census.rr && rf == tier.census.rf &&
         tf == tier.census.tf && invalid == tier.census.invalid &&
         unresponsive == tier.census.unresponsive)
            ? 1
            : 0;
  }
  return tier;
}

void expect_window_bounded(const TierResult& tier) {
  // The streaming memory audit: the correlator's pending window is
  // bounded by the timeout window (timeout x probe rate), and the
  // per-vantage capture buffers by the flush window — never by the
  // number of hosts in the run.
  const double window_probes =
      tier.timeout.as_seconds() * static_cast<double>(tier.probes_per_second);
  const double flush_records =
      tier.flush.as_seconds() * static_cast<double>(tier.probes_per_second);
  EXPECT_LE(tier.stream.peak_pending_probes,
            static_cast<std::size_t>(1.25 * window_probes) + 512)
      << "pending window grew beyond timeout x rate at " << tier.hosts
      << " hosts";
  EXPECT_LE(tier.stream.peak_buffered_records,
            static_cast<std::size_t>(4.0 * flush_records) + 512)
      << "capture buffer grew beyond the flush window at " << tier.hosts
      << " hosts";
  EXPECT_TRUE(tier.stream.dense_lookup);
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

TEST(ScaleCensus, SweepInvariantsStableFrom10kTo100k) {
  // ~10k hosts at scale 0.005, ~100k at 0.047 (sum of country ODNS
  // populations is ~2.125M at scale 1). Probe rate scales with the
  // tier so the probe span stays well above the timeout window —
  // otherwise "bounded by window" and "bounded by run length" would be
  // indistinguishable.
  const TierResult small = run_tier(0.005, 4000, /*retain=*/true);
  const TierResult large = run_tier(0.047, 40000, /*retain=*/true);
  ASSERT_GE(small.hosts, 8000u);
  ASSERT_LE(small.hosts, 14000u);
  ASSERT_GE(large.hosts, 80000u);
  ASSERT_LE(large.hosts, 130000u);

  for (const TierResult* tier : {&small, &large}) {
    // Conservation: every ground-truth component produced exactly one
    // classified transaction.
    EXPECT_EQ(tier->census.rr + tier->census.rf + tier->census.tf +
                  tier->census.invalid + tier->census.unresponsive,
              tier->hosts);
    EXPECT_EQ(tier->vantage_classes_consistent, 1u);
    expect_window_bounded(*tier);
  }

  // Proportional mixes: class shares are scale-invariant properties of
  // the country profiles, so a 10x bigger world moves them only by
  // quota-rounding noise.
  const std::uint64_t small_total = small.census.odns_total();
  const std::uint64_t large_total = large.census.odns_total();
  EXPECT_NEAR(share(small.census.tf, small_total),
              share(large.census.tf, large_total), 0.02);
  EXPECT_NEAR(share(small.census.rr, small_total),
              share(large.census.rr, large_total), 0.02);
  EXPECT_NEAR(share(small.census.rf, small_total),
              share(large.census.rf, large_total), 0.02);
  // Host population tracks the scale knob linearly.
  const double ratio =
      static_cast<double>(large.hosts) / static_cast<double>(small.hosts);
  EXPECT_NEAR(ratio, 0.047 / 0.005, 1.0);
  // Forwarder counts grow strictly with the world.
  EXPECT_GT(large.census.tf, small.census.tf);
  EXPECT_GT(large.census.rf, small.census.rf);
}

TEST(ScaleCensus, MillionHostTierOptIn) {
  // The 1M tier of the sweep. Slow (minutes): opt in with
  // ODNS_RUN_SLOW_SCALE=1; the bench suite records the same
  // configuration's throughput/RSS in BENCH_netsim.json.
  if (std::getenv("ODNS_RUN_SLOW_SCALE") == nullptr) {
    GTEST_SKIP() << "set ODNS_RUN_SLOW_SCALE=1 to run the 1M-host tier";
  }
  const TierResult huge = run_tier(0.5, 100000, /*retain=*/false);
  EXPECT_GE(huge.hosts, 1000000u);
  EXPECT_EQ(huge.census.rr + huge.census.rf + huge.census.tf +
                huge.census.invalid + huge.census.unresponsive,
            huge.hosts);
  expect_window_bounded(huge);
}

// ---------------------------------------------------------------------
// Serving-cost partition lever (satellite 3)
// ---------------------------------------------------------------------

TEST(ScaleCensus, ServingCostWeightsReduceBusiestShardOnRelayHeavyWorld) {
  // A forwarder-heavy world (first profile country has a large TF
  // share) makes per-target counting misprice virtual shards: a
  // forwarder target costs ~2x a resolver target in events. The lever
  // must reduce the busiest shard's executed events while leaving
  // every result byte-identical.
  auto run_with = [](bool serving_cost) {
    CensusConfig cfg;
    cfg.topology.scale = 0.004;
    cfg.topology.max_countries = 2;
    cfg.topology.seed = 5;
    cfg.topology.sim.seed = 5;
    cfg.sim_shards = 4;
    cfg.shard_interleaved_targets = true;
    cfg.streaming_correlation = true;
    cfg.scan_timeout = util::Duration::seconds(2);
    cfg.serving_cost_weights = serving_cost;
    auto result = run_census(cfg);
    std::uint64_t busiest = 0;
    for (std::uint32_t s = 0; s < result.world->sim().shard_count(); ++s) {
      busiest =
          std::max(busiest, result.world->sim().shard_stats(s).events_executed);
    }
    return std::make_pair(busiest, full_fingerprint(result));
  };
  const auto [busiest_off, fp_off] = run_with(false);
  const auto [busiest_on, fp_on] = run_with(true);
  EXPECT_EQ(fp_on, fp_off) << "partition weighting must be execution-only";
  EXPECT_LT(busiest_on, busiest_off)
      << "serving-cost weights should relieve the busiest shard";
}

}  // namespace
}  // namespace odns::core

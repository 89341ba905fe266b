#include "scan/plan.hpp"

namespace odns::scan {

std::vector<util::Ipv4> interleave_by_virtual_shard(
    const netsim::Simulator& sim, const std::vector<util::Ipv4>& targets) {
  // Group by virtual shard (stable within each group), then emit
  // round-robin across the non-empty groups. Keyed on the virtual
  // partition, the order — and with it every (port, txid) assignment —
  // is independent of the real shard count.
  std::vector<std::vector<util::Ipv4>> groups(
      netsim::Simulator::kVirtualShards);
  for (auto target : targets) {
    groups[sim.virtual_shard_of(target)].push_back(target);
  }
  std::vector<util::Ipv4> ordered;
  ordered.reserve(targets.size());
  for (std::size_t round = 0; ordered.size() < targets.size(); ++round) {
    for (const auto& group : groups) {
      if (round < group.size()) ordered.push_back(group[round]);
    }
  }
  return ordered;
}

VantagePlan VantagePlan::build(const netsim::Simulator& sim,
                               const ScanConfig& cfg,
                               const std::vector<util::Ipv4>& targets) {
  VantagePlan plan;
  plan.gap_ = util::Duration::nanos(static_cast<std::int64_t>(
      1e9 / static_cast<double>(cfg.probes_per_second)));
  const std::vector<util::Ipv4>* paced = &targets;
  std::vector<util::Ipv4> interleaved;
  if (cfg.shard_interleave) {
    interleaved = interleave_by_virtual_shard(sim, targets);
    paced = &interleaved;
  }
  TupleSequencer tuples(cfg.port_base, cfg.port_limit);
  const std::size_t n = paced->size();
  plan.originals_ = n;
  plan.probes_.reserve(n * (1 + cfg.max_retries));
  util::Duration at = util::Duration::nanos(0);
  std::uint32_t index = 0;
  for (auto target : *paced) {
    const auto [port, txid] = tuples.next();
    plan.probes_.push_back(PlannedProbe{target, at, port, txid, index, 0});
    at = at + plan.gap_;
    ++index;
  }
  plan.last_at_ = n == 0 ? util::Duration::nanos(0) : at - plan.gap_;
  // Retransmissions: every original is re-sent unconditionally at
  // exponential-backoff offsets with its own tuple. Unconditional — a
  // cancel-on-answer policy would make the plan depend on response
  // timing (and through capture attribution, on the shard count); the
  // correlator dedups by tuple instead. Because fault decisions are
  // stateless per-packet hashes, appending these entries changes no
  // existing packet's fate — the monotone-recovery property the chaos
  // harness asserts.
  for (std::uint32_t k = 1; k <= cfg.max_retries && n > 0; ++k) {
    const util::Duration delta =
        cfg.backoff_base * static_cast<std::int64_t>((1ull << k) - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      const PlannedProbe& orig = plan.probes_[i];
      plan.probes_.push_back(PlannedProbe{orig.target, orig.at + delta,
                                          orig.src_port, orig.txid, i,
                                          static_cast<std::uint8_t>(k)});
    }
    plan.last_at_ = plan.probes_.back().at;
  }
  return plan;
}

}  // namespace odns::scan

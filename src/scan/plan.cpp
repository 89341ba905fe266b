#include "scan/plan.hpp"

namespace odns::scan {

namespace {

/// Round-robin interleave over the simulator's virtual shards (see
/// ScanConfig::shard_interleave), keyed on each target's owner: returns
/// target indices grouped by the owner AS's virtual shard (stable within
/// a group, ownerless targets in group 0), emitted round-robin across
/// the non-empty groups. Keyed on the virtual partition, the order —
/// and with it every (port, txid) assignment — is independent of the
/// real shard count.
std::vector<std::uint32_t> interleave_by_virtual_shard(
    const netsim::Simulator& sim, const std::vector<netsim::HostId>& owners) {
  constexpr std::uint32_t kGroups = netsim::Simulator::kVirtualShards;
  const auto& net = sim.net();
  std::vector<std::uint8_t> group(owners.size());
  std::vector<std::uint32_t> start(kGroups + 1, 0);
  for (std::size_t i = 0; i < owners.size(); ++i) {
    group[i] = owners[i] == netsim::kInvalidHost
                   ? 0
                   : static_cast<std::uint8_t>(
                         sim.virtual_shard_of_as(net.host(owners[i]).asn));
    ++start[group[i] + 1];
  }
  for (std::uint32_t g = 0; g < kGroups; ++g) start[g + 1] += start[g];
  std::vector<std::uint32_t> grouped(owners.size());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (std::uint32_t i = 0; i < owners.size(); ++i) {
    grouped[fill[group[i]]++] = i;
  }
  std::vector<std::uint32_t> ordered;
  ordered.reserve(owners.size());
  for (std::uint32_t round = 0; ordered.size() < owners.size(); ++round) {
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      if (start[g] + round < start[g + 1]) {
        ordered.push_back(grouped[start[g] + round]);
      }
    }
  }
  return ordered;
}

}  // namespace

VantagePlan VantagePlan::build(const netsim::Simulator& sim,
                               const ScanConfig& cfg,
                               const std::vector<util::Ipv4>& targets) {
  VantagePlan plan;
  plan.gap_ = util::Duration::nanos(static_cast<std::int64_t>(
      1e9 / static_cast<double>(cfg.probes_per_second)));
  // One owner lookup per target: the interleave groups by it and
  // VantageSet::start paces from its shard.
  const std::size_t n = targets.size();
  std::vector<netsim::HostId> owners(n);
  for (std::size_t i = 0; i < n; ++i) {
    owners[i] = sim.net().unicast_owner(targets[i]);
  }
  std::vector<std::uint32_t> order;
  if (cfg.shard_interleave) order = interleave_by_virtual_shard(sim, owners);
  TupleSequencer tuples(cfg.port_base, cfg.port_limit);
  plan.originals_ = n;
  plan.probes_.reserve(n * (1 + cfg.max_retries));
  plan.owners_.reserve(n);
  util::Duration at = util::Duration::nanos(0);
  for (std::uint32_t index = 0; index < n; ++index) {
    const std::uint32_t k = order.empty() ? index : order[index];
    const auto [port, txid] = tuples.next();
    plan.probes_.push_back(
        PlannedProbe{targets[k], at, port, txid, index, 0});
    plan.owners_.push_back(owners[k]);
    at = at + plan.gap_;
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

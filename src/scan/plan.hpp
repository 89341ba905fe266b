#pragma once
// The global probe plan: pacing order (with the optional virtual-shard
// interleave), the (port, TXID) tuple sequence, and absolute send
// offsets — computed up front, before any packet moves. The plan is
// the shard-count- and vantage-count-invariant half of a scan: every
// vantage executes its slice of the same plan, so the probe table,
// every packet's content, and every send instant are identical whether
// one host or a per-shard fleet performs the measurement.

#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/types.hpp"

namespace odns::scan {

/// One planned probe. `at` is the offset from scan start.
struct PlannedProbe {
  util::Ipv4 target;
  util::Duration at = util::Duration::nanos(0);
  std::uint16_t src_port = 0;
  std::uint16_t txid = 0;
  /// Probe-table index this entry answers for: its own index for
  /// original sends, the original's index for retransmissions (which
  /// reuse the original's tuple — the dedup key).
  std::uint32_t origin = 0;
  /// 0 = original send; k = k-th retransmission (ScanConfig::
  /// max_retries), offset backoff_base * (2^k - 1) after the original.
  std::uint8_t attempt = 0;
};

/// The paper's unique-tuple allocator: walks the ephemeral port range,
/// moving to a fresh TXID plane when the port space wraps, so every
/// in-flight probe owns a distinct (port, TXID) pair.
class TupleSequencer {
 public:
  TupleSequencer(std::uint16_t port_base, std::uint16_t port_limit)
      : port_base_(port_base), port_limit_(port_limit),
        next_port_(port_base) {}

  std::pair<std::uint16_t, std::uint16_t> next() {
    const std::uint16_t port = next_port_;
    if (next_port_ >= port_limit_) {
      next_port_ = port_base_;
      ++next_txid_;  // port space wrapped: move to a fresh TXID plane
      if (next_txid_ == 0) next_txid_ = 1;
    } else {
      ++next_port_;
    }
    return {port, next_txid_};
  }

 private:
  std::uint16_t port_base_;
  std::uint16_t port_limit_;
  std::uint16_t next_port_;
  std::uint16_t next_txid_ = 1;
};

/// Round-robin interleave of `targets` over the simulator's virtual
/// shards (see ScanConfig::shard_interleave). Grouping is stable and
/// keyed on the shard-count-independent virtual partition, so the
/// result is identical for any real shard count.
[[nodiscard]] std::vector<util::Ipv4> interleave_by_virtual_shard(
    const netsim::Simulator& sim, const std::vector<util::Ipv4>& targets);

class VantagePlan {
 public:
  VantagePlan() = default;

  /// Computes the full plan for `targets` under `cfg`: ordering
  /// (classic or interleaved), tuple assignment in pacing order, paced
  /// send offsets, and — with cfg.max_retries > 0 — the appended
  /// retransmission entries (originals first, so plan index == probe-
  /// table index for every attempt-0 entry).
  [[nodiscard]] static VantagePlan build(const netsim::Simulator& sim,
                                         const ScanConfig& cfg,
                                         const std::vector<util::Ipv4>& targets);

  [[nodiscard]] const std::vector<PlannedProbe>& probes() const {
    return probes_;
  }
  [[nodiscard]] util::Duration pacing_gap() const { return gap_; }
  /// Offset of the last planned send itself (start for an empty plan).
  [[nodiscard]] util::Duration last_at() const { return last_at_; }
  /// Number of attempt-0 entries (the probe-table prefix of probes()).
  [[nodiscard]] std::size_t original_count() const { return originals_; }

 private:
  std::vector<PlannedProbe> probes_;
  util::Duration gap_ = util::Duration::nanos(0);
  util::Duration last_at_ = util::Duration::nanos(0);
  std::size_t originals_ = 0;
};

}  // namespace odns::scan

#pragma once
// The paper's measurement core (§4.1): an asynchronous Internet-wide
// scan that records the complete DNS transaction — target address,
// client port, transaction ID — and joins responses to probes on the
// unique (port, TXID) tuple, which stays unambiguous even when many
// transparent forwarders relay to the same resolver (Fig. 7).
//
// Every scan is a VantageSet: capture hosts that execute slices of one
// global probe plan (plan.hpp), each with a shard-local probe pacer and
// RawResponse capture buffer. Every join runs through the one
// StreamingCorrelator (stream.hpp), fed the member buffers in
// (time, vantage, seq) order. A single-host scan is a set of one
// (honeypot::single_host_scanner); the census attaches one member per
// shard, so probes are paced on the shard that owns their target and
// responses are captured on the shard that emitted them
// (Simulator::set_vantage_capture) — the capture plane needs no
// cross-shard traffic.
//
// Determinism contract: every probe spoofs the shared capture address
// and follows the plan's global (time, port, txid) schedule, and the
// members' ASes mirror the capture host's AS attachment
// (honeypot::attach_capture_vantages) — so counters, the canonical
// packet trace, transactions, and the downstream classify::Census are
// identical for any shard count and any vantage count
// (tests/golden_test.cpp pins them). See "Multi-vantage census" in
// docs/architecture.md.

#include <functional>
#include <memory>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/plan.hpp"
#include "scan/types.hpp"

namespace odns::scan {

class CaptureVantage;
class StreamingCorrelator;

class VantageSet {
 public:
  /// Registers `member_hosts` as the simulator's capture set for
  /// `capture_addr` (each member's AS must be SAV-free and mirror the
  /// capture host's AS attachment — use
  /// honeypot::attach_capture_vantages) and binds a capture socket +
  /// ICMP sink on every member. Throws std::invalid_argument when
  /// `member_hosts` is empty or `capture_addr` has no unicast owner.
  VantageSet(netsim::Simulator& sim, ScanConfig cfg, util::Ipv4 capture_addr,
             std::vector<netsim::HostId> member_hosts);
  /// Unregisters the capture set.
  ~VantageSet();
  VantageSet(const VantageSet&) = delete;
  VantageSet& operator=(const VantageSet&) = delete;

  /// Builds the global plan and schedules every probe on the vantage
  /// member owning the probed target's shard. Call between runs (all
  /// shard clocks synchronized), then run_to_completion().
  void start(const std::vector<util::Ipv4>& targets);

  /// Runs the simulator until every probe is sent and the timeout
  /// window after the last probe has elapsed.
  void run_to_completion();

  /// Joins the whole capture with the global probe table: one final
  /// flush of the streaming protocol (every buffered record, then
  /// StreamingCorrelator::finish). This drains the member capture
  /// buffers, so read capture_of() first to write or count the raw
  /// capture. Unanswered probes are attributed to the vantage that
  /// sent them.
  [[nodiscard]] std::vector<Transaction> correlate();

  /// Receives each finalized transaction during streaming correlation,
  /// in probe order (see StreamingCorrelator::Sink).
  using TxnSink = std::function<void(std::size_t, Transaction&&)>;

  /// Memory-bound evidence of one streaming run: high-water marks of
  /// the correlator window and the per-member capture buffers — both
  /// bounded by the flush interval and the timeout window, never by
  /// the run length (the scale test's audit surface).
  struct StreamStats {
    std::size_t flushes = 0;
    std::size_t peak_pending_probes = 0;
    std::size_t peak_buffered_records = 0;
    bool dense_lookup = false;
  };

  /// Streaming replacement for run_to_completion() + correlate(): runs
  /// the simulator in `flush_interval` windows and, at each window
  /// barrier, drains the members' capture prefixes (records at or
  /// before the watermark) into the correlator, emitting finalized
  /// transactions to `sink` as their timeout windows close. Executes
  /// the identical event order as run_to_completion() — transactions,
  /// statistics, counters, and traces are identical — while holding
  /// only the in-flight window in memory. Throws std::invalid_argument
  /// unless `flush_interval` is positive (the window cursor could
  /// never advance).
  StreamStats run_and_correlate_streaming(util::Duration flush_interval,
                                          const TxnSink& sink);

  /// Global probe table, in plan order (invariant across shard and
  /// vantage counts).
  [[nodiscard]] const std::vector<SentProbe>& probes() const {
    return probes_;
  }
  /// One member's local capture buffer (the records not yet drained
  /// into the correlator).
  [[nodiscard]] const std::vector<RawResponse>& capture_of(
      std::size_t vantage) const;
  /// Aggregated statistics (field-wise sum over members + correlation).
  [[nodiscard]] ScannerStats stats() const;
  [[nodiscard]] std::size_t vantage_count() const { return members_.size(); }
  [[nodiscard]] const VantagePlan& plan() const { return plan_; }
  [[nodiscard]] util::SimTime last_send_at() const { return last_send_at_; }

 private:
  friend class CaptureVantage;

  /// Merges and consumes every member-capture record at or before
  /// `cutoff` (a time-ordered prefix of each buffer), then compacts
  /// the consumed prefixes.
  void flush_capture(util::SimTime cutoff, StreamingCorrelator& corr,
                     StreamStats& st);
  /// Unanswered probes belong to the vantage that paced them.
  void attribute(std::size_t probe, Transaction& txn) const;

  netsim::Simulator* sim_;
  ScanConfig cfg_;
  util::Ipv4 capture_addr_;
  VantagePlan plan_;
  std::vector<SentProbe> probes_;
  /// Member index that paces probe i (an execution detail: depends on
  /// the shard count through the target's owning shard).
  std::vector<std::uint32_t> sender_;
  std::vector<std::unique_ptr<CaptureVantage>> members_;
  ScannerStats correlate_stats_;
  util::SimTime last_send_at_;
};

}  // namespace odns::scan

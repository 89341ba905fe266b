#pragma once
// The correlator — the post-processing half of §4.1 and the only join
// in the repo: it matches the probe table with the capture log on the
// unique (client port, TXID) tuple. It consumes the capture log in
// merged (time, vantage, seq) order and finalizes a probe's
// transaction as soon as its timeout window has provably closed, so a
// streaming scan holds only the in-flight window (timeout × probe
// rate) in memory, never the whole run. Its callers differ only in
// cadence:
//
//   - VantageSet::run_and_correlate_streaming advances a watermark at
//     every flush window;
//   - VantageSet::correlate() consumes the whole capture, then
//     finish();
//   - correlate_offline (log_io.hpp) does the same over persisted logs.
//
// Equivalence contract: fed the same records in the same order, the
// transactions — values, probe order — and the unmatched/late/duplicate
// statistics do not depend on when advance() is called. The census
// goldens (tests/golden_test.cpp) pin the streaming cadence; the
// retry-correlation tests (tests/fault_plane_test.cpp) drive both.

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "scan/types.hpp"

namespace odns::scan {

class StreamingCorrelator {
 public:
  /// Receives each finalized transaction, in probe-index order. The
  /// index is the probe's position in the global probe table.
  using Sink = std::function<void(std::size_t probe_index, Transaction&&)>;

  /// `probes` must outlive the correlator and stay unchanged during
  /// streaming. Correlation statistics (unmatched/late/duplicate)
  /// accumulate into `stats`. The first in-window response in capture
  /// order wins; later in-window matches count as duplicates, and
  /// stragglers past the original window count late — even when a
  /// retry already concluded the probe. `retry_extension`
  /// (ScanConfig::retry_extension()) widens the accept window for
  /// *unanswered* probes only, so answers elicited by retransmissions
  /// (same tuple, sent up to that much later) still correlate — and
  /// with it each probe's finalization watermark, so a last-retry
  /// answer is never finalized away.
  StreamingCorrelator(const std::vector<SentProbe>& probes,
                      util::Duration timeout, ScannerStats& stats,
                      util::Duration retry_extension = util::Duration::nanos(0));

  /// Feeds one captured record. Records must arrive in the merged
  /// (time, vantage, seq) order, and only up to the watermark of the
  /// next advance() call.
  void consume(RawResponse&& rec);

  /// Finalizes every probe whose timeout window closed at or before
  /// `watermark`: all records at <= watermark have been consumed, so
  /// any future record for such a probe is provably late. Emits the
  /// finalized transactions to `sink` in probe order.
  void advance(util::SimTime watermark, const Sink& sink);

  /// Flushes all remaining probes (end of capture).
  void finish(const Sink& sink);

  /// Probes finalized so far.
  [[nodiscard]] std::size_t emitted() const { return base_; }
  /// Current in-flight window size (pending transaction slots).
  [[nodiscard]] std::size_t pending() const { return window_.size(); }
  /// High-water mark of the in-flight window — the memory-audit
  /// surface: bounded by timeout × probe rate, not by the run length.
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }
  /// True while tuple lookup runs arithmetically against the
  /// TupleSequencer pattern (no per-probe hash map). False only for
  /// plans that do not follow the sequencer, which fall back to the
  /// classic map.
  [[nodiscard]] bool dense_lookup() const { return arithmetic_; }

 private:
  /// Pending per-probe state, live only while the probe's timeout
  /// window is open.
  struct PendingTxn {
    util::Ipv4 response_src;
    util::SimTime responded_at;
    std::vector<util::Ipv4> answer_addrs;
    dnswire::Rcode rcode = dnswire::Rcode::noerror;
    std::uint32_t vantage = 0;
    bool answered = false;
  };

  static constexpr std::size_t kNoProbe = SIZE_MAX;

  [[nodiscard]] std::size_t probe_index_of(std::uint16_t port,
                                           std::uint16_t txid) const;
  void emit_front(const Sink& sink);

  const std::vector<SentProbe>* probes_;
  util::Duration timeout_;
  /// Retry widening of the accept/finalization window (zero without
  /// retransmissions — the classic behaviour).
  util::Duration extension_;
  ScannerStats* stats_;

  // Arithmetic tuple inverse: probe i carries port base_port_ + (i %
  // plane_), and the TupleSequencer bumps the txid while *emitting*
  // the last port of a plane, so txid is 1 + (i + 1) / plane_ once the
  // port space has wrapped (wrapped_) and constant 1 before. Either
  // way (port, txid) -> index is a multiply-add, verified against the
  // probe table — no million-entry hash map on the default path.
  bool arithmetic_ = false;
  bool wrapped_ = false;
  std::uint16_t base_port_ = 0;
  std::size_t plane_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> fallback_;  // non-plan runs

  /// Sliding window of pending transactions for probes
  /// [base_, base_ + window_.size()); probes past the window's end are
  /// sent-but-unmatched and cost nothing until a response arrives.
  std::deque<PendingTxn> window_;
  std::size_t base_ = 0;  // next probe index to finalize
  std::size_t peak_pending_ = 0;
};

}  // namespace odns::scan

#include "scan/stream.hpp"

#include <cassert>

namespace odns::scan {

StreamingCorrelator::StreamingCorrelator(const std::vector<SentProbe>& probes,
                                         util::Duration timeout,
                                         ScannerStats& stats,
                                         util::Duration retry_extension)
    : probes_(&probes), timeout_(timeout), extension_(retry_extension),
      stats_(&stats) {
  // Verify the TupleSequencer pattern once (O(n), allocation-free): the
  // plane is the port-space width, txids start at 1 and advance per
  // wrap. Conformant plans get the arithmetic inverse; anything else
  // (hand-built probe tables, repeated start() calls) falls back to
  // the classic hash join.
  const std::size_t n = probes.size();
  if (n > 0) {
    base_port_ = probes[0].src_port;
    std::size_t plane = n;
    for (std::size_t i = 1; i < n; ++i) {
      if (probes[i].src_port == base_port_) {
        plane = i;
        break;
      }
    }
    const bool wrapped = plane < n;
    bool ok = plane > 0 && (!wrapped || n / plane <= 65534);
    for (std::size_t i = 0; ok && i < n; ++i) {
      const auto port =
          static_cast<std::uint16_t>(base_port_ + i % plane);
      // The sequencer advances the txid while emitting the final port
      // of each plane, so a wrapped plan's txid leads by one position.
      const auto txid = static_cast<std::uint16_t>(
          wrapped ? 1 + (i + 1) / plane : 1);
      ok = probes[i].src_port == port && probes[i].txid == txid;
    }
    if (ok) {
      arithmetic_ = true;
      wrapped_ = wrapped;
      plane_ = plane;
    } else {
      fallback_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        fallback_[(std::uint32_t{probes[i].src_port} << 16) |
                  probes[i].txid] = static_cast<std::uint32_t>(i);
      }
    }
  }
}

std::size_t StreamingCorrelator::probe_index_of(std::uint16_t port,
                                                std::uint16_t txid) const {
  if (arithmetic_) {
    if (txid == 0 || port < base_port_) return kNoProbe;
    const auto off = static_cast<std::size_t>(port - base_port_);
    if (off >= plane_) return kNoProbe;
    std::size_t idx;
    if (!wrapped_) {
      if (txid != 1) return kNoProbe;
      idx = off;
    } else if (off == plane_ - 1) {
      // Last port of a plane carries the already-bumped txid.
      if (txid < 2) return kNoProbe;
      idx = static_cast<std::size_t>(txid - 1) * plane_ - 1;
    } else {
      idx = static_cast<std::size_t>(txid - 1) * plane_ + off;
    }
    if (idx >= probes_->size()) return kNoProbe;
    return idx;
  }
  const std::uint32_t key = (std::uint32_t{port} << 16) | txid;
  auto it = fallback_.find(key);
  return it == fallback_.end() ? kNoProbe : it->second;
}

void StreamingCorrelator::consume(RawResponse&& rec) {
  const std::size_t idx = probe_index_of(rec.dst_port, rec.txid);
  if (idx == kNoProbe) {
    ++stats_->responses_unmatched;
    return;
  }
  const SentProbe& probe = (*probes_)[idx];
  const util::Duration age = rec.at - probe.sent_at;
  if (age > timeout_ + extension_) {
    ++stats_->responses_late;
    return;
  }
  // In-(extended-)window responses can only reference probes not yet
  // finalized: finalization requires sent_at + timeout + extension <=
  // watermark, and every record consumed after that has at >
  // watermark. (The guard keeps adversarial non-plan tuple collisions
  // from corrupting the window.)
  assert(idx >= base_);
  if (idx < base_) {
    ++stats_->responses_late;
    return;
  }
  const std::size_t off = idx - base_;
  if (off >= window_.size()) {
    window_.resize(off + 1);
    peak_pending_ = std::max(peak_pending_, window_.size());
  }
  PendingTxn& slot = window_[off];
  if (slot.answered) {
    // Stragglers on a concluded probe: duplicates within the original
    // window, late past it (e.g. the original's answer after a retry
    // already concluded the probe).
    if (age > timeout_) {
      ++stats_->responses_late;
    } else {
      ++stats_->responses_duplicate;
    }
    return;
  }
  slot.answered = true;
  slot.response_src = rec.src;
  slot.responded_at = rec.at;
  slot.rcode = rec.rcode;
  slot.answer_addrs = std::move(rec.answer_addrs);
  slot.vantage = rec.vantage;
}

void StreamingCorrelator::emit_front(const Sink& sink) {
  const SentProbe& probe = (*probes_)[base_];
  Transaction txn;
  txn.target = probe.target;
  txn.sent_at = probe.sent_at;
  if (!window_.empty()) {
    PendingTxn& slot = window_.front();
    if (slot.answered) {
      txn.answered = true;
      txn.response_src = slot.response_src;
      txn.rtt = slot.responded_at - probe.sent_at;
      txn.rcode = slot.rcode;
      txn.answer_addrs = std::move(slot.answer_addrs);
      txn.vantage = slot.vantage;
    }
    window_.pop_front();
  }
  sink(base_, std::move(txn));
  ++base_;
}

void StreamingCorrelator::advance(util::SimTime watermark, const Sink& sink) {
  while (base_ < probes_->size() &&
         (*probes_)[base_].sent_at + timeout_ + extension_ <= watermark) {
    emit_front(sink);
  }
}

void StreamingCorrelator::finish(const Sink& sink) {
  while (base_ < probes_->size()) emit_front(sink);
}

}  // namespace odns::scan

#pragma once
// Shared value types of the measurement core (§4.1): scan
// configuration, the probe log, the raw capture log, correlated
// transactions, and scanner statistics, shared by the plan builder
// (plan.hpp), the scanner (vantage.hpp), the correlator (stream.hpp),
// and the log persistence (log_io.hpp).

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dnswire/message.hpp"
#include "dnswire/name.hpp"
#include "util/ipv4.hpp"
#include "util/time.hpp"

namespace odns::scan {

struct ScanConfig {
  dnswire::Name qname;                   // static scan name (response-based)
  dnswire::RrType qtype = dnswire::RrType::a;
  /// When set, overrides `qname` per target — the query-based method
  /// encodes the destination into the name (e.g. 20-0-0-1.q.zone).
  std::function<dnswire::Name(util::Ipv4)> qname_for_target;
  util::Duration timeout = util::Duration::seconds(20);  // paper: 20 s
  std::uint64_t probes_per_second = 20000;
  std::uint16_t port_base = 1024;
  std::uint16_t port_limit = 65535;
  /// Extra drain window run_to_completion() appends after the timeout
  /// so straggling in-flight events (late responses, ICMP) settle.
  util::Duration drain_settle = util::Duration::seconds(1);
  /// Reorders the target list round-robin over the simulator's
  /// *virtual* shards (Simulator::kVirtualShards) before pacing, so a
  /// sharded run keeps every shard busy in every pacing window. The
  /// virtual partition is shard-count-independent: the probe schedule
  /// (and therefore every result table) is identical for any shard
  /// count, interleaved or not — this only changes which targets are
  /// adjacent in time. Off by default to preserve the classic order.
  bool shard_interleave = false;
  /// Per-probe retransmission (zmap -P style, unconditional): every
  /// probe is re-sent `max_retries` times at exponential-backoff
  /// offsets — backoff_base * (2^k - 1) after the original send — with
  /// the SAME (port, TXID) tuple. Retries never consult response
  /// state: a cancel-on-answer policy would depend on which vantage
  /// saw the answer first, which depends on the shard count, so the
  /// plan stays shard- and vantage-count-invariant and the correlator
  /// dedups by tuple instead (first in-window response wins, later ones
  /// count as duplicates).
  std::uint32_t max_retries = 0;
  util::Duration backoff_base = util::Duration::seconds(1);
  /// How far past the original timeout window an answer can still
  /// legitimately arrive: the last retry leaves backoff_base *
  /// (2^max_retries - 1) after the original, and its response gets the
  /// full timeout. The correlator widens its match window by this
  /// much for *unanswered* probes (answered probes keep the original
  /// window — stragglers past it count late, see ScannerStats).
  [[nodiscard]] util::Duration retry_extension() const {
    return max_retries == 0
               ? util::Duration::nanos(0)
               : backoff_base *
                     static_cast<std::int64_t>((1ull << max_retries) - 1);
  }
};

struct SentProbe {
  util::Ipv4 target;
  std::uint16_t src_port = 0;
  std::uint16_t txid = 0;
  util::SimTime sent_at;
};

/// One captured datagram — the scanner's dumpcap-equivalent record.
struct RawResponse {
  util::Ipv4 src;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t txid = 0;
  util::SimTime at;
  dnswire::Rcode rcode = dnswire::Rcode::noerror;
  std::vector<util::Ipv4> answer_addrs;
  /// Index of the capture vantage that recorded this datagram (0 in a
  /// set of one). An execution detail: which member
  /// captures a response depends on the shard count, so this field is
  /// excluded from every shard-count-invariant comparison.
  std::uint32_t vantage = 0;
};

/// A correlated transaction: probe joined with its response (if any).
struct Transaction {
  util::Ipv4 target;
  util::SimTime sent_at;
  bool answered = false;
  util::Ipv4 response_src;
  util::Duration rtt;
  dnswire::Rcode rcode = dnswire::Rcode::noerror;
  std::vector<util::Ipv4> answer_addrs;  // A records, in answer order
  /// Capture vantage that recorded the winning response (for
  /// unanswered probes: the vantage that sent the probe). Execution
  /// detail — see RawResponse::vantage.
  std::uint32_t vantage = 0;

  /// First A record: the dynamic resolver-mirror record.
  [[nodiscard]] std::optional<util::Ipv4> dynamic_a() const {
    if (answer_addrs.empty()) return std::nullopt;
    return answer_addrs.front();
  }
  /// Second A record: the static control record.
  [[nodiscard]] std::optional<util::Ipv4> control_a() const {
    if (answer_addrs.size() < 2) return std::nullopt;
    return answer_addrs[1];
  }
};

struct ScannerStats {
  std::uint64_t probes_sent = 0;
  /// Retransmissions on top of probes_sent (ScanConfig::max_retries).
  std::uint64_t probes_retried = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t responses_unmatched = 0;  // no (port, txid) probe
  std::uint64_t responses_duplicate = 0;  // probe already answered,
                                          // within the original window
  /// Stragglers: responses past the original timeout window — whether
  /// the probe was never answered, or a retry already concluded it and
  /// the original's answer limped in afterwards.
  std::uint64_t responses_late = 0;
  std::uint64_t parse_errors = 0;
  /// Captured payloads that failed to decode as DNS — the corrupted-
  /// wire subset of parse_errors (every undecodable capture counts in
  /// both; parse_errors remains the classic total).
  std::uint64_t responses_corrupt = 0;
  std::uint64_t icmp_errors = 0;

  /// Field-wise sum — aggregates per-vantage statistics.
  ScannerStats& operator+=(const ScannerStats& o) {
    probes_sent += o.probes_sent;
    probes_retried += o.probes_retried;
    responses_received += o.responses_received;
    responses_unmatched += o.responses_unmatched;
    responses_duplicate += o.responses_duplicate;
    responses_late += o.responses_late;
    parse_errors += o.parse_errors;
    responses_corrupt += o.responses_corrupt;
    icmp_errors += o.icmp_errors;
    return *this;
  }
};

}  // namespace odns::scan

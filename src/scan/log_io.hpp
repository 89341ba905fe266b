#pragma once
// Persistence for scan artifacts: the probe log, the raw capture
// (dumpcap-equivalent) and correlated transactions serialize to CSV so
// post-processing can happen offline — mirroring the paper's artifact
// pipeline (dns-scan-server produces captures; dns-measurement-analysis
// consumes them).

#include <iosfwd>
#include <vector>

#include "scan/types.hpp"

namespace odns::scan {

void write_probes_csv(std::ostream& os, const std::vector<SentProbe>& probes);
std::vector<SentProbe> read_probes_csv(std::istream& is);

void write_capture_csv(std::ostream& os,
                       const std::vector<RawResponse>& capture);
std::vector<RawResponse> read_capture_csv(std::istream& is);

void write_transactions_csv(std::ostream& os,
                            const std::vector<Transaction>& txns);
std::vector<Transaction> read_transactions_csv(std::istream& is);

/// Offline correlation over persisted logs: the capture, in log order,
/// through the same StreamingCorrelator that VantageSet::correlate()
/// runs online, usable without the simulator. Pass the scan's
/// ScanConfig::retry_extension() so answers that only a retransmission
/// produced correlate as they did online.
std::vector<Transaction> correlate_offline(
    const std::vector<SentProbe>& probes,
    const std::vector<RawResponse>& capture, util::Duration timeout,
    util::Duration retry_extension = util::Duration::nanos(0));

}  // namespace odns::scan

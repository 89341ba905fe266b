#include "scan/log_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "scan/stream.hpp"
#include "util/strings.hpp"

namespace odns::scan {

namespace {

std::string addr_list(const std::vector<util::Ipv4>& addrs) {
  std::string out;
  for (const auto a : addrs) {
    if (!out.empty()) out += ' ';
    out += a.to_string();
  }
  return out;
}

std::vector<util::Ipv4> parse_addr_list(const std::string& field) {
  std::vector<util::Ipv4> out;
  for (const auto& part : util::split(field, ' ')) {
    if (part.empty()) continue;
    if (auto a = util::Ipv4::parse(part)) out.push_back(*a);
  }
  return out;
}

}  // namespace

void write_probes_csv(std::ostream& os, const std::vector<SentProbe>& probes) {
  os << "target,src_port,txid,sent_at_ns\n";
  for (const auto& p : probes) {
    os << p.target.to_string() << ',' << p.src_port << ',' << p.txid << ','
       << p.sent_at.nanos() << '\n';
  }
}

std::vector<SentProbe> read_probes_csv(std::istream& is) {
  std::vector<SentProbe> out;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    const auto fields = util::split(line, ',');
    if (fields.size() != 4) continue;
    SentProbe p;
    const auto target = util::Ipv4::parse(fields[0]);
    if (!target) continue;
    p.target = *target;
    p.src_port = static_cast<std::uint16_t>(std::stoul(fields[1]));
    p.txid = static_cast<std::uint16_t>(std::stoul(fields[2]));
    p.sent_at = util::SimTime::from_nanos(std::stoll(fields[3]));
    out.push_back(p);
  }
  return out;
}

void write_capture_csv(std::ostream& os,
                       const std::vector<RawResponse>& capture) {
  os << "src,src_port,dst_port,txid,at_ns,rcode,answers\n";
  for (const auto& r : capture) {
    os << r.src.to_string() << ',' << r.src_port << ',' << r.dst_port << ','
       << r.txid << ',' << r.at.nanos() << ','
       << static_cast<int>(r.rcode) << ',' << addr_list(r.answer_addrs)
       << '\n';
  }
}

std::vector<RawResponse> read_capture_csv(std::istream& is) {
  std::vector<RawResponse> out;
  std::string line;
  std::getline(is, line);
  while (std::getline(is, line)) {
    const auto fields = util::split(line, ',');
    if (fields.size() != 7) continue;
    RawResponse r;
    const auto src = util::Ipv4::parse(fields[0]);
    if (!src) continue;
    r.src = *src;
    r.src_port = static_cast<std::uint16_t>(std::stoul(fields[1]));
    r.dst_port = static_cast<std::uint16_t>(std::stoul(fields[2]));
    r.txid = static_cast<std::uint16_t>(std::stoul(fields[3]));
    r.at = util::SimTime::from_nanos(std::stoll(fields[4]));
    r.rcode = static_cast<dnswire::Rcode>(std::stoi(fields[5]));
    r.answer_addrs = parse_addr_list(fields[6]);
    out.push_back(r);
  }
  return out;
}

void write_transactions_csv(std::ostream& os,
                            const std::vector<Transaction>& txns) {
  os << "target,answered,response_src,rtt_ns,rcode,answers\n";
  for (const auto& t : txns) {
    os << t.target.to_string() << ',' << (t.answered ? 1 : 0) << ','
       << (t.answered ? t.response_src.to_string() : "") << ','
       << t.rtt.count_nanos() << ',' << static_cast<int>(t.rcode) << ','
       << addr_list(t.answer_addrs) << '\n';
  }
}

std::vector<Transaction> read_transactions_csv(std::istream& is) {
  std::vector<Transaction> out;
  std::string line;
  std::getline(is, line);
  while (std::getline(is, line)) {
    const auto fields = util::split(line, ',');
    if (fields.size() != 6) continue;
    Transaction t;
    const auto target = util::Ipv4::parse(fields[0]);
    if (!target) continue;
    t.target = *target;
    t.answered = fields[1] == "1";
    if (t.answered) {
      if (auto src = util::Ipv4::parse(fields[2])) t.response_src = *src;
    }
    t.rtt = util::Duration::nanos(std::stoll(fields[3]));
    t.rcode = static_cast<dnswire::Rcode>(std::stoi(fields[4]));
    t.answer_addrs = parse_addr_list(fields[5]);
    out.push_back(t);
  }
  return out;
}

std::vector<Transaction> correlate_offline(
    const std::vector<SentProbe>& probes,
    const std::vector<RawResponse>& capture, util::Duration timeout,
    util::Duration retry_extension) {
  ScannerStats stats;  // offline, the statistics have no consumer
  StreamingCorrelator corr(probes, timeout, stats, retry_extension);
  for (const auto& rec : capture) corr.consume(RawResponse(rec));
  std::vector<Transaction> out;
  out.reserve(probes.size());
  corr.finish([&](std::size_t, Transaction&& txn) {
    out.push_back(std::move(txn));
  });
  return out;
}

}  // namespace odns::scan

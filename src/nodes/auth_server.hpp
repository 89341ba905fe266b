#pragma once
// Authoritative name server. Supports ordinary static zones with
// delegations (so recursive resolvers can iterate root → TLD → leaf)
// plus the paper's "recursive mirror" mode: the scan zone's A answer
// carries (1) a dynamic A record mirroring the address of the immediate
// client — which is the recursive resolver that contacted us — and
// (2) a static control A record used to detect in-path manipulation.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nodes/dns_node.hpp"
#include "nodes/ratelimit.hpp"

namespace odns::nodes {

/// A delegation point inside a zone: NS records plus glue addresses.
struct Delegation {
  dnswire::Name child;
  std::vector<dnswire::ResourceRecord> ns_records;
  std::vector<dnswire::ResourceRecord> glue;
};

struct Zone {
  dnswire::Name origin;
  std::uint32_t default_ttl = 3600;
  std::uint32_t negative_ttl = 300;
  std::vector<Delegation> delegations;

  void add_record(dnswire::ResourceRecord rr);
  void add_a(const std::string& name, util::Ipv4 addr,
             std::uint32_t ttl = 3600);
  void delegate(const dnswire::Name& child, const dnswire::Name& ns_host,
                util::Ipv4 glue_addr, std::uint32_t ttl = 86400);

  /// The rrset under dnswire::wire_key(name, type), or nullptr.
  [[nodiscard]] const std::vector<dnswire::ResourceRecord>* find(
      const std::string& key) const;
  /// Whether any record is owned by the name with this name-only key.
  [[nodiscard]] bool has_name(const std::string& name_key) const;
  [[nodiscard]] const Delegation* find_delegation(
      const dnswire::NameView& name) const;

 private:
  // Keyed by dnswire::wire_key: (name, type) and name alone.
  std::unordered_map<std::string, std::vector<dnswire::ResourceRecord>> rrsets_;
  std::unordered_set<std::string> names_;
};

/// Recursive-mirror configuration (§4.1 / Fig. 7).
struct MirrorConfig {
  dnswire::Name name;          // the static scan name, e.g. scan.odns-study.net
  util::Ipv4 control_addr;     // static control record value
  std::uint32_t ttl = 300;
  /// When false, only the dynamic record is emitted (the Shadowserver-
  /// style single-record contract — the ablation in §4.2).
  bool include_control = true;
};

struct QueryLogEntry {
  dnswire::Name qname;
  util::Ipv4 client;
  util::SimTime time;
};

class AuthServer : public DnsNode {
 public:
  AuthServer(netsim::Simulator& sim, netsim::HostId host);

  Zone& add_zone(const dnswire::Name& origin);
  /// Mutable longest-match zone lookup (the zone `name` would be
  /// answered from), or nullptr. Adding records between runs is safe —
  /// zone data is not topology, so the shard partition is untouched.
  [[nodiscard]] Zone* zone_for_mutable(const dnswire::Name& name);
  void set_mirror(MirrorConfig cfg) { mirror_ = std::move(cfg); }
  /// Enables answering any not-otherwise-matched name under a zone with
  /// this address — the query-based (destination-encoded) method needs
  /// every unique subdomain to resolve.
  void set_wildcard_a(util::Ipv4 addr) { wildcard_a_ = addr; }
  void enable_rate_limit(util::Duration window) {
    limiter_.emplace(window);
  }
  void enable_query_log() { log_queries_ = true; }

  /// Binds to port 53 on the host.
  void start();

  [[nodiscard]] std::uint64_t queries_answered() const {
    return queries_answered_;
  }
  [[nodiscard]] const std::vector<QueryLogEntry>& query_log() const {
    return query_log_;
  }
  [[nodiscard]] const PrefixRateLimiter* limiter() const {
    return limiter_ ? &*limiter_ : nullptr;
  }

  /// Arena-native mirror classification: if `query` takes the
  /// recursive-mirror answer, builds the response view in `arena` and
  /// returns true. Together with decode_into/encode_into this is the
  /// zero-heap serving unit the allocation audit drives
  /// (tests/alloc_audit_test.cpp), and the only way mirror queries
  /// are answered. Zone answers are views over the zone's records.
  [[nodiscard]] bool build_mirror_response(dnswire::WireArena& arena,
                                           const dnswire::MessageView& query,
                                           util::Ipv4 client,
                                           dnswire::MessageView& out) const;

 protected:
  void on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;

 private:
  const Zone* zone_for(const dnswire::NameView& qname) const;
  /// `zone`'s answer to the single question `q` of `query` — referral,
  /// answer, wildcard, NODATA or NXDOMAIN — built in the scratch arena.
  dnswire::MessageView zone_response(const Zone& zone,
                                     const dnswire::MessageView& query,
                                     const dnswire::QuestionView& q);

  std::vector<Zone> zones_;
  std::optional<MirrorConfig> mirror_;
  std::optional<util::Ipv4> wildcard_a_;
  std::optional<PrefixRateLimiter> limiter_;
  bool log_queries_ = false;
  std::vector<QueryLogEntry> query_log_;
  std::uint64_t queries_answered_ = 0;
  dnswire::ResourceRecord negative_soa_;  // backs the reply's SOA view
};

}  // namespace odns::nodes

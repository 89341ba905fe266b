#pragma once
// The §4.1 classification rules, applied to correlated transactions:
//
//   Transparent Forwarder : IP_target ≠ IP_response
//   Recursive Forwarder   : IP_target = IP_response ∧ IP_response ≠ A_resolver
//   Recursive Resolver    : IP_target = IP_response ∧ IP_response = A_resolver
//
// plus the validation step this work adds: responses must carry both A
// records with the control record unaltered. Shadowserver-style
// single-record validation is available as an ablation (§4.2 explains
// the count differences it produces).
//
// Transactions come from scan/vantage.hpp; aggregation into the
// paper's tables lives in analysis.hpp. See docs/architecture.md.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scan/types.hpp"

namespace odns::classify {

enum class Klass : std::uint8_t {
  transparent_forwarder,
  recursive_forwarder,
  recursive_resolver,
  invalid,       // answered, but failed validation (manipulated answer)
  unresponsive,  // no answer inside the timeout
};

std::string to_string(Klass k);

struct ClassifyConfig {
  util::Ipv4 control_addr;
  /// Strict (this work): require the dynamic + unaltered control record.
  /// Relaxed (Shadowserver): any positive answer with >= 1 A record.
  bool strict_two_records = true;
};

struct Classified {
  scan::Transaction txn;
  Klass klass = Klass::unresponsive;

  /// The dynamic A record: egress address of the resolver that
  /// contacted the authoritative server. Meaningful for valid answers.
  [[nodiscard]] std::optional<util::Ipv4> resolver_mirror() const {
    return txn.dynamic_a();
  }
};

[[nodiscard]] Klass classify_one(const scan::Transaction& txn,
                                 const ClassifyConfig& cfg);

[[nodiscard]] std::vector<Classified> classify_all(
    const std::vector<scan::Transaction>& txns, const ClassifyConfig& cfg);

}  // namespace odns::classify

#pragma once
// DNS wire codec (RFC 1035 §4), owned-message entry points. Encoding
// applies name compression to every owner name and to names inside
// NS/CNAME/PTR/SOA rdata. Decoding is fully bounds-checked: malformed
// input yields an error, never UB — DNS parsers face attacker-
// controlled bytes.
//
// The one wire implementation is the arena codec (arena_codec.hpp).
// encode() and decode() are bridges over it for callers that want an
// owned Message: view_of + encode_into on a local arena, copied out;
// decode_into + materialize. Per-packet readers decode into their own
// WireArena and read the MessageView instead.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dnswire/message.hpp"
#include "util/result.hpp"

namespace odns::dnswire {

enum class DecodeError {
  truncated,
  label_overflow,
  name_overflow,
  bad_compression_pointer,
  pointer_loop,
  bad_rdata,
  bad_question,
};

std::string to_string(DecodeError e);

/// Serializes a message. Never fails for messages built through the
/// public API (names are validated at construction). Byte-identical to
/// encode_into() on view_of(msg).
std::vector<std::uint8_t> encode(const Message& msg);

/// Parses a message from raw bytes: decode_into() + materialize(), with
/// the same verdict on every input.
util::Result<Message, DecodeError> decode(std::span<const std::uint8_t> wire);

}  // namespace odns::dnswire

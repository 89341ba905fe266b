#include "dnswire/codec.hpp"

#include "dnswire/arena_codec.hpp"

namespace odns::dnswire {

std::string to_string(DecodeError e) {
  switch (e) {
    case DecodeError::truncated: return "truncated";
    case DecodeError::label_overflow: return "label overflow";
    case DecodeError::name_overflow: return "name overflow";
    case DecodeError::bad_compression_pointer: return "bad compression pointer";
    case DecodeError::pointer_loop: return "pointer loop";
    case DecodeError::bad_rdata: return "bad rdata";
    case DecodeError::bad_question: return "bad question";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode(const Message& msg) {
  WireArena arena;
  const auto wire = encode_into(arena, view_of(arena, msg));
  return {wire.begin(), wire.end()};
}

util::Result<Message, DecodeError> decode(std::span<const std::uint8_t> wire) {
  WireArena arena;
  const auto view = decode_into(arena, wire);
  if (!view) return view.error();
  return materialize(view.value());
}

}  // namespace odns::dnswire

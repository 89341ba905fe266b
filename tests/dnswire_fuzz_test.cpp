// Fuzz-style round-trip hardening for the dnswire codec over the seeded
// corpora of testutil.hpp (deterministic, so failures replay):
// randomized messages must encode → decode → re-encode to the
// identical wire image, and the decoder must survive every truncated
// prefix and random corruption of those images without crashing
// (returning a DecodeError is fine; UB is not — the asan-ubsan job runs
// this suite). tests/golden_test.cpp pins the verdicts themselves.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace odns {
namespace {

using dnswire::Message;

TEST(DnswireFuzz, RandomMessagesRoundTripByteExactly) {
  util::Rng rng(0xD15EA5E);
  for (int iter = 0; iter < 200; ++iter) {
    const Message msg = test::corpus::random_message(rng);
    const auto wire = dnswire::encode(msg);
    auto decoded = dnswire::decode(wire);
    ASSERT_TRUE(decoded) << "iteration " << iter;

    // Structural identity on every section (as the wire carries it: an
    // OPT record sends no TTL)...
    const Message expected = test::corpus::on_the_wire(msg);
    EXPECT_EQ(decoded.value().header.id, msg.header.id);
    EXPECT_EQ(decoded.value().header.tc, msg.header.tc);
    EXPECT_EQ(decoded.value().questions, expected.questions);
    EXPECT_EQ(decoded.value().answers, expected.answers);
    EXPECT_EQ(decoded.value().authorities, expected.authorities);
    EXPECT_EQ(decoded.value().additionals, expected.additionals);
    // ...and byte identity through a second encode: decode loses
    // nothing the encoder can see.
    EXPECT_EQ(dnswire::encode(decoded.value()), wire) << "iteration " << iter;
  }
}

/// Decodes `wire` (a value or a DecodeError, never a crash or an
/// overread); whatever still decodes must re-encode to bytes that decode
/// to the same questions.
void expect_reencodes(std::span<const std::uint8_t> wire) {
  const auto first = dnswire::decode(wire);
  if (!first.ok()) return;
  const auto again = dnswire::decode(dnswire::encode(first.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().questions, first.value().questions);
}

TEST(DnswireFuzz, EveryTruncatedPrefixDecodesWithoutCrashing) {
  for (const auto& wire : test::corpus::truncated_inputs()) {
    expect_reencodes(wire);
  }
}

TEST(DnswireFuzz, RandomCorruptionDecodesWithoutCrashing) {
  for (const auto& wire : test::corpus::corrupted_inputs()) {
    expect_reencodes(wire);
  }
}

TEST(DnswireFuzz, PureGarbageBuffersDecodeWithoutCrashing) {
  for (const auto& wire : test::corpus::garbage_inputs()) {
    expect_reencodes(wire);
  }
}

}  // namespace
}  // namespace odns

// Allocation audit for the wire codec (docs/architecture.md,
// "The DNS wire codec"): after warm-up, the serving hot path —
// decode_into → AuthServer::build_mirror_response → encode_into — must
// perform ZERO heap allocations per message. This binary replaces the
// global operator new/delete with counting versions feeding
// test::allocaudit (declared in testutil.hpp); no other test binary
// defines the replacements, so the rest of the suite runs on the stock
// allocator.
//
// The loop body deliberately avoids gtest assertions (they may touch
// the heap); it accumulates plain counters and asserts after the scope
// closes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "testutil.hpp"

// ---------------------------------------------------------------------
// Counting global allocator. Replacement definitions live in exactly
// this translation unit; the counters they feed are the inline atomics
// in testutil.hpp.
// ---------------------------------------------------------------------

namespace {

void* counted_alloc(std::size_t size) {
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  odns::test::allocaudit::deallocations.fetch_add(1,
                                                  std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace odns {
namespace {

using test::MiniWorld;
using test::allocaudit::AllocationScope;
using util::Ipv4;

TEST(AllocAudit, CountingAllocatorIsActuallyHooked) {
  // Guards the zero-assertions below against vacuity: if the
  // replacement operators were not linked in, this fails first.
  AllocationScope scope;
  auto* sink = new std::vector<int>(1024, 7);
  EXPECT_GE(scope.allocations_in_scope(), 1u);
  delete sink;
  EXPECT_GE(scope.deallocations_in_scope(), 1u);
}

TEST(AllocAudit, MirrorServingPathIsZeroAllocationAfterWarmup) {
  MiniWorld world;
  const nodes::AuthServer& auth = *world.auth;

  // A representative scan probe, heap-encoded once up front. The hot
  // loop mutates only the TXID bytes and the mirrored client address,
  // like the real probe stream does.
  auto wire = dnswire::encode(
      dnswire::make_query(0x1234, world.scan_name, dnswire::RrType::a));
  ASSERT_FALSE(wire.empty());

  dnswire::WireArena rx;
  dnswire::WireArena scratch;
  dnswire::WireArena tx;

  const Ipv4 client_base{8, 8, 4, 0};
  auto serve_once = [&](std::uint32_t i, std::size_t& bytes_out) {
    wire[0] = static_cast<std::uint8_t>(i >> 8);
    wire[1] = static_cast<std::uint8_t>(i);
    rx.reset();
    scratch.reset();
    tx.reset();
    auto parsed =
        dnswire::decode_into(rx, std::span<const std::uint8_t>(wire));
    if (!parsed.ok()) return false;
    dnswire::MessageView resp;
    if (!auth.build_mirror_response(scratch, parsed.value(),
                                    Ipv4{client_base.value() + (i % 251)},
                                    resp)) {
      return false;
    }
    const auto out = dnswire::encode_into(tx, resp);
    bytes_out += out.size();
    return !out.empty();
  };

  // Warm-up: grows each arena to its steady-state chunk set.
  std::size_t warm_bytes = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(serve_once(i, warm_bytes));
  }
  const std::size_t rx_chunks = rx.chunk_count();
  const std::size_t scratch_chunks = scratch.chunk_count();
  const std::size_t tx_chunks = tx.chunk_count();

  constexpr std::uint32_t kMessages = 10000;
  std::uint32_t served = 0;
  std::size_t bytes = 0;
  AllocationScope scope;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    if (serve_once(i, bytes)) ++served;
  }
  const std::uint64_t allocs = scope.allocations_in_scope();
  const std::uint64_t frees = scope.deallocations_in_scope();

  EXPECT_EQ(served, kMessages);
  EXPECT_GT(bytes, kMessages * 12u);  // real responses, not empty spans
  EXPECT_EQ(allocs, 0u) << "serving hot path touched the heap";
  EXPECT_EQ(frees, 0u);
  EXPECT_EQ(rx.chunk_count(), rx_chunks);
  EXPECT_EQ(scratch.chunk_count(), scratch_chunks);
  EXPECT_EQ(tx.chunk_count(), tx_chunks);
}

TEST(AllocAudit, ArenaRetainsChunksAcrossReset) {
  dnswire::WireArena arena;
  (void)arena.alloc_array<std::uint8_t>(1000);
  const std::size_t warmed = arena.chunk_count();
  ASSERT_GE(warmed, 1u);

  AllocationScope scope;
  for (int i = 0; i < 1000; ++i) {
    arena.reset();
    (void)arena.alloc_array<std::uint8_t>(1000);
  }
  EXPECT_EQ(scope.allocations_in_scope(), 0u);
  EXPECT_EQ(arena.chunk_count(), warmed);
}

}  // namespace
}  // namespace odns

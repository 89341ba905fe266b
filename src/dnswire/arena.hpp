#pragma once
// Bump allocator backing the DNS wire codec (arena_codec.hpp). A
// WireArena owns a chain of chunks; reset() rewinds the cursor but
// keeps every chunk, so a warmed arena serves an unbounded message
// stream without touching the heap again. See docs/architecture.md,
// "The DNS wire codec" for the lifetime rules.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace odns::dnswire {

class WireArena {
 public:
  WireArena() = default;
  WireArena(const WireArena&) = delete;
  WireArena& operator=(const WireArena&) = delete;

  /// Rewinds the cursor to the start of the first chunk. Every pointer
  /// previously handed out becomes dangling; chunk memory is retained.
  void reset() {
    chunk_ = 0;
    offset_ = 0;
  }

  /// Raw aligned allocation. Never fails for sane sizes (grows a new
  /// chunk when the current one is exhausted).
  void* alloc_bytes(std::size_t size, std::size_t align) {
    if (chunk_ < chunks_.size()) {
      const std::size_t aligned = align_up(offset_, align);
      if (aligned + size <= chunks_[chunk_].size) {
        offset_ = aligned + size;
        return chunks_[chunk_].data.get() + aligned;
      }
    }
    return alloc_slow(size, align);
  }

  /// Typed array allocation; elements are default-constructed. Only
  /// trivially destructible types may live in the arena (reset() never
  /// runs destructors).
  template <typename T>
  std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (n == 0) return {};
    T* mem = static_cast<T*>(alloc_bytes(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) new (mem + i) T();
    return {mem, n};
  }

  template <typename T>
  T* alloc() {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (alloc_bytes(sizeof(T), alignof(T))) T();
  }

  /// Chunks currently owned — stable across reset(); growth after
  /// warm-up is what the allocation audit (tests/alloc_audit_test.cpp)
  /// rules out.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  // Chunks grow geometrically from kMinChunkSize up to kMaxChunkSize.
  // Most arenas belong to simulated edge nodes that only ever see
  // ~100-byte DNS messages; a fixed 64 KiB first chunk retained per
  // node dominated peak RSS at million-host scale (hundreds of
  // thousands of probed resolvers x 2-3 arenas each). Busy nodes reach
  // the 64 KiB steady-state chunk within a few messages, so warmed
  // throughput is unchanged.
  static constexpr std::size_t kMinChunkSize = 512;
  static constexpr std::size_t kMaxChunkSize = 64 * 1024;

  static std::size_t align_up(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  void* alloc_slow(std::size_t size, std::size_t align) {
    // Advance through retained chunks before growing a new one.
    while (chunk_ + 1 < chunks_.size()) {
      ++chunk_;
      offset_ = 0;
      const std::size_t aligned = align_up(offset_, align);
      if (aligned + size <= chunks_[chunk_].size) {
        offset_ = aligned + size;
        return chunks_[chunk_].data.get() + aligned;
      }
    }
    std::size_t grow = chunks_.empty() ? kMinChunkSize
                                       : chunks_.back().size * 2;
    if (grow > kMaxChunkSize) grow = kMaxChunkSize;
    const std::size_t want = size + align > grow ? size + align : grow;
    Chunk c;
    c.data = std::make_unique<std::byte[]>(want);
    c.size = want;
    chunks_.push_back(std::move(c));
    chunk_ = chunks_.size() - 1;
    const std::size_t aligned = align_up(0, align);
    offset_ = aligned + size;
    return chunks_[chunk_].data.get() + aligned;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;
  std::size_t offset_ = 0;
};

}  // namespace odns::dnswire

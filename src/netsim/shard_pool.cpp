#include "netsim/shard_pool.hpp"

#include <chrono>
#include <stdexcept>

namespace odns::netsim {

namespace {

/// Backoff ladder for the phase barrier. The spin budget covers the
/// fine-lookahead regime (phases every few µs); then a waiting worker
/// yields, which keeps oversubscribed machines live, until it has been
/// idle for kParkAfter; past that it parks on the condvar, so idle
/// pools cost nothing between runs. The yield stage is timed, not
/// counted: the spin budget alone lasts ~40 µs and a yield ~0.3 µs,
/// far less than many census windows, and a worker that parks mid-run
/// pays a condvar wake-up at the next window.
constexpr int kSpinIters = 2048;
constexpr std::chrono::microseconds kParkAfter{1000};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

void ShardPool::ensure_started(std::uint32_t n) {
  if (n == 0) {
    throw std::invalid_argument("ShardPool::ensure_started: zero shards");
  }
  if (shards_ != 0) {
    if (shards_ != n) {
      throw std::logic_error(
          "ShardPool::ensure_started: shard count changed under a live pool");
    }
    return;
  }
  shards_ = n;
  workers_.reserve(n - 1);
  for (std::uint32_t shard = 1; shard < n; ++shard) {
    workers_.emplace_back([this, shard] { worker_loop(shard); });
  }
}

void ShardPool::install_phase(const PhaseFn* phase) {
  // Only called from the coordinator between phases (never while a
  // phase is in flight), so a plain store is safe: workers read the
  // pointer only after the acquire on generation_.
  phase_ = phase;
}

void ShardPool::run_phase() {
  if (shards_ == 0 || phase_ == nullptr) {
    throw std::logic_error(
        "ShardPool::run_phase: pool not started or no phase installed");
  }
  done_.store(0, std::memory_order_relaxed);
  // Dekker pattern with the parking path: the coordinator writes
  // generation_ then reads sleepers_, a parking worker writes
  // sleepers_ then reads generation_. Both pairs are seq_cst so the
  // total order guarantees at least one side sees the other — either
  // the coordinator sees the sleeper and notifies, or the sleeper sees
  // the new generation and never waits. Weaker orderings would allow
  // StoreLoad reordering on both sides and a lost wakeup (worker parks
  // forever, run_phase spins on done_ forever).
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(mu_);
    cv_.notify_all();
  }
  // noexcept: a phase that throws ends the program on shard 0 as on
  // the workers, whose phases may still be using the caller's stack.
  [this]() noexcept { (*phase_)(0); }();
  const auto workers = static_cast<std::uint32_t>(workers_.size());
  int spins = 0;
  while (done_.load(std::memory_order_acquire) != workers) {
    if (spins < kSpinIters) {
      cpu_relax();
      ++spins;
    } else {
      std::this_thread::yield();
    }
  }
}

void ShardPool::worker_loop(std::uint32_t shard) {
  std::uint64_t seen = 0;
  while (true) {
    int spins = 0;
    const auto idle_since = std::chrono::steady_clock::now();
    while (generation_.load(std::memory_order_acquire) == seen &&
           !stop_.load(std::memory_order_acquire)) {
      if (spins < kSpinIters) {
        cpu_relax();
        ++spins;
      } else if (std::chrono::steady_clock::now() - idle_since < kParkAfter) {
        std::this_thread::yield();
      } else {
        std::unique_lock lock(mu_);
        // seq_cst pair with run_phase — see the comment there.
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        cv_.wait(lock, [&] {
          return generation_.load(std::memory_order_seq_cst) != seen ||
                 stop_.load(std::memory_order_seq_cst);
        });
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        spins = 0;
      }
    }
    if (stop_.load(std::memory_order_acquire)) return;
    seen = generation_.load(std::memory_order_relaxed);
    // The acquire above orders this read after the coordinator's
    // bump, so phase_ is the current phase's.
    (*phase_)(shard);
    done_.fetch_add(1, std::memory_order_release);
  }
}

void ShardPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  stop_.store(false, std::memory_order_relaxed);
  generation_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  sleepers_.store(0, std::memory_order_relaxed);
  shards_ = 0;
  phase_ = nullptr;
}

}  // namespace odns::netsim


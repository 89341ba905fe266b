#pragma once
// Thread pool for the sharded simulator: shard 0 runs on the
// coordinating thread (the one driving the window loop), every other
// shard on its own long-lived worker thread, all in lockstep phases.
// The window loop installs its phase callable once per run with
// install_phase(); each run_phase() then starts the phase on every
// worker, runs shard 0 itself and blocks until all workers have
// finished — one full barrier per window, which is exactly the
// synchronization the conservative time-window protocol needs, and
// the only one the cross-shard mail vectors get: a window's mail is
// appended before the barrier and drained after it (shard_state.hpp).
//
// The barrier is spin-then-yield: workers and the coordinator spin on
// atomics through a phase transition (windows can be sub-100µs at
// small lookahead, where a condvar round trip per phase would dominate
// the simulation work), degrade to yields, and only park on a condvar
// after ~1ms of idleness — so threads still sleep between runs and on
// oversubscribed machines. Dispatch allocates nothing: the phase
// callable is preinstalled and signalled by a generation bump.
//
// Determinism never depends on thread scheduling: each phase touches
// only shard-owned state (plus the mail vectors the barrier orders),
// so an N-shard run reproduces the 1-shard run's outputs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace odns::netsim {

class ShardPool {
 public:
  using PhaseFn = std::function<void(std::uint32_t shard)>;

  ShardPool() = default;
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;
  ~ShardPool() { shutdown(); }

  /// Sizes the pool for `n` shards: starts the n - 1 workers that run
  /// shards 1..n-1 if not already running (idempotent for equal n).
  /// Throws std::invalid_argument for n == 0 and std::logic_error for
  /// an n other than the running pool's.
  void ensure_started(std::uint32_t n);
  /// Installs the window-loop phase callable. The pointee must stay
  /// alive until the next install_phase() or shutdown(); nothing is
  /// copied, so the per-window dispatch is allocation-free.
  void install_phase(const PhaseFn* phase);
  /// Runs the installed phase as fn(shard) for every shard — shard 0
  /// on the calling thread, the others on the workers — and returns
  /// when all have finished. Throws std::logic_error before
  /// ensure_started() or install_phase().
  void run_phase();
  void shutdown();

 private:
  void worker_loop(std::uint32_t shard);

  /// Worker i runs shard i + 1.
  std::vector<std::thread> workers_;
  /// Shard count the pool was started for (0: not started).
  std::uint32_t shards_ = 0;
  /// Written between phases only; workers read it after the acquire
  /// on generation_.
  const PhaseFn* phase_ = nullptr;
  /// Bumped (release) to start a phase; workers acquire-spin on it.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> stop_{false};
  /// Workers parked on cv_. The generation bump / sleepers check on
  /// the coordinator and the sleepers increment / generation check on
  /// a parking worker are all seq_cst (Dekker pattern), so a
  /// bump-then-notify can never be lost.
  std::atomic<std::uint32_t> sleepers_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace odns::netsim

#pragma once
// Worker-thread pool for the sharded simulator: one long-lived thread
// per shard, driven in lockstep phases by the coordinating thread.
// The window loop installs its (at most two) phase callables once per
// run with install_phases(); run_phase(i) then dispatches phase i to
// every worker and blocks until all have finished — a full barrier on
// both edges, which is exactly the synchronization the conservative
// time-window protocol needs, and the only one the cross-shard mail
// vectors get: sources append during phase 0, destinations drain
// during phase 1.
//
// The barrier is spin-then-yield: workers and the coordinator spin on
// atomics through a phase transition (windows can be sub-100µs at
// small lookahead, where a condvar round trip per phase would dominate
// the simulation work), degrade to yields, and only park on a condvar
// after ~1ms of idleness — so threads still sleep between runs and on
// oversubscribed machines. Dispatch allocates nothing: the phase
// callables are preinstalled and signalled by index.
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

  /// Starts `n` workers if not already running (idempotent for equal n).
  void ensure_started(std::uint32_t n);
  /// Installs the window-loop phase callables. The pointees must stay
  /// alive until the next install_phases() or shutdown(); nothing is
  /// copied, so the per-window dispatch is allocation-free.
  void install_phases(const PhaseFn* window, const PhaseFn* admit);
  /// Runs installed phase `which` (0 = window, 1 = admit) as fn(shard)
  /// on every worker; returns when all have finished.
  void run_phase(std::uint32_t which);
  void shutdown();

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

 private:
  void worker_loop(std::uint32_t index);

  std::vector<std::thread> workers_;
  const PhaseFn* phases_[2] = {nullptr, nullptr};
  /// Phase of the current generation; written before the generation
  /// bump (release) and read after its acquire, like phases_.
  std::uint32_t phase_index_ = 0;
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

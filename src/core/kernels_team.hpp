// The one host-thread executor (DESIGN.md §14): every backend that runs
// more than one host thread (fused, simd, esoteric) calls its serial
// kernel through run_slabs(), which splits the update range into z-slabs
// and runs them on a persistent TeamPool.  The pool belongs to the solver
// rank (Solver, each DistributedSolver or PatchSolver rank) and is lent
// to its backends per call, so a rank parks lanes - 1 workers however
// many patches or backends it drives.
//
// The z-slab split is the intra-rank analogue of the paper's 64-CPE
// partition: each lane writes a disjoint set of cells, so any lane count
// is bit-identical to the serial kernel (tests/kernel_conformance.hpp
// enforces it at 1, 2 and hardware_concurrency lanes).  TeamPool parks
// its workers on a condition variable between steps instead of spawning
// threads per step; all shared state is mutex-protected, so the shipped
// executor is the one the sanitizer builds check.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/common.hpp"

namespace swlb {

/// The canonical z-slab of lane `t` out of `n` over `range`.
inline Box3 team_slab(const Box3& range, int t, int n) {
  const long long nz = range.hi.z - range.lo.z;
  Box3 slab = range;
  slab.lo.z = range.lo.z + static_cast<int>(nz * t / n);
  slab.hi.z = range.lo.z + static_cast<int>(nz * (t + 1) / n);
  return slab;
}

/// Resolve a host-thread request against the hardware: <= 0 means one
/// thread per core (never less than 1), anything else is taken as-is.
inline int resolve_host_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Persistent worker pool: N parked std::threads woken per parallelFor
/// call.  The calling thread runs index 0 itself, workers run 1..n-1.
/// All shared state is mutex-protected (sanitizer-clean); the job body
/// runs outside the lock.  Workers are created lazily on first use and
/// grown on demand; idle extras (when a call asks for fewer lanes) skip
/// the round at the barrier.
class TeamPool {
 public:
  TeamPool() = default;
  TeamPool(const TeamPool&) = delete;
  TeamPool& operator=(const TeamPool&) = delete;

  ~TeamPool() {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    cvWork_.notify_all();
    lock.unlock();
    for (auto& w : workers_) w.join();
  }

  /// Run fn(t) for every t in [0, n) across the team and return when all
  /// lanes finished.  Not reentrant (one parallelFor at a time per pool
  /// — the solvers' step hooks never overlap, see KernelBackend docs).
  void parallelFor(int n, const std::function<void(int)>& fn) {
    if (n <= 1) {
      fn(0);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (static_cast<int>(workers_.size()) < n - 1) {
        const int index = static_cast<int>(workers_.size()) + 1;
        workers_.emplace_back([this, index] { workerLoop(index); });
      }
      job_ = &fn;
      active_ = n;
      pending_ = n - 1;
      ++epoch_;
      cvWork_.notify_all();
    }
    fn(0);
    std::unique_lock<std::mutex> lock(mu_);
    cvDone_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
  }

 private:
  void workerLoop(int index) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cvWork_.wait(lock, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        if (index < active_) job = job_;
      }
      if (job) (*job)(index);
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (index < active_ && --pending_ == 0) cvDone_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cvWork_, cvDone_;
  std::vector<std::thread> workers_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  int active_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

/// Run `fn(slab)` over the z-slabs of `range` on `pool`: `threads` is
/// resolved (<= 0 = one lane per core) and clamped to the z extent.
/// One lane calls `fn(range)` on the calling thread and never starts a
/// pool worker (`pool` may then be null); more lanes need a pool.
template <class Fn>
void run_slabs(TeamPool* pool, const Box3& range, int threads, Fn&& fn) {
  const int nz = range.hi.z - range.lo.z;
  const int n = std::max(1, std::min(resolve_host_threads(threads), nz));
  if (n == 1) {
    fn(range);
    return;
  }
  if (!pool)
    throw Error("run_slabs: " + std::to_string(n) +
                " host lanes requested without a TeamPool");
  pool->parallelFor(n, [&](int t) { fn(team_slab(range, t, n)); });
}

}  // namespace swlb

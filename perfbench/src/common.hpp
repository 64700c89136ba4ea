// Shared helpers of the repository benchmark: timing, benchmark-side
// spans, percentiles, seeded generators' RNG, state hashing and the
// metric table every workload fills.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "io/checkpoint.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// ---- seeded generation ------------------------------------------------------

/// splitmix64: the generator every seeded input of the benchmark uses.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(next() % span);
  }
  /// Uniform real in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

// ---- statistics -------------------------------------------------------------

/// Median (mean of the two middle values for an even count).  Throws on an
/// empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 1).  Refuses (throws swlb::Error) when
/// fewer than 10 samples lie beyond it, so a reported tail is never a
/// single outlier.
double tail_percentile(std::vector<double> v, double p);

// ---- benchmark-side spans ---------------------------------------------------

/// In-memory span log.  Spans wrap calls into the library from the
/// benchmark's own code (never inside src/), are kept in memory and are
/// written out once the workload ends.  A disabled log still times every
/// span (the untraced pass needs the same durations) but records nothing.
class Spans {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  ///< -1: top-level
    int lane = 0;     ///< 0: main thread / rank 0; >0: rank or client lane
    double begin = 0, end = 0;  ///< seconds since the log's epoch
  };

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Reserve an id for a span that starts now (-1 when disabled).
  int open();
  void close(int id, const std::string& name, int parent, int lane,
             Clock::time_point begin, Clock::time_point end);

  std::vector<Span> snapshot() const;
  /// Time budget: seconds per name of the lane-0 top-level spans.
  std::map<std::string, double> budget() const;
  /// Write every span, per-name totals and self times, and the budget
  /// against `wallSeconds`, as JSON.
  void write(const std::string& path, double wallSeconds) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex m_;
  int nextId_ = 0;
  std::vector<Span> spans_;
};

/// RAII span.  Nesting on one thread is tracked automatically; a span
/// started on another thread names its parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(Spans& log, std::string name, int lane = 0, int parent = -2);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// End the span now; returns its duration (idempotent).
  double stop();
  int id() const { return id_; }

 private:
  Spans& log_;
  std::string name_;
  int lane_;
  int parent_;
  int id_;
  Clock::time_point begin_;
  double dur_ = -1;
};

// ---- metrics ----------------------------------------------------------------

/// The metrics one run reports, by name.  Units come from the catalog in
/// workloads.cpp, so a workload sets values only.
using Metrics = std::map<std::string, double>;

/// Counted correctness checks: an operation is a served job or a solver
/// run's end-state check.
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what);
};

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// Storage- and pattern-aware bytes per lattice update, computed (not
/// measured): Q populations read and written, plus a write-allocate fill
/// of the destination lattice under A-B streaming (none in place, where
/// every written line was just read), plus the one-byte mask.
template <class S>
double computed_bytes_per_lup(bool inPlace) {
  const double q = swlb::D3Q19::Q;
  return q * sizeof(S) * (inPlace ? 2.0 : 3.0) + 1.0;
}

/// The bandwidth readout beside an MLUPS figure: core.bytes_per_lup
/// (computed), perf::LbmCostModel's own bytes per update and roof, and the
/// share of the in-run triad bandwidth the kernel sustains (the last two
/// only when the triad is known, triadGbs > 0).
void fill_core_roof(Metrics& m, double mlups, double bytesPerLup,
                    double triadGbs);

/// One checkpoint save plus one restore: checkpoint_s and the io.* figures.
void fill_checkpoint_io(Metrics& m, double saveSeconds, double loadSeconds,
                        double fileBytes);

// ---- state helpers ----------------------------------------------------------

/// Canonical state hash: io::fnv1a over the interior populations in
/// (direction, z, y, x) order, decoded to Real — independent of halo
/// contents, storage layout and in-place phase.
template <class D, class S>
std::uint64_t state_hash(const swlb::Solver<D, S>& s) {
  const swlb::Grid& g = s.grid();
  std::vector<double> row(static_cast<std::size_t>(g.nx));
  std::vector<std::uint64_t> rows;
  rows.reserve(static_cast<std::size_t>(D::Q) * g.ny * g.nz);
  for (int i = 0; i < D::Q; ++i)
    for (int z = 0; z < g.nz; ++z)
      for (int y = 0; y < g.ny; ++y) {
        for (int x = 0; x < g.nx; ++x)
          row[static_cast<std::size_t>(x)] = s.population(i, x, y, z);
        rows.push_back(
            swlb::io::fnv1a(row.data(), row.size() * sizeof(double)));
      }
  return swlb::io::fnv1a(rows.data(), rows.size() * sizeof(std::uint64_t));
}

/// Closed-box mass: a compensated (Neumaier) sum of the populations of
/// every fluid cell.  A plain running sum of millions of populations
/// rounds at ulp(total), which alone moves a 1e5-cell total by ~1e-10.
template <class F>
double fluid_mass(const F& f, const swlb::MaskField& mask,
                  const swlb::MaterialTable& mats) {
  const swlb::Grid& g = f.grid();
  double sum = 0, comp = 0;
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        if (mats[mask(x, y, z)].cls != swlb::CellClass::Fluid) continue;
        for (int i = 0; i < f.q(); ++i) {
          const double v = f(i, x, y, z);
          const double t = sum + v;
          comp += std::abs(sum) >= std::abs(v) ? (sum - t) + v : (v - t) + sum;
          sum = t;
        }
      }
  return sum + comp;
}

/// True when every interior population is finite.
template <class D, class S>
bool populations_finite(const swlb::Solver<D, S>& s) {
  const swlb::Grid& g = s.grid();
  for (int i = 0; i < D::Q; ++i)
    for (int z = 0; z < g.nz; ++z)
      for (int y = 0; y < g.ny; ++y)
        for (int x = 0; x < g.nx; ++x)
          if (!std::isfinite(s.population(i, x, y, z))) return false;
  return true;
}

std::string hex64(std::uint64_t h);
/// Scientific notation for check messages ("1.2e-09").
std::string sci(double v);

}  // namespace perfbench

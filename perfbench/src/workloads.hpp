// The four benchmark workloads, their seeded input generators, and the
// metric catalog they report into (README.md in this directory explains
// why each workload exists and which layer each metric belongs to).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Params {
  std::uint64_t seed = 0;
  double seconds = 10;  ///< timed-loop length (loops also meet a count)
  bool tiny = false;    ///< smoke-test sizes (the self-test)
  int threads = 1;      ///< host threads of the kernel (workloads pin it)
  std::string tmpDir = ".";  ///< checkpoint files land here
  std::string expectHash;    ///< recorded state hash for this seed, if any
  double triadGbs = 0;       ///< in-run bandwidth roof (GB/s), 0 if unknown
};

/// The library's own observability, bound in the traced pass only through
/// the public hooks (obs::ScopedBind, WorldConfig, ServerConfig).
struct Library {
  swlb::obs::Tracer tracer;
  swlb::obs::MetricsRegistry metrics;
};

/// What one pass of a workload measured.
struct PassResult {
  Metrics metrics;
  Checks checks;
  double opSeconds = 0;  ///< mean wall seconds per operation (trace overhead)
};

using WorkloadFn =
    std::function<void(const Params&, Spans&, Library*, PassResult&)>;

struct Workload {
  std::string name;
  WorkloadFn run;
  /// Threads the workload keeps busy (the triad runs at this count).
  std::function<int(int cores)> threads;
};

const std::vector<Workload>& workloads();
const Workload& find_workload(const std::string& name);

/// Metric catalog: name, unit, and whether it is end-to-end (untraced
/// runs) or per-layer (traced runs).  Every run prints every metric of its
/// kind; a per-layer metric a workload does not exercise reads 0.
struct MetricDef {
  std::string name, unit;
  bool endToEnd;
};
const std::vector<MetricDef>& metric_catalog();

/// Run a workload once untraced (trace == false) or, for trace == true, an
/// untraced pass followed by a traced pass whose spans and library
/// histograms give the per-layer metrics.  Returns the metrics of the kind
/// the mode reports plus the counted checks of every pass.
struct RunOutput {
  Metrics metrics;
  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
};
RunOutput run_workload(const Workload& w, const Params& p, bool trace,
                       const std::string& outDir);

/// State hash after the workload's fixed check step count (urban_les and
/// tgv_f16_inplace); used to record the per-seed table.
std::string record_hash(const std::string& workload, const Params& p);

// ---- seeded inputs (exposed for the self-test) ------------------------------

/// Solid blocks of the cavity_patches box.
std::vector<swlb::Box3> cavity_blocks(std::uint64_t seed,
                                      const swlb::Int3& global);

struct JobSpec {
  int nx = 0, ny = 0, nz = 0;
  int steps = 0;
  bool operator==(const JobSpec&) const = default;
};
/// serve_churn job mix: `count` cavity jobs, 8..16 cells per side.
std::vector<JobSpec> job_mix(std::uint64_t seed, int count);

/// tgv_f16_inplace initial velocity at a cell: a Taylor–Green vortex with
/// seeded phases plus a seeded per-cell perturbation.
swlb::Vec3 tgv_velocity(std::uint64_t seed, int n, int x, int y, int z);

/// urban_les city layout: the mask the urban case paints for this seed.
std::vector<std::uint8_t> urban_mask(std::uint64_t seed, bool tiny);

}  // namespace perfbench

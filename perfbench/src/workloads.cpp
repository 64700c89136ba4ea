#include "workloads.hpp"

#include <cstdio>

#include "serve/server.hpp"

namespace perfbench {

void run_urban_les(const Params&, Spans&, Library*, PassResult&);
void run_cavity_patches(const Params&, Spans&, Library*, PassResult&);
void run_serve_churn(const Params&, Spans&, Library*, PassResult&);
void run_tgv_f16_inplace(const Params&, Spans&, Library*, PassResult&);
std::string record_urban_hash(const Params&);
std::string record_tgv_hash(const Params&);

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"urban_les", run_urban_les, [](int cores) { return cores; }},
      {"cavity_patches", run_cavity_patches, [](int) { return 4; }},
      // The server's default workers run every quantum.
      {"serve_churn", run_serve_churn,
       [](int) { return swlb::serve::ServerConfig{}.workers; }},
      {"tgv_f16_inplace", run_tgv_f16_inplace, [](int cores) { return cores; }},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw swlb::Error("unknown workload '" + name + "'");
}

const std::vector<MetricDef>& metric_catalog() {
  static const std::vector<MetricDef> all = {
      // End to end (untraced runs), on every workload.  An operation is a
      // time step on the solver workloads and a served job on serve_churn.
      {"mlups", "MLUP/s", true},
      {"setup_s", "s", true},
      {"peak_rss_mib", "MiB", true},
      {"checkpoint_s", "s", true},
      {"ops_per_s", "1/s", true},
      {"op_p50_s", "s", true},
      {"op_tail_s", "s", true},
      {"ttfs_p50_s", "s", true},
      // Per layer (traced runs).
      {"host.triad_gbs", "GB/s", false},
      {"host.llc_bytes", "B", false},
      {"host.cores", "count", false},
      {"host.threads", "count", false},
      {"core.step_p50_s", "s", false},
      {"core.step_samples", "count", false},
      {"core.bytes_per_lup", "B", false},
      {"core.model_bytes_per_lup", "B", false},
      {"core.bw_util", "ratio", false},
      {"core.model_mlups", "MLUP/s", false},
      {"core.population_bytes", "B", false},
      {"core.mlups_1t", "MLUP/s", false},
      {"core.parallel_eff", "ratio", false},
      {"core.init_s", "s", false},
      {"app.build_case_s", "s", false},
      {"io.save_s", "s", false},
      {"io.load_s", "s", false},
      {"io.save_gbs", "GB/s", false},
      {"io.bytes", "B", false},
      {"io.ckpt_save_p50_s", "s", false},
      {"io.ckpt_restore_p50_s", "s", false},
      {"io.ckpt_bytes_per_job", "B", false},
      {"runtime.step_p50_s", "s", false},
      {"runtime.halo_share", "ratio", false},
      {"runtime.halo_bytes_per_step", "B", false},
      {"runtime.messages_per_step", "count", false},
      {"runtime.rank_skew", "ratio", false},
      {"runtime.imbalance", "ratio", false},
      {"runtime.fluid_imbalance", "ratio", false},
      {"runtime.setup_s", "s", false},
      {"coll.allreduce_p50_s", "s", false},
      {"coll.gather_s", "s", false},
      {"coll.gather_bytes", "B", false},
      {"serve.submit_p50_s", "s", false},
      {"serve.admit_p50_s", "s", false},
      {"serve.turn_gap_p50_s", "s", false},
      {"serve.quantum_p50_s", "s", false},
      {"serve.evictions_per_job", "count", false},
      {"serve.evict_io_share", "ratio", false},
      {"serve.worker_busy_share", "ratio", false},
      {"trace.overhead", "ratio", false},
      {"budget.unaccounted_share", "ratio", false},
  };
  return all;
}

namespace {

/// Largest share of a traced pass's wall time its top-level spans may
/// leave uncovered.
constexpr double kBudgetTolerance = 0.05;

void merge(RunOutput& out, const Checks& c) {
  out.attempted += c.attempted;
  out.failed += c.failed;
  out.failures.insert(out.failures.end(), c.failures.begin(),
                      c.failures.end());
}

}  // namespace

RunOutput run_workload(const Workload& w, const Params& p, bool trace,
                       const std::string& outDir) {
  RunOutput out;
  PassResult plain;
  {
    Spans off(false);
    w.run(p, off, nullptr, plain);
  }
  merge(out, plain.checks);
  if (!trace) {
    for (const MetricDef& d : metric_catalog())
      if (d.endToEnd) out.metrics[d.name] = plain.metrics.at(d.name);
    return out;
  }

  // Traced pass: benchmark-side spans plus the library's own tracer and
  // phase histograms, bound through the public hooks.
  Library lib;
  Spans spans(true);
  PassResult traced;
  const auto t0 = Clock::now();
  w.run(p, spans, &lib, traced);
  const double wall = seconds_since(t0);
  double covered = 0;
  for (const auto& [name, seconds] : spans.budget()) {
    covered += seconds;
    std::fprintf(stderr, "budget %-22s %9.4f s %6.2f %%\n", name.c_str(),
                 seconds, 100 * seconds / wall);
  }
  const double unaccounted = 1.0 - covered / wall;
  traced.checks.expect(
      unaccounted <= kBudgetTolerance && unaccounted >= -kBudgetTolerance,
      w.name + ": top-level spans leave " + std::to_string(unaccounted) +
          " of the traced wall time unaccounted");
  traced.metrics["budget.unaccounted_share"] = unaccounted;
  traced.metrics["trace.overhead"] = traced.opSeconds / plain.opSeconds - 1.0;
  merge(out, traced.checks);

  const std::string stem =
      outDir + "/" + w.name + "-seed" + std::to_string(p.seed);
  spans.write(stem + ".spans.json", wall);
  lib.tracer.writeChromeTrace(stem + ".library-trace.json");

  for (const MetricDef& d : metric_catalog())
    if (!d.endToEnd) {
      const auto it = traced.metrics.find(d.name);
      out.metrics[d.name] = it == traced.metrics.end() ? 0.0 : it->second;
    }
  return out;
}

std::string record_hash(const std::string& workload, const Params& p) {
  if (workload == "urban_les") return record_urban_hash(p);
  if (workload == "tgv_f16_inplace") return record_tgv_hash(p);
  throw swlb::Error("no recorded state hash for workload '" + workload + "'");
}

}  // namespace perfbench

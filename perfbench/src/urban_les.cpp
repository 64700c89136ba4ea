// urban_les: the paper's headline case — a memory-bound fused kernel on
// real geometry, one rank, every host thread, populations far larger than
// the last-level cache.
#include "app/cases.hpp"
#include "solver_loop.hpp"

namespace perfbench {

namespace {

swlb::app::Config urban_config(std::uint64_t seed, bool tiny) {
  swlb::app::Config cfg;
  cfg.set("case", "urban");
  // 256x192x88 holds 1.37 GB of populations (two f64 lattices): over 4x
  // a 300 MiB last-level cache.
  cfg.set("nx", tiny ? "32" : "256");
  cfg.set("ny", tiny ? "24" : "192");
  cfg.set("nz", tiny ? "12" : "88");
  cfg.set("seed", std::to_string(seed % 4294967296ull));
  return cfg;
}

}  // namespace

std::vector<std::uint8_t> urban_mask(std::uint64_t seed, bool tiny) {
  const swlb::app::Case c = swlb::app::build_case(urban_config(seed, tiny));
  const auto& mask = c.solver->mask();
  return std::vector<std::uint8_t>(mask.data(), mask.data() + mask.size());
}

namespace {

SolverWorkload<double> urban(const Params& p,
                             std::vector<double>& buildTimes) {
  SolverWorkload<double> w;
  w.name = "urban_les";
  w.backend = "fused";
  w.build = [&p, &buildTimes](Spans& log) {
    ScopedSpan s(log, "app.build_case");
    swlb::app::Case c = swlb::app::build_case(urban_config(p.seed, p.tiny));
    buildTimes.push_back(s.stop());
    return std::move(c.solver);
  };
  return w;
}

}  // namespace

void run_urban_les(const Params& p, Spans& spans, Library* lib,
                   PassResult& r) {
  std::vector<double> buildTimes;
  run_solver_workload(urban(p, buildTimes), p, spans, lib, r);
  r.metrics["app.build_case_s"] = median(buildTimes);
}

std::string record_urban_hash(const Params& p) {
  std::vector<double> buildTimes;
  return record_state_hash(urban(p, buildTimes), p);
}

}  // namespace perfbench

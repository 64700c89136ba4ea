// tgv_f16_inplace: the only workload on binary16 storage and in-place
// (esoteric) streaming — a periodic all-fluid box small enough to sit in
// the last-level cache, so it is bound by f16 decode, not bandwidth.
#include <numbers>

#include "solver_loop.hpp"

namespace perfbench {

namespace {

int tgv_extent(bool tiny) { return tiny ? 12 : 64; }

}  // namespace

swlb::Vec3 tgv_velocity(std::uint64_t seed, int n, int x, int y, int z) {
  Rng phases(seed);
  const double px = 2 * std::numbers::pi * phases.unit();
  const double py = 2 * std::numbers::pi * phases.unit();
  const double pz = 2 * std::numbers::pi * phases.unit();
  const double k = 2 * std::numbers::pi / n;
  const double a = 0.03, eps = 0.002;
  const auto cell = static_cast<std::uint64_t>(((z + 1) * (n + 2) + y + 1) *
                                                   (n + 2) +
                                               x + 1);
  Rng noise(seed * 0x2545f4914f6cdd1dull + cell);
  const double sx = std::sin(k * x + px), cx = std::cos(k * x + px);
  const double sy = std::sin(k * y + py), cy = std::cos(k * y + py);
  const double cz = std::cos(k * z + pz);
  return {a * sx * cy * cz + eps * (2 * noise.unit() - 1),
          -a * cx * sy * cz + eps * (2 * noise.unit() - 1),
          eps * (2 * noise.unit() - 1)};
}

namespace {

std::unique_ptr<swlb::Solver<swlb::D3Q19, swlb::f16>> build_tgv(
    std::uint64_t seed, bool tiny) {
  const int n = tgv_extent(tiny);
  swlb::CollisionConfig col;
  col.omega = 1.6;
  auto s = std::make_unique<swlb::Solver<swlb::D3Q19, swlb::f16>>(
      swlb::Grid(n, n, n), col, swlb::Periodicity{true, true, true});
  s->finalizeMask();
  s->initField([&](int x, int y, int z, swlb::Real& rho, swlb::Vec3& u) {
    rho = 1.0;
    u = tgv_velocity(seed, n, x, y, z);
  });
  return s;
}

SolverWorkload<swlb::f16> tgv(const Params& p) {
  SolverWorkload<swlb::f16> w;
  w.name = "tgv_f16_inplace";
  w.backend = "esoteric";
  w.build = [&p](Spans& log) {
    ScopedSpan s(log, "core.build_solver");
    return build_tgv(p.seed, p.tiny);
  };
  // A set-up here is cheap, and its first step is one short step that
  // follows the host's load of the moment: many repetitions, spread over
  // the timed loop, give it the same window as the steps.
  w.setupReps = 33;
  w.setupsInLoop = true;
  w.closedBox = true;
  // Binary16 storage rounds every population on every step, so closed-box
  // mass holds to the storage quantization (about 1e-7 after 200 steps),
  // not to f64 round-off.
  w.massTolerance = 1e-6;
  return w;
}

}  // namespace

void run_tgv_f16_inplace(const Params& p, Spans& spans, Library* lib,
                         PassResult& r) {
  run_solver_workload(tgv(p), p, spans, lib, r);
  // Every set-up call of this workload is a core call.
  r.metrics["core.init_s"] = r.metrics["setup_s"];
}

std::string record_tgv_hash(const Params& p) {
  return record_state_hash(tgv(p), p);
}

}  // namespace perfbench

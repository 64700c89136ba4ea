// The single-rank solver workloads (urban_les, tgv_f16_inplace) share one
// shape: repeated set-up, a fixed number of check steps, a state hash, a
// timed step loop, end-state checks and one checkpoint round trip.
#pragma once

#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "obs/context.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr int kCheckSteps = 4;  ///< steps before the state hash
/// Tail percentile of the step time on the solver workloads, and the
/// fewest timed steps that leave 10 samples beyond it.  p75 rather than
/// p90: on a shared host p90 of a step follows neighbours' bursts.
inline constexpr double kStepTail = 0.75;
inline constexpr std::size_t kMinSteps = 40;

template <class S>
struct SolverWorkload {
  using SolverT = swlb::Solver<swlb::D3Q19, S>;
  const char* name;
  std::string backend;
  /// Build the case up to ready-to-step (before backend and threads).
  std::function<std::unique_ptr<SolverT>(Spans&)> build;
  int setupReps = 9;
  /// Repeat the set-up during the timed loop, on throwaway solvers, rather
  /// than before it: the set-up and first-step samples then see the same
  /// stretch of host load as the steps.  Only for a small case, since the
  /// throwaway solver lives next to the running one.
  bool setupsInLoop = false;
  bool closedBox = false;    ///< check mass conservation
  double massTolerance = 0;  ///< relative
};

template <class S>
void run_solver_workload(const SolverWorkload<S>& w, const Params& p,
                         Spans& spans, Library* lib, PassResult& r) {
  using SolverT = typename SolverWorkload<S>::SolverT;
  Metrics& m = r.metrics;

  auto configure = [&](SolverT& s, const std::string& backend, int threads) {
    s.setBackend(backend);
    s.setHostThreads(threads);
  };

  // fused@1 pass: the in-run reference hash (every backend must stay
  // bit-identical to fused at any thread count) for a seed without a
  // recorded hash, and in the traced pass, where it also gives the
  // single-thread baseline when the workload itself runs fused.
  std::string referenceHash;
  if (p.expectHash.empty() || lib) {
    ScopedSpan ref(spans, "core.reference_1t");
    std::unique_ptr<SolverT> s = w.build(spans);
    configure(*s, "fused", 1);
    const auto t0 = Clock::now();
    s->run(kCheckSteps);
    const double sec = seconds_since(t0);
    if (w.backend == "fused")
      m["core.mlups_1t"] = static_cast<double>(s->grid().interiorVolume()) *
                           kCheckSteps / sec / 1e6;
    referenceHash = hex64(state_hash(*s));
  }

  // Bound after the reference pass, so the library's compute.kernel
  // histogram holds only the workload's own backend and thread count.
  std::optional<swlb::obs::ScopedBind> bind;
  if (lib) bind.emplace(&lib->tracer, &lib->metrics);

  // One set-up repetition: start of the workload to ready-to-step, then
  // the cold first step after it (time to first step once ready; set-up
  // itself is setup_s, so it is not counted twice).
  std::vector<double> setup, ttfs, init;
  auto setUp = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<SolverT> s;
    {
      ScopedSpan sp(spans, "setup");
      s = w.build(spans);
      ScopedSpan i(spans, "core.configure");
      configure(*s, w.backend, p.threads);
      init.push_back(i.stop());
    }
    setup.push_back(seconds_since(t0));
    ScopedSpan f(spans, "core.first_step");
    s->step();
    ttfs.push_back(f.stop());
    return s;
  };
  auto tearDown = [&](std::unique_ptr<SolverT>& s) {
    ScopedSpan t(spans, "teardown");
    s.reset();
  };

  std::unique_ptr<SolverT> solver;
  const int setupsBefore = w.setupsInLoop ? 1 : w.setupReps;
  for (int rep = 0; rep < setupsBefore; ++rep) {
    if (solver) tearDown(solver);
    solver = setUp();
  }
  auto setupsDone = [&] { return static_cast<int>(setup.size()); };

  {
    ScopedSpan s(spans, "core.check_steps");
    solver->run(kCheckSteps - solver->stepsDone());
  }
  {
    ScopedSpan s(spans, "check.state_hash");
    const std::string h = hex64(state_hash(*solver));
    if (!p.expectHash.empty())
      r.checks.expect(h == p.expectHash,
                      std::string(w.name) + ": state hash " + h +
                          " != recorded " + p.expectHash);
    if (!referenceHash.empty())
      r.checks.expect(h == referenceHash,
                      std::string(w.name) + ": state hash " + h +
                          " != fused@1 reference " + referenceHash);
  }
  // Both mass readings happen at an even step: the natural layout.
  const double mass0 =
      w.closedBox
          ? fluid_mass(solver->f(), solver->mask(), solver->materials())
          : 0.0;

  // Timed loop: at least `seconds`, at least kMinSteps, and an even step
  // count so an in-place run ends in the natural layout (checkpointable).
  // Set-ups left over (setupsInLoop) are spread evenly over it; their time
  // is not loop time.
  std::vector<double> stepTimes;
  double loopSeconds = 0, pausedSeconds = 0;
  {
    ScopedSpan loop(spans, "core.step_loop");
    const auto t0 = Clock::now();
    auto elapsed = [&] { return seconds_since(t0) - pausedSeconds; };
    const double setupEvery = p.seconds / (w.setupReps - setupsBefore + 1);
    while (elapsed() < p.seconds || stepTimes.size() < kMinSteps ||
           solver->stepsDone() % 2 != 0 || setupsDone() < w.setupReps) {
      if (setupsDone() < w.setupReps &&
          elapsed() >= setupEvery * (setupsDone() - setupsBefore + 1)) {
        const auto tp = Clock::now();
        std::unique_ptr<SolverT> extra = setUp();
        tearDown(extra);
        pausedSeconds += seconds_since(tp);
      }
      ScopedSpan st(spans, "core.step");
      solver->step();
      stepTimes.push_back(st.stop());
    }
    loopSeconds = loop.stop() - pausedSeconds;
  }
  const double cells = static_cast<double>(solver->grid().interiorVolume());
  const double steps = static_cast<double>(stepTimes.size());
  const double mlups = cells * steps / loopSeconds / 1e6;
  r.opSeconds = loopSeconds / steps;

  {
    ScopedSpan s(spans, "check.end_state");
    r.checks.expect(populations_finite(*solver),
                    std::string(w.name) + ": non-finite population");
    if (w.closedBox) {
      const double drift = std::abs(
          fluid_mass(solver->f(), solver->mask(), solver->materials()) /
              mass0 -
          1.0);
      std::cerr << w.name << ": closed-box mass drift " << sci(drift) << "\n";
      r.checks.expect(drift <= w.massTolerance,
                      std::string(w.name) + ": closed-box mass drift " +
                          sci(drift));
    }
  }

  // One full-state checkpoint save and restore; the restore lands in a
  // second field that must equal the live one byte for byte.
  const std::string path = p.tmpDir + "/" + w.name + ".ckpt";
  double saveS = 0, loadS = 0;
  std::uintmax_t fileBytes = 0;
  {
    ScopedSpan s(spans, "io.save_checkpoint");
    swlb::io::save_checkpoint(path, *solver);
    saveS = s.stop();
  }
  fileBytes = std::filesystem::file_size(path);
  {
    typename SolverT::Field scratch;
    typename SolverT::Field* target = &solver->fOther();
    if (target->size() == 0) {
      scratch = typename SolverT::Field(solver->grid(), swlb::D3Q19::Q);
      scratch.setShift(swlb::D3Q19::w);
      target = &scratch;
    }
    {
      ScopedSpan s(spans, "io.load_checkpoint");
      swlb::io::load_checkpoint(path, *target);
      loadS = s.stop();
    }
    ScopedSpan s(spans, "check.round_trip");
    r.checks.expect(
        std::memcmp(target->data(), solver->f().data(), target->bytes()) == 0,
        std::string(w.name) + ": checkpoint round trip is not bit-identical");
  }

  m["mlups"] = mlups;
  m["setup_s"] = median(setup);
  m["peak_rss_mib"] = peak_rss_mib();
  m["ops_per_s"] = steps / loopSeconds;
  m["op_p50_s"] = median(stepTimes);
  m["op_tail_s"] = tail_percentile(stepTimes, kStepTail);
  m["ttfs_p50_s"] = median(ttfs);

  const bool inPlace = solver->backend().info().caps.inPlaceStreaming;
  fill_core_roof(m, mlups, computed_bytes_per_lup<S>(inPlace), p.triadGbs);
  m["core.population_bytes"] = static_cast<double>(solver->populationBytes());
  m["core.init_s"] = median(init);
  if (m.count("core.mlups_1t"))
    m["core.parallel_eff"] = mlups / (m["core.mlups_1t"] * p.threads);
  if (lib) {
    const auto k = lib->metrics.histogramSummary("compute.kernel");
    m["core.step_p50_s"] = k.p50;
    m["core.step_samples"] = static_cast<double>(k.count);
  }
  fill_checkpoint_io(m, saveS, loadS, static_cast<double>(fileBytes));

  ScopedSpan t(spans, "teardown");
  std::filesystem::remove(path);
  solver.reset();
}

/// The state hash a run checks after kCheckSteps, computed the way the run
/// computes it (recorded per seed in expected_hashes.json).
template <class S>
std::string record_state_hash(const SolverWorkload<S>& w, const Params& p) {
  Spans off(false);
  auto s = w.build(off);
  s->setBackend(w.backend);
  s->setHostThreads(p.threads);
  s->run(kCheckSteps);
  return hex64(state_hash(*s));
}

}  // namespace perfbench

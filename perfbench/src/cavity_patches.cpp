// cavity_patches: four in-process ranks run a closed lid-driven cavity on
// the patch runtime, so ghost exchange, messaging and collectives are a
// real share of every step.
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>

#include "runtime/patches.hpp"
#include "solver_loop.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;
constexpr int kPatchesPerRank = 4;
constexpr int kMonitorEvery = 10;  ///< steps between imbalance monitors
constexpr int kSetupReps = 25;

swlb::Int3 cavity_extent(bool tiny) {
  return tiny ? swlb::Int3{24, 24, 8} : swlb::Int3{128, 128, 32};
}

}  // namespace

std::vector<swlb::Box3> cavity_blocks(std::uint64_t seed,
                                      const swlb::Int3& global) {
  // Two floor blocks per xy quadrant, at seeded spots of a 3x3 grid of
  // candidate positions.  Every quadrant (one rank's share under the
  // fluid-weighted split) holds the same solid volume, so the seed moves
  // the geometry and the patch weights but not the work per rank.
  Rng rng(seed);
  const int qx = global.x / 2, qy = global.y / 2;
  const int bx = qx / 4, by = qy / 4;
  std::vector<swlb::Box3> blocks;
  for (int quad = 0; quad < 4; ++quad) {
    std::vector<int> spots = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    rng.shuffle(spots);
    for (int k = 0; k < 2; ++k) {
      const int s = spots[static_cast<std::size_t>(k)];
      const int x0 = (quad % 2) * qx + 1 + (s % 3) * (qx - 2 - bx) / 2;
      const int y0 = (quad / 2) * qy + (s / 3) * (qy - by) / 2;
      blocks.push_back({{x0, y0, 0}, {x0 + bx, y0 + by, global.z / 2}});
    }
  }
  return blocks;
}

void run_cavity_patches(const Params& p, Spans& spans, Library* lib,
                        PassResult& r) {
  using PS = swlb::runtime::PatchSolver<swlb::D3Q19>;
  const swlb::Int3 n = cavity_extent(p.tiny);

  PS::Config cfg;
  cfg.global = n;
  cfg.collision.omega = 1.6;
  cfg.patchesPerRank = kPatchesPerRank;
  cfg.assignment = PS::Assignment::FluidWeighted;
  cfg.rebalanceEvery = 0;  // measured rebalancing would follow timing noise
  cfg.backend = "fused";
  cfg.hostThreads = 1;
  const std::vector<swlb::Box3> blocks = cavity_blocks(p.seed, n);

  swlb::runtime::WorldConfig wc;  // no synthetic latency
  if (lib) {
    wc.tracer = &lib->tracer;
    wc.metrics = &lib->metrics;
  }

  // Written by the rank threads, read after World::run has joined them.
  std::vector<double> setup, ttfs, stepTimes, allreduceTimes;
  std::vector<swlb::runtime::CommStats> before(kRanks), after(kRanks);
  std::vector<double> busy(kRanks, 0.0);
  double loopSeconds = 0, gatherSeconds = 0, imbalance = 0,
         fluidImbalance = 0, mass0 = 0, mass1 = 0, popBytes = 0;
  std::uint64_t gatherBytes = 0, steps = 0;
  bool finite = true;
  swlb::PopulationField gathered;

  std::unique_ptr<swlb::runtime::World> world;
  {
    ScopedSpan s(spans, "runtime.world");
    world = std::make_unique<swlb::runtime::World>(kRanks, wc);
  }
  auto rankFn = [&](swlb::runtime::Comm& comm) {
    const int rank = comm.rank();
    const bool root = rank == 0;
    auto build = [&] {
      auto ps = std::make_unique<PS>(comm, cfg);
      // Solid x-walls under a lid spanning them: every diagonal link a
      // fluid cell sends up hits the lid, so the lid's momentum terms
      // cancel pairwise and the box conserves mass to round-off.
      ps->paintGlobal({{0, 0, 0}, {1, n.y, n.z}}, swlb::MaterialTable::kSolid);
      ps->paintGlobal({{n.x - 1, 0, 0}, {n.x, n.y, n.z}},
                      swlb::MaterialTable::kSolid);
      const auto lid = ps->materials().addMovingWall({0.05, 0, 0});
      ps->paintGlobal({{0, 0, n.z - 1}, {n.x, n.y, n.z}}, lid);
      for (const swlb::Box3& b : blocks)
        ps->paintGlobal(b, swlb::MaterialTable::kSolid);
      ps->finalizeMask();
      ps->initUniform(1.0, {0, 0, 0});
      return ps;
    };
    auto closedMass = [&](PS& ps) {
      swlb::PopulationField g = ps.gatherPopulations(0);
      return root ? fluid_mass(g, ps.globalMask(), ps.materials()) : 0.0;
    };

    std::unique_ptr<PS> ps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (ps) {
        ScopedSpan t(spans, "teardown", rank);
        ps.reset();
      }
      {
        ScopedSpan b(spans, "runtime.barrier", rank);
        comm.barrier();
      }
      const auto t0 = Clock::now();
      {
        ScopedSpan s(spans, "runtime.setup", rank);
        ps = build();
        comm.barrier();
      }
      if (root) setup.push_back(seconds_since(t0));
      if (rep == 0) {
        ScopedSpan s(spans, "check.initial_mass", rank);
        const double m = closedMass(*ps);
        if (root) mass0 = m;
      }
      const auto t1 = Clock::now();
      {
        ScopedSpan f(spans, "runtime.first_step", rank);
        ps->step();
        comm.barrier();
      }
      if (root) ttfs.push_back(seconds_since(t1));
    }

    before[static_cast<std::size_t>(rank)] = comm.stats();
    const double busy0 = ps->computeSeconds();
    {
      ScopedSpan loop(spans, "runtime.step_loop", rank);
      comm.barrier();
      const auto t0 = Clock::now();
      for (std::uint64_t k = 1;; ++k) {
        {
          ScopedSpan st(spans, "runtime.step", rank);
          ps->step();
          const double dt = st.stop();
          if (root) stepTimes.push_back(dt);
        }
        if (k % kMonitorEvery != 0) continue;
        {
          ScopedSpan mon(spans, "runtime.monitor", rank);
          const double imb = ps->measuredImbalance();
          if (root) imbalance = imb;
        }
        ScopedSpan ar(spans, "coll.allreduce", rank);
        const double elapsed =
            comm.allreduce(seconds_since(t0), swlb::runtime::Comm::Op::Max);
        const double arS = ar.stop();
        if (root) allreduceTimes.push_back(arS);
        if (elapsed >= p.seconds && k >= kMinSteps) {
          if (root) steps = k;
          break;
        }
      }
      comm.barrier();
      if (root) loopSeconds = seconds_since(t0);
    }
    busy[static_cast<std::size_t>(rank)] = ps->computeSeconds() - busy0;
    after[static_cast<std::size_t>(rank)] = comm.stats();

    const auto statsBefore = comm.stats();
    {
      ScopedSpan g(spans, "coll.gather", rank);
      swlb::PopulationField out = ps->gatherPopulations(0);
      const double gs = g.stop();
      if (root) {
        gatherSeconds = gs;
        gatherBytes = comm.stats().bytesReceived - statsBefore.bytesReceived;
        gathered = std::move(out);
      }
    }
    if (root) {
      ScopedSpan c(spans, "check.end_state", rank);
      mass1 = fluid_mass(gathered, ps->globalMask(), ps->materials());
      for (std::size_t i = 0; i < gathered.size(); ++i)
        if (!std::isfinite(gathered.data()[i])) finite = false;
      fluidImbalance = swlb::runtime::PatchLayout::rankImbalance(
          ps->owners(),
          ps->layout().fluidWeights(ps->globalMask(), ps->materials()),
          comm.size());
      for (int id = 0; id < ps->layout().patchCount(); ++id) {
        const swlb::Box3 b = ps->layout().boxOf(id);
        popBytes += 2.0 * swlb::D3Q19::Q * sizeof(double) *
                    static_cast<double>(b.hi.x - b.lo.x + 2) *
                    (b.hi.y - b.lo.y + 2) * (b.hi.z - b.lo.z + 2);
      }
    }
    ScopedSpan t(spans, "teardown", rank);
    ps.reset();
  };
  world->run(rankFn);

  r.checks.expect(finite, "cavity_patches: non-finite gathered population");
  const double drift = std::abs(mass1 / mass0 - 1.0);
  std::cerr << "cavity_patches: closed-box mass drift " << sci(drift) << "\n";
  r.checks.expect(drift <= 1e-12, "cavity_patches: closed-box mass drift " +
                                      sci(drift));

  // Save and restore the gathered global state.
  const std::string path = p.tmpDir + "/cavity_patches.ckpt";
  double saveS = 0, loadS = 0;
  {
    ScopedSpan s(spans, "io.save_checkpoint");
    swlb::io::save_checkpoint(path, gathered, steps, 0);
    saveS = s.stop();
  }
  const auto fileBytes = std::filesystem::file_size(path);
  {
    swlb::PopulationField back(gathered.grid(), swlb::D3Q19::Q);
    {
      ScopedSpan s(spans, "io.load_checkpoint");
      swlb::io::load_checkpoint(path, back);
      loadS = s.stop();
    }
    ScopedSpan s(spans, "check.round_trip");
    r.checks.expect(std::memcmp(back.data(), gathered.data(),
                                gathered.size() * sizeof(double)) == 0,
                    "cavity_patches: checkpoint round trip is not "
                    "bit-identical");
  }
  std::filesystem::remove(path);
  {
    ScopedSpan s(spans, "teardown");
    gathered = swlb::PopulationField();
    world.reset();
  }

  Metrics& m = r.metrics;
  const double cells = static_cast<double>(n.x) * n.y * n.z;
  const double mlups = cells * static_cast<double>(steps) / loopSeconds / 1e6;
  r.opSeconds = loopSeconds / static_cast<double>(steps);
  m["mlups"] = mlups;
  m["setup_s"] = median(setup);
  m["peak_rss_mib"] = peak_rss_mib();
  m["ops_per_s"] = static_cast<double>(steps) / loopSeconds;
  m["op_p50_s"] = median(stepTimes);
  m["op_tail_s"] = tail_percentile(stepTimes, kStepTail);
  m["ttfs_p50_s"] = median(ttfs);

  double msgs = 0, bytes = 0, busyMax = 0, busySum = 0;
  for (int k = 0; k < kRanks; ++k) {
    const auto& b = before[static_cast<std::size_t>(k)];
    const auto& a = after[static_cast<std::size_t>(k)];
    msgs += static_cast<double>(a.messagesSent - b.messagesSent);
    bytes += static_cast<double>(a.bytesSent - b.bytesSent);
    busyMax = std::max(busyMax, busy[static_cast<std::size_t>(k)]);
    busySum += busy[static_cast<std::size_t>(k)];
  }
  m["runtime.step_p50_s"] = median(stepTimes);
  m["runtime.messages_per_step"] = msgs / static_cast<double>(steps);
  m["runtime.halo_bytes_per_step"] = bytes / static_cast<double>(steps);
  m["runtime.rank_skew"] = busyMax / (busySum / kRanks);
  m["runtime.imbalance"] = imbalance;
  m["runtime.fluid_imbalance"] = fluidImbalance;
  m["runtime.setup_s"] = median(setup);
  m["coll.allreduce_p50_s"] = median(allreduceTimes);
  m["coll.gather_s"] = gatherSeconds;
  m["coll.gather_bytes"] = static_cast<double>(gatherBytes);
  fill_core_roof(m, mlups, computed_bytes_per_lup<double>(false),
                 p.triadGbs);
  m["core.population_bytes"] = popBytes;
  if (lib) {
    // Library-recorded phase histograms (merged over the four ranks).
    const auto step = lib->metrics.histogramSummary("step");
    const auto exch = lib->metrics.histogramSummary("patch.exchange");
    const auto comp = lib->metrics.histogramSummary("patch.compute");
    m["runtime.halo_share"] = step.total > 0 ? exch.total / step.total : 0;
    m["core.step_p50_s"] = comp.p50;
    m["core.step_samples"] = static_cast<double>(comp.count);
  }
  fill_checkpoint_io(m, saveS, loadS, static_cast<double>(fileBytes));
}

}  // namespace perfbench

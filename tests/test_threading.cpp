// The host-thread executor (run_slabs over a TeamPool): disjoint z-slab
// writes make any lane count bit-identical to the serial fused kernel,
// and each solver rank parks one pool however many backends it drives.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <iterator>
#include <thread>

#include "core/solver.hpp"
#include "runtime/patches.hpp"

namespace swlb {
namespace {

class ThreadCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountSweep, BitIdenticalToSerialKernel) {
  const int threads = GetParam();
  auto run = [&](int n) {
    CollisionConfig cfg;
    cfg.omega = 1.4;
    Solver<D3Q19> solver(Grid(12, 10, 9), cfg, Periodicity{true, true, true});
    solver.setHostThreads(n);
    const auto lidLess = solver.materials().addMovingWall({0.03, 0, 0});
    solver.paint({{2, 2, 2}, {5, 5, 5}}, MaterialTable::kSolid);
    solver.paint({{8, 3, 3}, {10, 6, 6}}, lidLess);
    solver.finalizeMask();
    solver.initField([](int x, int y, int z, Real& rho, Vec3& u) {
      rho = 1.0 + 0.003 * ((x * 3 + y * 5 + z * 7) % 11);
      u = {0.02 * std::sin(0.4 * y), 0.01 * std::cos(0.6 * z), 0.005};
    });
    solver.run(12);
    return solver;
  };
  Solver<D3Q19> serial = run(1);
  Solver<D3Q19> parallel = run(threads);
  ASSERT_EQ(serial.f().size(), parallel.f().size());
  for (std::size_t i = 0; i < serial.f().size(); ++i)
    ASSERT_EQ(serial.f().data()[i], parallel.f().data()[i]);
}

// 0 resolves to one lane per hardware core.
INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep,
                         ::testing::Values(0, 2, 3, 4, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string("t").append(
                               std::to_string(info.param));
                         });

/// One fused-backend update of `range` with `threads` host lanes.
void fusedStep(const PopulationField& src, PopulationField& dst,
               const MaskField& mask, const MaterialTable& mats,
               const CollisionConfig& cfg, const Box3& range, int threads) {
  BackendStepArgs<D3Q19, Real> args;
  args.src = &src;
  args.dst = &dst;
  args.mask = &mask;
  args.mats = &mats;
  args.cfg = &cfg;
  args.range = range;
  args.threads = threads;
  TeamPool pool;
  args.pool = &pool;
  make_backend<D3Q19, Real>("fused")->step(args);
}

/// Threads of this process (Linux: one /proc/self/task entry each).
long processThreads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return std::distance(begin(tasks), end(tasks));
}

TEST(Threading, OneLaneStartsNoPoolWorker) {
  // hostThreads = 1 is the default for every solver and patch backend, so
  // it must run on the calling thread; n lanes park n - 1 workers for the
  // backend's lifetime.
  // The thread sanitizer starts a helper thread with the first thread the
  // process creates; create one first so the baseline includes it.
  std::thread([] {}).join();
  const long before = processThreads();
  for (int lanes : {1, 3}) {
    Solver<D3Q19> solver(Grid(6, 6, 6), CollisionConfig{},
                         Periodicity{true, true, true});
    solver.setHostThreads(lanes);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.01, 0, 0});
    solver.run(2);
    EXPECT_EQ(processThreads(), before + lanes - 1) << lanes << " lanes";
  }
  EXPECT_EQ(processThreads(), before);  // workers joined with the solver
}

TEST(Threading, PatchRankParksOnePool) {
  // The patch backends of a rank share the rank's pool: sixteen patches
  // at four lanes park three workers, not sixteen times three.
  std::thread([] {}).join();  // sanitizer helper thread, as above
  runtime::World world(1);
  world.run([](runtime::Comm& c) {
    const long before = processThreads();
    for (int lanes : {1, 4}) {
      typename runtime::PatchSolver<D3Q19>::Config cfg;
      cfg.global = {16, 16, 8};
      cfg.patchGrid = {4, 4, 1};
      cfg.periodic = Periodicity{true, true, true};
      cfg.hostThreads = lanes;
      runtime::PatchSolver<D3Q19> solver(c, cfg);
      solver.finalizeMask();
      solver.initUniform(1.0, {0.01, 0, 0});
      solver.run(2);
      ASSERT_EQ(solver.ownedPatches().size(), 16u);
      EXPECT_EQ(processThreads(), before + lanes - 1) << lanes << " lanes";
    }
    EXPECT_EQ(processThreads(), before);
  });
}

TEST(Threading, MoreThreadsThanSlabsStillCorrect) {
  // nz = 2 with 8 threads: the executor clamps the lane count.
  CollisionConfig cfg;
  cfg.omega = 1.2;
  Grid g(8, 8, 2);
  MaskField mask(g, MaterialTable::kFluid);
  MaterialTable mats;
  fill_halo_mask(mask, Periodicity{true, true, true}, MaterialTable::kSolid);
  PopulationField src(g, D3Q19::Q), a(g, D3Q19::Q), b(g, D3Q19::Q);
  Real feq[D3Q19::Q];
  equilibria<D3Q19>(1.0, {0.02, -0.01, 0}, feq);
  for (int q = 0; q < D3Q19::Q; ++q)
    for (int z = -1; z <= 2; ++z)
      for (int y = -1; y <= 8; ++y)
        for (int x = -1; x <= 8; ++x) src(q, x, y, z) = feq[q];
  stream_collide_fused<D3Q19>(src, a, mask, mats, cfg, g.interior());
  fusedStep(src, b, mask, mats, cfg, g.interior(), 8);
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]);
}

TEST(Threading, SubRangeDispatchRespectsBounds) {
  // A partial z-range with threads must only write that range.
  Grid g(6, 6, 8);
  MaskField mask(g, MaterialTable::kFluid);
  MaterialTable mats;
  fill_halo_mask(mask, Periodicity{true, true, true}, MaterialTable::kSolid);
  PopulationField src(g, D3Q19::Q), dst(g, D3Q19::Q);
  Real feq[D3Q19::Q];
  equilibria<D3Q19>(1.0, {0.01, 0, 0}, feq);
  for (int q = 0; q < D3Q19::Q; ++q)
    for (int z = -1; z <= 8; ++z)
      for (int y = -1; y <= 6; ++y)
        for (int x = -1; x <= 6; ++x) src(q, x, y, z) = feq[q];
  dst.fill(-7.0);  // sentinel
  CollisionConfig cfg;
  cfg.omega = 1.0;
  Box3 range = g.interior();
  range.lo.z = 2;
  range.hi.z = 6;
  fusedStep(src, dst, mask, mats, cfg, range, 3);
  EXPECT_EQ(dst(0, 3, 3, 1), -7.0);  // untouched below
  EXPECT_EQ(dst(0, 3, 3, 6), -7.0);  // untouched above
  EXPECT_NE(dst(0, 3, 3, 3), -7.0);  // written inside
}

}  // namespace
}  // namespace swlb

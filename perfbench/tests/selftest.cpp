// The benchmark's own tests: seeded inputs are reproducible, the
// percentile helper refuses unsupported tails, and a tiny-size run of every
// workload passes its checks and reports every metric of the catalog.
//
//   perfbench_selftest            (or: python3 perfbench/run.py --self-test)
#include <filesystem>
#include <iostream>
#include <set>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "FAIL: " << what << "\n";
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const swlb::Error&) {
    return true;
  }
  return false;
}

void test_seeded_inputs() {
  expect(urban_mask(3, true) == urban_mask(3, true), "same seed, same city");
  expect(urban_mask(3, true) != urban_mask(4, true),
         "different seeds, different cities");

  const swlb::Int3 box{128, 128, 32};
  const auto blocks = cavity_blocks(11, box);
  expect(blocks == cavity_blocks(11, box), "same seed, same cavity blocks");
  expect(blocks != cavity_blocks(12, box), "different seeds, different blocks");
  long long solid = 0, solidOther = 0;
  for (const auto& b : blocks) solid += b.volume();
  for (const auto& b : cavity_blocks(12, box)) solidOther += b.volume();
  expect(solid == solidOther && solid > 0, "block volume is seed-independent");

  const auto mix = job_mix(5, 48);
  expect(mix == job_mix(5, 48), "same seed, same job mix");
  expect(mix != job_mix(6, 48), "different seeds, different job mixes");
  auto work = [](const std::vector<JobSpec>& jobs) {
    long long w = 0;
    for (const JobSpec& j : jobs) w += 1LL * j.nx * j.ny * j.nz * j.steps;
    return w;
  };
  expect(work(mix) == work(job_mix(6, 48)), "mix work is seed-independent");
  for (const JobSpec& j : mix)
    expect(j.nx >= 8 && j.nx <= 16 && j.ny >= 8 && j.ny <= 16 && j.nz >= 8 &&
               j.nz <= 16 && j.steps >= 25 && j.steps <= 100,
           "job extents 8..16 and steps 25..100");

  const swlb::Vec3 u = tgv_velocity(9, 64, 3, 4, 5);
  expect(u == tgv_velocity(9, 64, 3, 4, 5), "same seed, same perturbation");
  expect(!(u == tgv_velocity(10, 64, 3, 4, 5)),
         "different seeds, different perturbations");
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  expect(throws([&] { tail_percentile(v, 0.9); }),
         "p90 of 99 samples (9 beyond) is refused");
  v.push_back(100);
  expect(!throws([&] { tail_percentile(v, 0.9); }) &&
             tail_percentile(v, 0.9) == 90,
         "p90 of 100 samples is the 90th value");
  std::vector<double> small(19, 1.0);
  expect(throws([&] { tail_percentile(small, 0.5); }),
         "p50 of 19 samples (9 beyond) is refused");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
}

void test_tiny_workloads() {
  const std::string dir = "perfbench_selftest_tmp";
  std::filesystem::create_directories(dir);
  std::set<std::string> e2e, layer;
  for (const MetricDef& d : metric_catalog())
    (d.endToEnd ? e2e : layer).insert(d.name);
  for (const Workload& w : workloads())
    for (bool trace : {false, true}) {
      Params p;
      p.seed = 1;
      p.seconds = 0.3;
      p.tiny = true;
      p.threads = 2;
      p.tmpDir = dir;
      p.triadGbs = 10;
      const RunOutput out = run_workload(w, p, trace, dir);
      const std::string tag = w.name + (trace ? " traced" : " untraced");
      for (const std::string& f : out.failures)
        std::cerr << "  " << tag << ": " << f << "\n";
      expect(out.attempted > 0 && out.failed == 0 && out.failures.empty(),
             tag + " passes its checks");
      std::set<std::string> got;
      for (const auto& [name, v] : out.metrics) got.insert(name);
      const std::set<std::string>& want = trace ? layer : e2e;
      // host.* are filled in by the driver from the fingerprint.
      std::set<std::string> missing;
      for (const std::string& n : want)
        if (!got.count(n) && n.rfind("host.", 0) != 0) missing.insert(n);
      expect(missing.empty(), tag + " reports every metric of its kind");
      if (!trace)
        for (const auto& [name, v] : out.metrics)
          expect(v > 0, tag + ": end-to-end metric " + name + " is positive");
    }

  // A recorded hash that does not match is a counted failure.
  Params p;
  p.seed = 1;
  p.seconds = 0.1;
  p.tiny = true;
  p.tmpDir = dir;
  p.expectHash = "0123456789abcdef";
  const RunOutput bad =
      run_workload(find_workload("tgv_f16_inplace"), p, false, dir);
  expect(bad.failed == 1, "a wrong recorded hash fails one check");
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  try {
    test_seeded_inputs();
    test_percentiles();
    test_tiny_workloads();
  } catch (const std::exception& e) {
    std::cerr << "FAIL: unexpected exception: " << e.what() << "\n";
    return 1;
  }
  if (g_failures) {
    std::cerr << g_failures << " self-test failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-test: all passed\n";
  return 0;
}

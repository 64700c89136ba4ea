#include "host.hpp"

#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

std::uint64_t parse_cache_size(std::string s) {
  // sysfs spells sizes as "48K", "2048K", "300M".
  std::uint64_t mult = 1;
  if (!s.empty() && (s.back() == 'K' || s.back() == 'M')) {
    mult = s.back() == 'K' ? 1024ull : 1024ull * 1024ull;
    s.pop_back();
  }
  try {
    return std::stoull(s) * mult;
  } catch (...) {
    return 0;
  }
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.cores = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpuModel = line.substr(colon + 2);
      break;
    }
  int bestLevel = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level(dir + "level"), size(dir + "size");
    int lv = 0;
    std::string sz;
    if (!(level >> lv) || !(size >> sz)) continue;
    if (lv >= bestLevel) {
      bestLevel = lv;
      h.llcBytes = parse_cache_size(sz);
    }
  }
  h.compiler = PERFBENCH_COMPILER;
  h.flags = PERFBENCH_FLAGS;
  h.buildType = PERFBENCH_BUILD_TYPE;
  return h;
}

TriadResult triad(int threads, std::uint64_t arrayBytes) {
  const std::size_t n = arrayBytes / sizeof(double);
  const auto a = std::make_unique<double[]>(n);
  const auto b = std::make_unique<double[]>(n);
  const auto c = std::make_unique<double[]>(n);
  const int t = std::max(1, threads);
  // Each thread touches its own slice first, as in the sweeps.
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> team;
    for (int k = 0; k < t; ++k)
      team.emplace_back([&, k] {
        const std::size_t lo = n * static_cast<std::size_t>(k) / t;
        const std::size_t hi = n * static_cast<std::size_t>(k + 1) / t;
        body(lo, hi);
      });
    for (auto& th : team) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1;
      c[i] = 2;
    }
  });
  const double s = 3.0;
  std::vector<double> rates;
  for (int r = 0; r <= kTriadReps; ++r) {
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double sec = seconds_since(t0);
    if (r > 0) rates.push_back(32.0 * static_cast<double>(n) / sec / 1e9);
  }
  if (a[n / 2] != 7.0) throw swlb::Error("triad produced a wrong result");
  return {median(rates), static_cast<std::uint64_t>(n * sizeof(double)), t};
}

}  // namespace perfbench

// Host fingerprint and bandwidth roof: what every result records so that
// numbers from different machines are never compared silently.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  int cores = 0;
  std::string cpuModel;
  std::uint64_t llcBytes = 0;  ///< largest cache level sysfs reports
  std::string compiler, flags, buildType;
};

HostInfo host_info();

struct TriadResult {
  double gbs = 0;  ///< median GB/s, counting write-allocate (32 B/element)
  std::uint64_t arrayBytes = 0;
  int threads = 0;
};

/// Timed sweeps of the triad, after one warm-up sweep.
inline constexpr int kTriadReps = 5;

/// STREAM triad a[i] = b[i] + s*c[i] on `threads` threads over three arrays
/// of `arrayBytes` each; median of kTriadReps sweeps.
TriadResult triad(int threads, std::uint64_t arrayBytes);

}  // namespace perfbench

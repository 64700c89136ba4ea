// perfbench: the repository benchmark program.  perfbench/run.py builds it
// and drives it; see README.md in this directory.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--triad-gbs X] [--expect-hash H] [--tmp DIR] [--out DIR]
//   perfbench host                      fingerprint as JSON
//   perfbench triad --threads T --array-bytes B
//   perfbench record --workload W --seed N   state hash to record
//
// `run` prints one JSON object as its last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <iostream>
#include <map>
#include <thread>

#include "host.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int cmd_run(const std::map<std::string, std::string>& a) {
  const Workload& w = find_workload(a.at("--workload"));
  Params p;
  p.seed = std::stoull(a.at("--seed"));
  p.seconds = std::stod(a.at("--seconds"));
  const bool trace = a.at("--trace") == "1";
  const HostInfo host = host_info();
  p.threads = std::max(1, host.cores);
  if (a.count("--triad-gbs")) p.triadGbs = std::stod(a.at("--triad-gbs"));
  if (a.count("--expect-hash")) p.expectHash = a.at("--expect-hash");
  if (a.count("--tmp")) p.tmpDir = a.at("--tmp");
  const std::string outDir = a.count("--out") ? a.at("--out") : ".";

  RunOutput out = run_workload(w, p, trace, outDir);
  if (trace) {
    out.metrics["host.triad_gbs"] = p.triadGbs;
    out.metrics["host.llc_bytes"] = static_cast<double>(host.llcBytes);
    out.metrics["host.cores"] = host.cores;
    out.metrics["host.threads"] = w.threads(p.threads);
  }
  for (const std::string& f : out.failures)
    std::cerr << "perfbench: check failed: " << f << "\n";

  std::map<std::string, std::string> units;
  for (const MetricDef& d : metric_catalog()) units[d.name] = d.unit;
  std::string line = "{\"correct\": ";
  line += out.failed == 0 && out.failures.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
            units.at(name) + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}

int cmd_host() {
  const HostInfo h = host_info();
  std::cout << "{\"cores\": " << h.cores << ", \"cpu_model\": \""
            << json_escape(h.cpuModel) << "\", \"llc_bytes\": " << h.llcBytes
            << ", \"compiler\": \"" << json_escape(h.compiler)
            << "\", \"flags\": \"" << json_escape(h.flags)
            << "\", \"build_type\": \"" << json_escape(h.buildType)
            << "\", \"workload_threads\": {";
  bool first = true;
  for (const Workload& w : workloads()) {
    std::cout << (first ? "" : ", ") << "\"" << w.name
              << "\": " << w.threads(std::max(1, h.cores));
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

int cmd_triad(const std::map<std::string, std::string>& a) {
  const int threads = std::stoi(a.at("--threads"));
  const auto bytes = std::stoull(a.at("--array-bytes"));
  const TriadResult t = triad(threads, bytes);
  std::cout << "{\"gbs\": " << num(t.gbs) << ", \"array_bytes\": "
            << t.arrayBytes << ", \"threads\": " << t.threads << "}"
            << std::endl;
  return 0;
}

int cmd_record(const std::map<std::string, std::string>& a) {
  Params p;
  p.seed = std::stoull(a.at("--seed"));
  p.threads = std::max(1, host_info().cores);
  std::cout << record_hash(a.at("--workload"), p) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench run|host|triad|record [options]\n";
    return 2;
  }
  std::map<std::string, std::string> a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << k << " needs a value\n";
      return 2;
    }
    a[k] = argv[++i];
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(a);
    if (cmd == "host") return cmd_host();
    if (cmd == "triad") return cmd_triad(a);
    if (cmd == "record") return cmd_record(a);
    std::cerr << "perfbench: unknown command '" << cmd << "'\n";
    return 2;
  } catch (const std::out_of_range&) {
    std::cerr << "perfbench: missing a required option\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "perf/cost_model.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw swlb::Error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_percentile(std::vector<double> v, double p) {
  if (!(p > 0 && p < 1)) throw swlb::Error("percentile must lie in (0, 1)");
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(n))));
  if (n == 0 || n - rank < 10)
    throw swlb::Error("p" + std::to_string(static_cast<int>(p * 100)) +
                      " of " + std::to_string(n) +
                      " samples has fewer than 10 samples beyond it");
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

// ---- spans ------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open;  // ids of the spans open on this thread
}

int Spans::open() {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lk(m_);
  return nextId_++;
}

void Spans::close(int id, const std::string& name, int parent, int lane,
                  Clock::time_point begin, Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back({name, id, parent, lane, seconds_between(epoch_, begin),
                    seconds_between(epoch_, end)});
}

std::vector<Spans::Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_;
}

std::map<std::string, double> Spans::budget() const {
  std::map<std::string, double> parts;
  for (const Span& sp : snapshot())
    if (sp.parent < 0 && sp.lane == 0) parts[sp.name] += sp.end - sp.begin;
  return parts;
}

void Spans::write(const std::string& path, double wallSeconds) const {
  const std::vector<Span> spans = snapshot();
  std::map<int, double> childSeconds;
  for (const Span& sp : spans)
    if (sp.parent >= 0) childSeconds[sp.parent] += sp.end - sp.begin;
  struct Total {
    long count = 0;
    double seconds = 0, self = 0;
  };
  std::map<std::string, Total> totals;
  std::ofstream os(path);
  char buf[512];
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const double dur = sp.end - sp.begin;
    const double self = dur - childSeconds[sp.id];
    Total& t = totals[sp.name];
    ++t.count;
    t.seconds += dur;
    t.self += self;
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                  "\"lane\": %d, \"begin_s\": %.9f, \"end_s\": %.9f, "
                  "\"self_s\": %.9f}%s\n",
                  sp.name.c_str(), sp.id, sp.parent, sp.lane, sp.begin, sp.end,
                  self, i + 1 < spans.size() ? "," : "");
    os << buf;
  }
  os << "],\n\"totals\": {\n";
  std::size_t k = 0;
  for (const auto& [name, t] : totals) {
    std::snprintf(buf, sizeof buf,
                  "  \"%s\": {\"count\": %ld, \"seconds\": %.9f, "
                  "\"self_seconds\": %.9f}%s\n",
                  name.c_str(), t.count, t.seconds, t.self,
                  ++k < totals.size() ? "," : "");
    os << buf;
  }
  double covered = 0;
  os << "},\n\"budget\": {\n";
  for (const auto& [name, seconds] : budget()) {
    covered += seconds;
    std::snprintf(buf, sizeof buf, "  \"%s\": %.9f,\n", name.c_str(),
                  seconds);
    os << buf;
  }
  std::snprintf(buf, sizeof buf,
                "  \"(unaccounted)\": %.9f\n},\n\"wall_s\": %.9f}\n",
                wallSeconds - covered, wallSeconds);
  os << buf;
}

ScopedSpan::ScopedSpan(Spans& log, std::string name, int lane, int parent)
    : log_(log),
      name_(std::move(name)),
      lane_(lane),
      parent_(parent == -2 ? (t_open.empty() ? -1 : t_open.back()) : parent),
      id_(log.open()),
      begin_(Clock::now()) {
  if (id_ >= 0) t_open.push_back(id_);
}

double ScopedSpan::stop() {
  if (dur_ >= 0) return dur_;
  const auto end = Clock::now();
  dur_ = seconds_between(begin_, end);
  if (id_ >= 0) {
    if (!t_open.empty() && t_open.back() == id_) t_open.pop_back();
    log_.close(id_, name_, parent_, lane_, begin_, end);
  }
  return dur_;
}

// ---- misc -------------------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void fill_core_roof(Metrics& m, double mlups, double bytesPerLup,
                    double triadGbs) {
  const swlb::perf::LbmCostModel model;
  m["core.bytes_per_lup"] = bytesPerLup;
  m["core.model_bytes_per_lup"] = model.bytesPerLup();
  if (triadGbs > 0) {
    m["core.bw_util"] = mlups * 1e6 * bytesPerLup / (triadGbs * 1e9);
    m["core.model_mlups"] = model.lupsUpperBound(triadGbs * 1e9) / 1e6;
  }
}

void fill_checkpoint_io(Metrics& m, double saveSeconds, double loadSeconds,
                        double fileBytes) {
  m["checkpoint_s"] = saveSeconds + loadSeconds;
  m["io.save_s"] = saveSeconds;
  m["io.load_s"] = loadSeconds;
  m["io.bytes"] = fileBytes;
  m["io.save_gbs"] = fileBytes / saveSeconds / 1e9;
}

std::string hex64(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

}  // namespace perfbench

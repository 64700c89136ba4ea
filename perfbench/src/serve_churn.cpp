// serve_churn: an in-process simulation service at its daemon defaults,
// driven by closed-loop clients with more jobs in flight than resident
// solvers, so scheduling, case rebuilds and small-file checkpoint I/O do
// most of the work.
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "app/cases.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sv = swlb::serve;

namespace {

constexpr int kWindow = 3;       ///< jobs each client keeps in flight
constexpr int kMixSize = 48;     ///< distinct jobs a run cycles through
constexpr int kSetupReps = 25;   ///< Server construction is sub-millisecond

/// Client sessions: one per host thread, but no more than the default
/// admission limits hold (active plus backlog), so no submit is rejected.
int serve_clients(int threads) {
  const sv::JobQueueLimits lim;
  const auto fit = static_cast<int>((lim.maxActive + lim.maxQueueDepth) /
                                    static_cast<std::size_t>(kWindow));
  return std::max(1, std::min(threads, fit));
}

swlb::app::Config job_config(const JobSpec& j) {
  swlb::app::Config cfg;
  cfg.set("case", "cavity");
  cfg.set("nx", std::to_string(j.nx));
  cfg.set("ny", std::to_string(j.ny));
  cfg.set("nz", std::to_string(j.nz));
  return cfg;
}

/// One finished job as its client observed it.
struct JobRecord {
  JobSpec spec;
  Clock::time_point submit, accepted, firstProgress, lastProgress, done;
  bool haveProgress = false;
  std::vector<double> turnGaps;
  std::string stateHash;
  double submitCall = 0;  ///< duration of the request() call itself
};

/// One closed-loop client: keeps kWindow jobs in flight while
/// `submitting()` holds, then drains.  Runs on its own thread.
void client_loop(sv::Session& session, int c, int clients,
                 const std::vector<JobSpec>& mix,
                 const std::function<bool()>& submitting, Spans& spans,
                 int parent, std::atomic<std::size_t>& completed,
                 std::vector<JobRecord>& done,
                 std::vector<std::string>& errors, long& submitted) {
  std::map<std::uint64_t, JobRecord> live;  // by job id
  std::vector<JobRecord> unanswered;        // submitted, no verdict yet
  std::size_t next = static_cast<std::size_t>(c);
  int inflight = 0;
  auto text = [](auto v) { return sv::WireValue::ofString(std::to_string(v)); };
  for (;;) {
    while (inflight < kWindow && submitting()) {
      JobRecord rec;
      rec.spec = mix[next % mix.size()];
      next += static_cast<std::size_t>(clients);
      sv::WireMap req;
      req["op"] = sv::WireValue::ofString("submit");
      req["tenant"] = text(c);
      req["steps"] = sv::WireValue::ofNumber(rec.spec.steps);
      req["cfg.case"] = sv::WireValue::ofString("cavity");
      req["cfg.nx"] = text(rec.spec.nx);
      req["cfg.ny"] = text(rec.spec.ny);
      req["cfg.nz"] = text(rec.spec.nz);
      const std::string line = sv::encode_line(req);
      ScopedSpan sub(spans, "serve.submit", c + 1, parent);
      rec.submit = Clock::now();
      session.request(line);
      rec.submitCall = sub.stop();
      unanswered.push_back(rec);
      ++inflight;
      ++submitted;
    }
    if (inflight == 0) break;
    const auto line = session.nextEvent();
    if (!line) {
      errors.push_back("session closed with jobs in flight");
      break;
    }
    const auto now = Clock::now();
    const sv::WireMap ev = sv::decode_line(*line);
    const std::string kind = sv::wire_string(ev, "event", "");
    if (kind == "accepted") {
      JobRecord rec = unanswered.front();
      unanswered.erase(unanswered.begin());
      rec.accepted = now;
      live[static_cast<std::uint64_t>(sv::wire_number(ev, "job"))] = rec;
    } else if (kind == "rejected" || kind == "error") {
      if (!unanswered.empty()) unanswered.erase(unanswered.begin());
      --inflight;
      errors.push_back(*line);
    } else if (kind == "progress") {
      JobRecord& rec =
          live[static_cast<std::uint64_t>(sv::wire_number(ev, "job"))];
      if (rec.haveProgress)
        rec.turnGaps.push_back(seconds_between(rec.lastProgress, now));
      else
        rec.firstProgress = now;
      rec.haveProgress = true;
      rec.lastProgress = now;
    } else if (kind == "done" || kind == "failed") {
      const auto id = static_cast<std::uint64_t>(sv::wire_number(ev, "job"));
      JobRecord rec = live[id];
      live.erase(id);
      --inflight;
      if (kind == "failed") {
        errors.push_back(*line);
        continue;
      }
      rec.done = now;
      rec.stateHash = sv::wire_string(ev, "state_hash");
      done.push_back(rec);
      ++completed;
    }
  }
}

}  // namespace

std::vector<JobSpec> job_mix(std::uint64_t seed, int count) {
  // A fixed catalog of jobs, 8..16 cells per side and 25..100 steps, which
  // the seed reorders and re-orients (axis permutation per job).  Every
  // seed's mix then holds the same total work, so the run-to-run spread
  // measures the service, not the luck of the draw.
  Rng rng(seed);
  std::vector<JobSpec> mix;
  for (int i = 0; i < count; ++i) {
    int e[3] = {8 + i % 9, 8 + (5 * i + 1) % 9, 8 + (7 * i + 4) % 9};
    for (int k = 2; k > 0; --k) std::swap(e[k], e[rng.uniform(0, k)]);
    mix.push_back({e[0], e[1], e[2], 25 * (1 + (i + i / 9) % 4)});
  }
  rng.shuffle(mix);
  return mix;
}

void run_serve_churn(const Params& p, Spans& spans, Library* lib,
                     PassResult& r) {
  const int clients = serve_clients(p.threads);
  const std::size_t minJobs = 100;  // p90 needs 10 jobs beyond it
  const std::vector<JobSpec> mix = job_mix(p.seed, p.tiny ? 12 : kMixSize);
  const std::string dir = p.tmpDir + "/serve_ckpt";
  std::filesystem::create_directories(dir);

  sv::ServerConfig cfg;  // swlb_serve daemon defaults ...
  cfg.checkpointDir = dir;  // ... with only the checkpoint directory set
  if (lib) {
    cfg.metrics = &lib->metrics;
    cfg.tracer = &lib->tracer;
  }

  // Set-up, repeated: Server construction plus one session per client.
  std::unique_ptr<sv::Server> server;
  std::vector<sv::Session*> sessions;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) {
      ScopedSpan t(spans, "teardown");
      server.reset();
    }
    ScopedSpan s(spans, "serve.setup");
    server = std::make_unique<sv::Server>(cfg);
    sessions.clear();
    for (int c = 0; c < clients; ++c)
      sessions.push_back(&server->openSession());
    setup.push_back(s.stop());
  }

  std::atomic<std::size_t> completed{0};
  const auto nc = static_cast<std::size_t>(clients);
  std::vector<std::vector<JobRecord>> records(nc);
  std::vector<std::vector<std::string>> errors(nc);
  std::vector<long> submitted(nc, 0);
  double wall = 0;
  {
    ScopedSpan loop(spans, "serve.clients");
    const int parent = loop.id();
    const auto t0 = Clock::now();
    const std::function<bool()> submitting = [&] {
      return seconds_since(t0) < p.seconds || completed < minJobs;
    };
    std::vector<std::thread> team;
    for (int c = 0; c < clients; ++c)
      team.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        try {
          client_loop(*sessions[ci], c, clients, mix, submitting, spans,
                      parent, completed, records[ci], errors[ci],
                      submitted[ci]);
        } catch (const std::exception& e) {
          errors[ci].push_back(std::string("client: ") + e.what());
        }
      });
    for (auto& t : team) t.join();
    wall = seconds_since(t0);
  }

  // Library-recorded histograms (the server's registry: owned by the
  // server in the untraced pass, bound from outside in the traced one).
  const swlb::obs::MetricsRegistry& reg = server->metrics();
  const auto save = reg.histogramSummary("checkpoint.save");
  const auto restore = reg.histogramSummary("checkpoint.restore");
  const auto quantum = reg.histogramSummary("serve.quantum");
  const auto evict = reg.histogramSummary("serve.evict");
  const auto resume = reg.histogramSummary("serve.resume");
  const auto kernel = reg.histogramSummary("compute.kernel");
  const double evictions =
      static_cast<double>(reg.counterValue("serve.evictions"));
  const double bytesWritten =
      static_cast<double>(reg.counterValue("checkpoint.bytes_written"));
  const int workers = server->config().workers;
  {
    ScopedSpan s(spans, "serve.shutdown");
    server.reset();
  }

  std::vector<JobRecord> done;
  for (auto& v : records) done.insert(done.end(), v.begin(), v.end());
  long submittedTotal = 0;
  for (long s : submitted) submittedTotal += s;
  for (const auto& errs : errors)
    for (const std::string& e : errs) r.checks.failures.push_back(e);

  // Every job's end state must equal a bare Solver run of the same case.
  std::map<std::tuple<int, int, int, int>, std::string> reference;
  std::vector<double> buildTimes;
  {
    ScopedSpan s(spans, "check.reference_hashes");
    for (const JobRecord& j : done) {
      const auto key =
          std::make_tuple(j.spec.nx, j.spec.ny, j.spec.nz, j.spec.steps);
      auto it = reference.find(key);
      if (it == reference.end()) {
        ScopedSpan b(spans, "app.build_case");
        swlb::app::Case c = swlb::app::build_case(job_config(j.spec));
        buildTimes.push_back(b.stop());
        c.solver->run(static_cast<std::uint64_t>(j.spec.steps));
        it = reference
                 .emplace(key, hex64(swlb::io::fnv1a(c.solver->f().data(),
                                                     c.solver->f().bytes())))
                 .first;
      }
      r.checks.expect(j.stateHash == it->second,
                      "serve_churn: job state hash " + j.stateHash +
                          " != bare-solver reference " + it->second);
    }
  }
  // Jobs that never finished count as failed operations.
  r.checks.attempted += submittedTotal - static_cast<long>(done.size());
  r.checks.failed += submittedTotal - static_cast<long>(done.size());
  r.checks.expect(std::filesystem::is_empty(dir),
                  "serve_churn: checkpoint files left after shutdown");
  std::filesystem::remove_all(dir);

  std::vector<double> jobS, ttfs, admit, submitCall, gaps;
  double lups = 0, popBytes = 0;
  for (const JobRecord& j : done) {
    jobS.push_back(seconds_between(j.submit, j.done));
    ttfs.push_back(seconds_between(j.submit, j.firstProgress));
    admit.push_back(seconds_between(j.submit, j.accepted));
    submitCall.push_back(j.submitCall);
    gaps.insert(gaps.end(), j.turnGaps.begin(), j.turnGaps.end());
    const double cells = static_cast<double>(j.spec.nx) * j.spec.ny * j.spec.nz;
    lups += cells * j.spec.steps;
    popBytes += 2.0 * swlb::D3Q19::Q * sizeof(double) * (j.spec.nx + 2) *
                (j.spec.ny + 2) * (j.spec.nz + 2);
  }
  const double jobs = static_cast<double>(done.size());
  if (done.empty()) throw swlb::Error("serve_churn: no job completed");

  Metrics& m = r.metrics;
  r.opSeconds = wall / jobs;
  const double mlups = lups / wall / 1e6;
  m["mlups"] = mlups;
  m["setup_s"] = median(setup);
  m["peak_rss_mib"] = peak_rss_mib();
  m["checkpoint_s"] = save.p50 + restore.p50;
  m["ops_per_s"] = jobs / wall;
  m["op_p50_s"] = median(jobS);
  m["op_tail_s"] = tail_percentile(jobS, 0.9);
  m["ttfs_p50_s"] = median(ttfs);

  m["serve.submit_p50_s"] = median(submitCall);
  m["serve.admit_p50_s"] = median(admit);
  m["serve.turn_gap_p50_s"] = gaps.empty() ? 0 : median(gaps);
  m["serve.quantum_p50_s"] = quantum.p50;
  m["serve.evictions_per_job"] = evictions / jobs;
  m["serve.evict_io_share"] = (evict.total + resume.total) / (workers * wall);
  m["serve.worker_busy_share"] =
      (quantum.total + evict.total + resume.total) / (workers * wall);
  m["io.ckpt_save_p50_s"] = save.p50;
  m["io.ckpt_restore_p50_s"] = restore.p50;
  m["io.ckpt_bytes_per_job"] = bytesWritten / jobs;
  m["app.build_case_s"] = median(buildTimes);
  fill_core_roof(m, mlups, computed_bytes_per_lup<double>(false),
                 p.triadGbs);
  // Resident population at capacity: maxResident solvers of the mean job.
  m["core.population_bytes"] =
      popBytes / jobs * static_cast<double>(cfg.maxResident);
  if (lib) {
    m["core.step_p50_s"] = kernel.p50;
    m["core.step_samples"] = static_cast<double>(kernel.count);
  }
}

}  // namespace perfbench

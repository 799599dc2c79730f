// Multi-job scenario bench (DESIGN.md §15): heterogeneous jobs -- a
// Dynamic kernel job, an Adaptive kernel job sharing its nodes, and a
// replayed-trace job -- on one simulated cluster, run at --sim-threads 1,
// 2 and 8.  Emits BENCH_multijob.json and exits non-zero unless every
// scenario digest is bit-identical across thread counts (the determinism
// gate CI relies on).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynprof/run.hpp"
#include "replay/app.hpp"

namespace {

using namespace dyntrace;

std::string find_trace(const std::string& name) {
  for (const char* prefix : {"examples/replay/", "../examples/replay/",
                             "../../examples/replay/", "bench/../examples/replay/"}) {
    const std::string path = prefix + name;
    if (std::ifstream(path).good()) return path;
  }
  return {};
}

struct ScenarioRun {
  int sim_threads = 1;
  double wall_s = 0;
  dynprof::RunResult result;
};

ScenarioRun run_scenario(int sim_threads, int ranks_per_job, double scale,
                         const replay::ReplayApp* replay_app) {
  dynprof::RunSpec spec;
  spec.sim_threads = sim_threads;
  spec.jobs = {{.app = asci::find_app("sppm"),
                .name = "front",
                .policy = dynprof::Policy::kDynamic,
                .nprocs = ranks_per_job,
                .problem_scale = scale},
               {.app = asci::find_app("sweep3d"),
                .name = "back",
                .policy = dynprof::Policy::kAdaptive,
                .nprocs = ranks_per_job,
                .problem_scale = scale,
                .first_cpu = 4}};  // shares the front job's nodes
  if (replay_app != nullptr) {
    spec.jobs.push_back({.app = &replay_app->spec(),
                         .name = "recorded",
                         .policy = dynprof::Policy::kDynamic,
                         .nprocs = replay_app->spec().min_procs,
                         .first_node = (ranks_per_job + 3) / 4});  // above the shared span
  }

  ScenarioRun run;
  run.sim_threads = sim_threads;
  const auto start = std::chrono::steady_clock::now();
  run.result = dynprof::run(spec);
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                   .count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dyntrace::bench;

  std::int64_t ranks = 16;
  double scale = 0.15;
  std::string json_path = "BENCH_multijob.json";
  CliParser parser("multi_job",
                   "Heterogeneous multi-job cluster scenario: shared nodes, per-job "
                   "tools, a replayed-trace job, and the cross---sim-threads "
                   "determinism gate");
  parser.option_int("ranks", "MPI ranks per kernel job", &ranks)
      .option_double("scale", "problem scale factor", &scale)
      .option_string("json", "write the machine-readable results here", &json_path);
  if (!parser.parse(argc, argv)) return 0;

  const std::string trace_path = find_trace("ring.trace");
  std::shared_ptr<replay::ReplayApp> replay_app;
  if (!trace_path.empty()) {
    replay_app = replay::load_app(trace_path);
  } else {
    std::fprintf(stderr, "examples/replay/ring.trace not found; running without the "
                         "replay job\n");
  }

  std::vector<ScenarioRun> runs;
  for (const int threads : {1, 2, 8}) {
    runs.push_back(run_scenario(threads, static_cast<int>(ranks), scale,
                                replay_app.get()));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  const ScenarioRun& seq = runs.front();
  std::printf("multi-job scenario: %zu job(s), %lld rank(s) per kernel job\n\n",
              seq.result.jobs.size(), static_cast<long long>(ranks));
  TextTable jobs_table({"Job", "Policy", "Ranks", "App (s)", "Create+instr (s)",
                        "Trace events"});
  for (const auto& job : seq.result.jobs) {
    jobs_table.add_row({job.job, dynprof::to_string(job.policy),
                        std::to_string(job.nprocs), TextTable::num(job.app_seconds, 3),
                        TextTable::num(job.create_instrument_seconds, 3),
                        std::to_string(job.trace_events)});
  }
  std::fputs(jobs_table.render().c_str(), stdout);

  bool identical = true;
  TextTable threads_table({"Threads", "Wall (s)", "Combined digest", "Identical"});
  for (const auto& run : runs) {
    const bool same = run.result.combined_digest == seq.result.combined_digest;
    identical = identical && same;
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(run.result.combined_digest));
    threads_table.add_row({std::to_string(run.sim_threads),
                           TextTable::num(run.wall_s, 3), digest,
                           same ? "yes" : "NO"});
  }
  std::fputs(threads_table.render().c_str(), stdout);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"ranks_per_job\": %lld,\n  \"scale\": %g,\n",
               static_cast<long long>(ranks), scale);
  std::fprintf(f, "  \"jobs\": [\n");
  for (std::size_t j = 0; j < seq.result.jobs.size(); ++j) {
    const auto& job = seq.result.jobs[j];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"policy\": \"%s\", \"ranks\": %d, "
                 "\"app_seconds\": %.6f, \"create_instrument_seconds\": %.6f, "
                 "\"trace_events\": %llu, \"trace_digest\": \"%016llx\"}%s\n",
                 job.job.c_str(), dynprof::to_string(job.policy), job.nprocs,
                 job.app_seconds, job.create_instrument_seconds,
                 static_cast<unsigned long long>(job.trace_events),
                 static_cast<unsigned long long>(job.trace_digest),
                 j + 1 < seq.result.jobs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"sim_threads\": %d, \"wall_s\": %.3f, "
                 "\"combined_digest\": \"%016llx\"}%s\n",
                 runs[i].sim_threads, runs[i].wall_s,
                 static_cast<unsigned long long>(runs[i].result.combined_digest),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"identical\": %s\n}\n", identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nresults written to %s\n", json_path.c_str());

  std::vector<ShapeCheck> checks;
  checks.push_back({"scenario digest bit-identical across sim-threads 1/2/8",
                    identical});
  checks.push_back({"every job produced trace events",
                    [&] {
                      for (const auto& job : seq.result.jobs) {
                        if (job.trace_events == 0) return false;
                      }
                      return true;
                    }()});
  return report_checks(checks);
}

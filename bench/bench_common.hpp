// Shared helpers for the paper-reproduction bench binaries.
//
// Every fig7* binary prints the exact series the corresponding figure
// plots (policy x CPU count -> seconds) plus the shape checks DESIGN.md §5
// lists, and exits non-zero if a shape check fails -- so the bench suite
// doubles as a reproduction gate.
#pragma once

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dynprof/run.hpp"
#include "machine/spec.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace dyntrace::bench {

struct ShapeCheck {
  std::string description;
  bool passed = false;
};

inline int report_checks(const std::vector<ShapeCheck>& checks) {
  int failures = 0;
  std::puts("\nshape checks (paper vs reproduction):");
  for (const auto& check : checks) {
    std::printf("  [%s] %s\n", check.passed ? "ok" : "FAIL", check.description.c_str());
    if (!check.passed) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Run every policy of `app` across its paper CPU counts; returns a table
/// whose rows are CPU counts and columns are policies, and fills
/// `results[policy][cpu_index]`.
struct PolicySweep {
  std::vector<int> cpus;
  std::vector<dynprof::Policy> policies;
  // seconds[policy_index][cpu_index]
  std::vector<std::vector<double>> seconds;

  double at(dynprof::Policy policy, int cpu_count) const {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      if (policies[p] != policy) continue;
      for (std::size_t c = 0; c < cpus.size(); ++c) {
        if (cpus[c] == cpu_count) return seconds[p][c];
      }
    }
    return -1;
  }
};

/// A machine spec big enough for `cpus` single-cpu ranks plus a tool node:
/// the paper's IBM Power3 SP (144 nodes) grown node-for-node when a sweep
/// extends past its 1152 CPUs (the --max-cpus 4096 extension).
inline std::optional<machine::MachineSpec> machine_for_cpus(int cpus) {
  machine::MachineSpec spec = machine::ibm_power3_sp();
  const int needed = (cpus + spec.cpus_per_node - 1) / spec.cpus_per_node + 1;
  if (needed <= spec.nodes) return std::nullopt;  // default machine: untouched runs
  spec.nodes = needed;
  spec.name += "-x" + std::to_string(needed);
  return spec;
}

inline PolicySweep sweep_policies(const asci::AppSpec& app, double scale,
                                    std::uint64_t seed, int sim_threads = 1,
                                    int max_cpus = 0) {
  // --max-cpus beyond the app's paper ceiling: sweep a widened copy on a
  // machine grown to fit (results for the paper counts are unchanged --
  // cells only get a bigger machine when they need one).
  asci::AppSpec widened = app;
  if (max_cpus > widened.max_procs) widened.max_procs = max_cpus;
  PolicySweep sweep;
  sweep.cpus = dynprof::cpu_counts_for(widened);
  sweep.policies = dynprof::policies_for(widened);
  for (const auto policy : sweep.policies) {
    std::vector<double> row;
    for (const int cpus : sweep.cpus) {
      dynprof::RunSpec spec;
      spec.jobs = {{.app = &widened,
                    .policy = policy,
                    .nprocs = cpus,
                    .problem_scale = scale,
                    .seed = seed}};
      spec.seed = seed;
      spec.sim_threads = sim_threads;
      if (widened.model != asci::AppSpec::Model::kOpenMP) {
        spec.machine = machine_for_cpus(cpus);
      }
      row.push_back(dynprof::run(spec).jobs.front().app_seconds);
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
    sweep.seconds.push_back(std::move(row));
  }
  std::fprintf(stderr, "\n");
  return sweep;
}

/// Host wall-clock comparison of one (app, policy, nprocs) cell sequential
/// vs sim_threads shards, with the bit-identity check the parallel engine
/// guarantees (DESIGN.md §8).
struct ParallelCompare {
  int threads = 1;
  double seq_wall_s = 0;
  double par_wall_s = 0;
  bool identical = true;
  double speedup() const { return par_wall_s > 0 ? seq_wall_s / par_wall_s : 0; }
};

inline ParallelCompare run_parallel_compare(const asci::AppSpec& app, dynprof::Policy policy,
                                            int nprocs, double scale, std::uint64_t seed,
                                            int threads) {
  const auto cell = [&](int sim_threads, double* wall_s) {
    dynprof::RunSpec spec;
    spec.jobs = {{.app = &app,
                  .policy = policy,
                  .nprocs = nprocs,
                  .problem_scale = scale,
                  .seed = seed}};
    spec.seed = seed;
    spec.sim_threads = sim_threads;
    const auto begin = std::chrono::steady_clock::now();
    const dynprof::JobResult result = dynprof::run(spec).jobs.front();
    *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    return result;
  };
  ParallelCompare compare;
  compare.threads = threads;
  const auto seq = cell(1, &compare.seq_wall_s);
  const auto par = cell(threads, &compare.par_wall_s);
  compare.identical = seq.trace_digest == par.trace_digest &&
                      seq.stats_digest == par.stats_digest &&
                      seq.app_seconds == par.app_seconds &&
                      seq.total_seconds == par.total_seconds;
  return compare;
}

/// Print the comparison and return its shape check ("bit-identical").
inline ShapeCheck print_parallel_compare(const char* cell_name,
                                         const ParallelCompare& compare) {
  std::printf(
      "\nparallel engine (%s): 1 thread %.2fs wall, %d threads %.2fs wall "
      "(%.2fx, %u hardware core(s)), results %s\n",
      cell_name, compare.seq_wall_s, compare.threads, compare.par_wall_s,
      compare.speedup(), std::thread::hardware_concurrency(),
      compare.identical ? "bit-identical" : "DIVERGED");
  return ShapeCheck{std::string("--sim-threads run bit-identical to sequential (") +
                        cell_name + ")",
                    compare.identical};
}

inline void print_sweep(const char* title, const PolicySweep& sweep) {
  std::printf("%s\n", title);
  std::vector<std::string> headers{"CPUs"};
  for (const auto policy : sweep.policies) headers.emplace_back(to_string(policy));
  TextTable table(std::move(headers));
  for (std::size_t c = 0; c < sweep.cpus.size(); ++c) {
    std::vector<std::string> row{std::to_string(sweep.cpus[c])};
    for (std::size_t p = 0; p < sweep.policies.size(); ++p) {
      row.push_back(TextTable::num(sweep.seconds[p][c], 2));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("(execution time in seconds; Figure 7 metric: post-init main computation)");
}

struct Fig7Options {
  double scale = 1.0;
  std::int64_t seed = 42;
  std::int64_t sim_threads = 1;
  /// 0 keeps the app's paper ceiling; a larger power of two extends the
  /// sweep (e.g. 4096) on a machine grown to fit.
  std::int64_t max_cpus = 0;
  bool csv = false;
};

inline bool parse_fig7_options(int argc, const char* const* argv, const char* name,
                               const char* blurb, Fig7Options* out) {
  CliParser parser(name, blurb);
  parser.option_double("scale", "problem scale factor (default 1.0 = paper size)",
                       &out->scale);
  parser.option_int("seed", "simulation seed", &out->seed);
  parser.option_int("sim-threads",
                    "simulation worker threads (default 1; results are bit-identical "
                    "and a >1 value appends a sequential-vs-parallel comparison)",
                    &out->sim_threads);
  parser.option_int("max-cpus",
                    "extend the sweep past the paper's CPU ceiling (e.g. 4096; "
                    "0 = paper counts only)",
                    &out->max_cpus);
  parser.flag("csv", "also print CSV series", &out->csv);
  return parser.parse(argc, argv);
}

/// For a fig7 binary: when --sim-threads > 1, rerun the heaviest cell
/// (Full at the app's max CPU count) sequentially and sharded, print the
/// wall-clock comparison, and append the identity shape check.
inline void maybe_compare_parallel(const asci::AppSpec& app, const Fig7Options& options,
                                   std::vector<ShapeCheck>* checks) {
  if (options.sim_threads <= 1) return;
  const ParallelCompare compare = run_parallel_compare(
      app, dynprof::Policy::kFull, app.max_procs, options.scale,
      static_cast<std::uint64_t>(options.seed), static_cast<int>(options.sim_threads));
  const std::string cell = std::string(app.name) + " Full/" + std::to_string(app.max_procs);
  checks->push_back(print_parallel_compare(cell.c_str(), compare));
  if (std::thread::hardware_concurrency() >= static_cast<unsigned>(options.sim_threads)) {
    // Wall-clock gate only where the threads have cores to run on; a
    // single-core CI box cannot parallelize anything.
    checks->push_back({"parallel run <= 0.5x sequential wall-clock",
                       compare.par_wall_s <= 0.5 * compare.seq_wall_s});
  }
}

inline void maybe_print_csv(const PolicySweep& sweep, bool csv) {
  if (!csv) return;
  std::vector<std::string> headers{"cpus"};
  for (const auto policy : sweep.policies) headers.emplace_back(to_string(policy));
  TextTable table(std::move(headers));
  for (std::size_t c = 0; c < sweep.cpus.size(); ++c) {
    std::vector<std::string> row{std::to_string(sweep.cpus[c])};
    for (std::size_t p = 0; p < sweep.policies.size(); ++p) {
      row.push_back(TextTable::num(sweep.seconds[p][c], 4));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render_csv().c_str(), stdout);
}

}  // namespace dyntrace::bench

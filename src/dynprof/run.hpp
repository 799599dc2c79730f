// The run driver: one entry point for every library run of the paper's
// workflow -- create the job, attach dynprof, patch at MPI_Init/VT_init
// exit, release, collect -- and of the static Table-3 policies.
//
// A run is a list of jobs on one simulated cluster; a single-job run is a
// list of one (compare ScALPEL's always-on monitoring of concurrent
// applications, PAPERS.md).  run() owns the substrate -- one telemetry
// registry, one parallel engine, one cluster, optionally one fault
// injector -- and builds a shared-substrate dynprof::Launch per job
// (DESIGN.md §15):
//
//   * each job gets its own node span (first_node) and, on shared nodes,
//     its own CPU range (first_cpu), registered as a machine::JobSpan so
//     messages touching multi-tenant nodes pay the tenancy surcharge;
//   * each Dynamic/Adaptive job gets its own DynprofTool instance on its
//     own login node above the union span;
//   * fault plans apply across the whole machine: node-scoped verbs hit
//     every job on the physical node, while rank-scoped verbs accept
//     job=<name> to pick one job's rank space.
//
// Determinism: the whole run executes under the one conservative parallel
// engine, so results are bit-identical for every sim_threads value.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"

namespace dyntrace::dynprof {

// Every member has a default initializer (`{}` where no value fits), so
// callers can name just the fields they set in a designated initializer.
struct JobSpec {
  const asci::AppSpec* app = nullptr;
  /// Unique job name (fault verbs and reports refer to it); defaults to the
  /// app name, which therefore must be unique across jobs.
  std::string name{};
  Policy policy = Policy::kNone;
  int nprocs = 1;            ///< MPI ranks, or OpenMP threads for OpenMP apps
  int threads_per_rank = 1;  ///< OpenMP team size per rank (mixed-mode apps)
  double problem_scale = 1.0;
  /// The job's application seed; unset = drawn from RunSpec::seed.
  std::optional<std::uint64_t> seed{};
  /// First node of the job's span.  Jobs may overlap node spans as long as
  /// their CPU ranges are disjoint.
  int first_node = 0;
  /// First CPU the job occupies on each of its nodes.
  int first_cpu = 0;
  /// Dynamic/Adaptive: the dynprof command script.  Command file `subset`
  /// names the app's dynamic list and `all` every user function; empty runs
  /// `insert-file subset` (Dynamic) or `insert-file all` (Adaptive), then
  /// `start` and `quit`.
  std::string script{};

  // --- Policy::kAdaptive only ----------------------------------------------
  /// Budget controller configuration (see control::ControllerOptions).
  control::ControllerOptions controller{};
  /// Safe-point cadence fed to AppParams::confsync_interval.
  int confsync_interval = 36;
  /// Statistics-reduction overlay arity; 0 = linear gather.
  int tree_arity = 4;
};

struct RunSpec {
  std::vector<JobSpec> jobs;
  std::optional<machine::MachineSpec> machine;  ///< default: IBM Power3 SP
  /// Simulation worker threads; results are bit-identical for every value.
  int sim_threads = 1;
  /// Seeds the cluster's noise and every job whose own seed is unset.
  std::uint64_t seed = 42;
  std::shared_ptr<fault::FaultInjector> fault;
  /// Self-telemetry level (DESIGN.md §12); never perturbs simulated results.
  telemetry::Level telemetry_level = telemetry::default_level();
  /// Per-process trace-shard spill budget (see Launch::Options); spilling
  /// changes where records live, never a digest.
  std::size_t trace_spill_bytes = 0;
  /// Called once per finished job, in job order, before run() returns and
  /// while every trace and the run's telemetry are still alive.
  std::function<void(Launch&)> on_complete;
};

struct JobResult {
  std::string job;
  Policy policy = Policy::kNone;
  int nprocs = 1;
  /// Post-initialization main-computation time: the Figure 7 metric.
  double app_seconds = 0;
  double total_seconds = 0;
  /// dynprof create+instrument time (Figure 9); 0 for static policies.
  double create_instrument_seconds = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t filtered_events = 0;
  /// Safe points rank 0 executed (0 unless Adaptive).
  std::uint64_t confsyncs = 0;
  /// FNV-1a fingerprints of the merged trace and of rank 0's final
  /// statistics table: the bit-identity witnesses.
  std::uint64_t trace_digest = 0;
  std::uint64_t stats_digest = 0;
  /// The controller's decision trail (Adaptive only).
  control::DecisionLog decisions;
  /// Job-local ranks dead at run end (fault runs only).
  std::vector<int> lost_ranks;
  /// dynprof's internal timings and ladder drops (empty for static policies).
  std::string timefile;
  std::vector<DynprofTool::Degradation> degradations;
};

struct RunResult {
  std::vector<JobResult> jobs;
  /// FNV-1a fold of every job's trace + stats digest, in job order.
  std::uint64_t combined_digest = 0;
};

RunResult run(const RunSpec& spec);

/// Whether a job under `policy` is driven by a DynprofTool (Dynamic,
/// Adaptive) rather than started directly.
bool runs_tool(Policy policy);

/// The processor counts evaluated for an app in the paper (§4.2): MPI apps
/// 1..64 (Sweep3d from 2), Umt98 1..8.
std::vector<int> cpu_counts_for(const asci::AppSpec& app);

}  // namespace dyntrace::dynprof

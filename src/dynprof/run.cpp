#include "dynprof/run.hpp"

#include <algorithm>

#include "control/overlay.hpp"
#include "fault/injector.hpp"
#include "guide/compiler.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"

namespace dyntrace::dynprof {

namespace {

constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return SplitMix64(h ^ v).next();
}

/// The job's footprint on every node it spans (same arithmetic as
/// Cluster::place_block).
machine::Cluster::JobSpan span_for(const machine::MachineSpec& machine, const JobSpec& job) {
  const bool openmp = job.app->model == asci::AppSpec::Model::kOpenMP;
  const int nprocs = openmp ? 1 : job.nprocs;
  const int cpus_per_proc = openmp ? job.nprocs : job.threads_per_rank;
  const int units_per_node = (machine.cpus_per_node - job.first_cpu) / cpus_per_proc;
  DT_EXPECT(units_per_node >= 1, "job '", job.name, "': a ", cpus_per_proc,
            "-cpu rank at offset ", job.first_cpu, " does not fit on a ",
            machine.cpus_per_node, "-cpu node");
  return machine::Cluster::JobSpan{job.name, job.first_node,
                                   (nprocs + units_per_node - 1) / units_per_node,
                                   job.first_cpu, units_per_node * cpus_per_proc};
}

}  // namespace

bool runs_tool(Policy policy) {
  return policy == Policy::kDynamic || policy == Policy::kAdaptive;
}

RunResult run(const RunSpec& spec) {
  std::vector<JobSpec> jobs = spec.jobs;
  DT_EXPECT(!jobs.empty(), "a run needs at least one job");
  for (auto& job : jobs) {
    DT_EXPECT(job.app != nullptr, "every job needs an application");
    if (job.name.empty()) job.name = job.app->name;
  }
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      DT_EXPECT(jobs[a].name != jobs[b].name, "job name '", jobs[a].name,
                "' used twice (give jobs unique names)");
    }
  }

  // Lifetime chain, destroyed in reverse: the registry outlives the engine
  // (spans fire while ~Engine destroys surviving coroutine frames), and the
  // engine outlives the cluster, launches and tools those frames reference.
  telemetry::Registry registry(spec.telemetry_level);
  telemetry::ScopedRegistry scoped_registry(registry);
  sim::ParallelEngine engine(std::max(1, spec.sim_threads));
  machine::Cluster cluster(engine, spec.machine.value_or(machine::ibm_power3_sp()),
                           /*noise_seed=*/spec.seed ^ 0x9e3779b9);
  if (spec.fault != nullptr) cluster.set_fault_injector(spec.fault.get());

  // Register every job's footprint first: tenant counts feed the contention
  // model, and register_job validates spans against the machine.  Each
  // tool job then gets a login node above the union span, clamped to the
  // machine's last node.
  int next_tool_node = 0;
  for (const auto& job : jobs) {
    const machine::Cluster::JobSpan span = span_for(cluster.spec(), job);
    next_tool_node = std::max(next_tool_node, span.first_node + span.node_count);
    cluster.register_job(span);
  }
  std::vector<int> tool_nodes(jobs.size(), -1);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!runs_tool(jobs[j].policy)) continue;
    tool_nodes[j] = std::min(next_tool_node++, cluster.spec().nodes - 1);
  }
  // One partition over the union span plus the login nodes, before any
  // Launch binds processes to engines.
  cluster.partition_nodes(std::min(cluster.spec().nodes, next_tool_node));

  Rng seed_rng(spec.seed ^ 0x6a6f62);  // "job"
  std::vector<std::unique_ptr<Launch>> launches;
  for (const auto& job : jobs) {
    Launch::Options lo;
    lo.app = job.app;
    lo.params.nprocs = job.nprocs;
    lo.params.threads_per_rank = job.threads_per_rank;
    lo.params.problem_scale = job.problem_scale;
    lo.params.seed = job.seed.has_value() ? *job.seed : seed_rng.next_u64();
    if (job.policy == Policy::kAdaptive) {
      lo.params.confsync_interval = job.confsync_interval;
      lo.params.confsync_statistics = true;
    }
    lo.policy = job.policy;
    lo.first_app_node = job.first_node;
    lo.first_app_cpu = job.first_cpu;
    lo.job_name = job.name;
    lo.trace_spill_bytes = spec.trace_spill_bytes;
    lo.fault = spec.fault;
    lo.shared_engine = &engine;
    lo.shared_cluster = &cluster;
    lo.shared_telemetry = &registry;
    launches.push_back(std::make_unique<Launch>(std::move(lo)));
  }

  // Wire each tool job: command files, the Adaptive overlay, appliers and
  // controller, then the tool itself.
  std::vector<std::unique_ptr<DynprofTool>> tools(jobs.size());
  std::vector<std::unique_ptr<control::BudgetController>> controllers(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobSpec& job = jobs[j];
    Launch& launch = *launches[j];
    if (!runs_tool(job.policy)) continue;

    DynprofTool::Options to;
    to.tool_node = tool_nodes[j];
    to.tool_pid = 100000 + static_cast<int>(j) * 1000;
    std::vector<std::string> all_user;
    for (const auto& fn : job.app->symbols->all()) {
      if (!guide::is_runtime_module(fn.module)) all_user.push_back(fn.name);
    }
    to.command_files = {{"subset", job.app->dynamic_list}, {"all", std::move(all_user)}};
    if (job.policy == Policy::kAdaptive) {
      std::shared_ptr<control::StatsOverlay> overlay;
      if (job.tree_arity > 0) {
        overlay = std::make_shared<control::StatsOverlay>(job.tree_arity);
        overlay->prepare(launch.process_count());
        overlay->set_job(launch.job_name());
      }
      for (int pid = 0; pid < launch.process_count(); ++pid) {
        if (overlay) launch.vt(pid).set_stats_aggregator(overlay);
        control::install_probe_edit_applier(launch.vt(pid));
      }
      controllers[j] = std::make_unique<control::BudgetController>(job.controller);
      controllers[j]->attach(launch.vt(0), launch.staged());
    }
    tools[j] = std::make_unique<DynprofTool>(launch, std::move(to));
    std::string script = job.script;
    if (script.empty()) {
      script = job.policy == Policy::kAdaptive ? "insert-file all\nstart\nquit\n"
                                               : "insert-file subset\nstart\nquit\n";
    }
    tools[j]->run_script(parse_script(script));
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (tools[j] == nullptr) launches[j]->start();  // tools start their own job
  }
  engine.run();

  RunResult result;
  result.combined_digest = 0x6d756c74696a6f62ULL;  // "multijob"
  sim::TimeNs end = 0;
  for (const auto& launch : launches) end = std::max(end, launch->job().finish_time());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Launch& launch = *launches[j];
    const Launch::Result r = launch.collect_result();
    JobResult jr;
    jr.job = launch.job_name();
    jr.policy = jobs[j].policy;
    jr.nprocs = launch.process_count();
    jr.app_seconds = r.app_seconds;
    jr.total_seconds = r.total_seconds;
    jr.trace_events = r.trace_events;
    jr.filtered_events = r.filtered_events;
    jr.confsyncs = launch.vt(0).confsyncs();
    jr.trace_digest = launch.trace()->digest();
    jr.stats_digest = vt::stats_digest(launch.vt(0).statistics());
    if (const DynprofTool* tool = tools[j].get()) {
      DT_ASSERT(tool->finished(), "job '", jr.job, "'s dynprof tool did not finish");
      jr.create_instrument_seconds = sim::to_seconds(tool->create_and_instrument_time());
      jr.timefile = tool->timefile_text();
      jr.degradations = tool->degradations();
    }
    if (controllers[j] != nullptr) jr.decisions = controllers[j]->log();
    if (spec.fault != nullptr) jr.lost_ranks = spec.fault->dead_ranks(end, jr.job);
    result.combined_digest = fold(result.combined_digest, jr.trace_digest);
    result.combined_digest = fold(result.combined_digest, jr.stats_digest);
    result.jobs.push_back(std::move(jr));
  }
  if (spec.on_complete) {
    for (const auto& launch : launches) spec.on_complete(*launch);
  }
  return result;
}

std::vector<int> cpu_counts_for(const asci::AppSpec& app) {
  std::vector<int> counts;
  for (int p = 1; p <= app.max_procs; p *= 2) {
    if (p >= app.min_procs) counts.push_back(p);
  }
  return counts;
}

}  // namespace dyntrace::dynprof

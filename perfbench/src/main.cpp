// perfbench: runs one benchmark workload against the dyntrace
// libraries for a fixed host-time budget and prints one JSON object with
// the per-round samples, digests, layer counters and (traced runs) layer
// host times.  perfbench/run.py builds this program, checks the digests
// against perfbench/pins.json, applies the bypass checks and prints the
// result; see perfbench/README.md.
//
//   perfbench --workload fig7a_sweep --seed 3 --seconds 25 --trace 0
//
// Rounds run every cell of the workload once.  Untraced rounds give the
// end-to-end samples.  With --trace 1 traced rounds (host spans around each
// call into a layer, telemetry counters on) alternate with untraced ones,
// and their wall-time ratio is the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profile.hpp"
#include "asci/app.hpp"
#include "dynprof/command.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"
#include "guide/compiler.hpp"
#include "machine/spec.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/strings.hpp"
#include "telemetry/registry.hpp"
#include "vt/filter.hpp"
#include "vt/trace_codec_v2.hpp"
#include "vt/vtlib.hpp"

#include "reference.hpp"
#include "spans.hpp"
#include "tenants.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace dyntrace;
using dynprof::Policy;
namespace fs = std::filesystem;

/// Seeds map onto this many input variants; perfbench/pins.json holds the
/// digests of every variant.
constexpr std::uint64_t kVariants = 16;
constexpr std::uint64_t kAppSeedBase = 1000;
/// Per-shard spill budget of trace_spill.  Every spilled run is fsynced, and
/// on the reference host's shared disk an fsync costs from ~0 to ~2 ms
/// depending on the neighbours: at 64 KiB the 740 fsyncs per round made
/// half the cell's time disk latency and the run spread by 0.2 between
/// runs; 256 KiB cuts them to about 190.
constexpr std::size_t kSpillBudget = 256 * 1024;
constexpr std::uint64_t kScriptSeed = 42;

// --- workloads ----------------------------------------------------------------

struct Cell {
  std::string name;
  const asci::AppSpec* app = nullptr;  ///< null: a service tenants cell
  Policy policy = Policy::kNone;
  int nprocs = 1;
  double scale = 1.0;
  int sim_threads = 1;
  std::size_t spill_bytes = 0;
  /// After the run: write the trace (v2), stream it back, profile it.
  bool write_read_analyze = false;
  TenantOptions tenants;
};

/// Apps with max_procs widened for the large-rank cells (the paper
/// evaluated Smg98 up to 64 CPUs; the ROADMAP sweeps go to 4096).
const asci::AppSpec& widened(const asci::AppSpec& app) {
  static std::map<std::string, std::unique_ptr<asci::AppSpec>> cache;
  auto& slot = cache[app.name];
  if (slot == nullptr) {
    slot = std::make_unique<asci::AppSpec>(app);
    slot->max_procs = std::max(app.max_procs, 4096);
  }
  return *slot;
}

/// The IBM Power3 SP, grown node for node when `cpus` ranks plus a tool
/// node do not fit (the bench's --max-cpus convention).
std::optional<machine::MachineSpec> machine_for(int cpus) {
  machine::MachineSpec spec = machine::ibm_power3_sp();
  const int needed = (cpus + spec.cpus_per_node - 1) / spec.cpus_per_node + 1;
  if (needed <= spec.nodes) return std::nullopt;
  spec.nodes = needed;
  spec.name += "-x" + std::to_string(needed);
  return spec;
}

std::string policy_slug(Policy policy) {
  std::string s = str::to_lower(dynprof::to_string(policy));
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

Cell policy_cell(const asci::AppSpec& app, Policy policy, int nprocs, double scale,
                 int sim_threads) {
  Cell cell;
  cell.app = &widened(app);
  cell.policy = policy;
  cell.nprocs = nprocs;
  cell.scale = scale;
  cell.sim_threads = sim_threads;
  cell.name = str::format("%s.%s.%d", app.name.c_str(), policy_slug(policy).c_str(), nprocs);
  return cell;
}

/// `reference` builds every cell sequentially: the digests sharded_2t
/// must reproduce are the sequential ones.
std::vector<Cell> workload_cells(const std::string& workload, bool reference) {
  std::vector<Cell> cells;
  if (workload == "fig7a_sweep") {
    for (const Policy p : {Policy::kFull, Policy::kFullOff, Policy::kDynamic, Policy::kNone}) {
      cells.push_back(policy_cell(asci::smg98(), p, 1024, 0.05, 1));
    }
  } else if (workload == "trace_spill") {
    Cell cell = policy_cell(asci::sweep3d(), Policy::kFull, 64, 1.0, 1);
    cell.spill_bytes = kSpillBudget;
    cell.write_read_analyze = true;
    cell.name += ".spill";
    cells.push_back(cell);
  } else if (workload == "service_tenants") {
    Cell cell;
    cell.name = "svcapp.tenants.3000";
    cell.tenants.ranks = 8;
    cell.tenants.functions = 32;
    cell.tenants.sessions = 3000;
    cell.tenants.commands_per_session = 4;
    // The seed varies the job, never the command mix: the mix sets how much
    // work the service does (0.57-1.17 s across script seeds at 3000
    // sessions), so varying it would make the seed, not the code, move the
    // figures.
    cell.tenants.script_seed = kScriptSeed;
    cells.push_back(cell);
  } else if (workload == "sharded_2t") {
    const int threads = reference ? 1 : 2;
    cells.push_back(policy_cell(asci::smg98(), Policy::kFull, 1024, 0.05, threads));
    cells.push_back(policy_cell(asci::sweep3d(), Policy::kFull, 64, 1.0, threads));
  } else {
    throw Error("unknown workload '" + workload +
                "' (fig7a_sweep, trace_spill, service_tenants, sharded_2t)");
  }
  return cells;
}

// --- per-cell measurement -----------------------------------------------------

/// Layer counters and times of one cell run; summed over a round's cells.
using Values = std::map<std::string, double>;

struct CellRun {
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;  ///< everything after set-up: run, post-processing, teardown
  std::uint64_t events = 0;
  std::vector<std::uint64_t> digests;  ///< trace + stats, or the scenario digest
  Values counters;                     ///< exact counts (every round)
  Values extra;                        ///< workload-specific user-facing figures
  std::uint64_t attempted = 0;         ///< service commands / dynprof sessions
  std::uint64_t failed = 0;
};

struct Env {
  fs::path scratch;  ///< spill runs and written traces
  SpanRecorder* spans = nullptr;
  bool traced = false;
};

double percentile_ms(std::vector<sim::TimeNs> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1));
  return sim::to_seconds(values[index]) * 1e3;
}

double histogram_quantile(const telemetry::Registry::Snapshot& snap, const std::string& name,
                          double q) {
  for (const auto& h : snap.histograms) {
    if (h.name != name || h.count == 0) continue;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(h.count - 1));
    std::uint64_t seen = 0;
    for (std::uint32_t b = 0; b < telemetry::kHistogramBuckets; ++b) {
      seen += h.buckets[b];
      if (seen > target) return static_cast<double>(telemetry::histogram_bucket_lower(b));
    }
  }
  return 0;
}

/// Counters every layer exposes through its public accessors.
void read_launch_counters(dynprof::Launch& launch, Values& c) {
  sim::ParallelEngine& engine = launch.parallel_engine();
  c["sim.events"] += static_cast<double>(engine.events_executed());
  c["sim.windows"] += static_cast<double>(engine.windows());
  c["sim.fused_windows"] += static_cast<double>(engine.fused_windows());
  double cross = 0;
  for (int s = 0; s < engine.shard_count(); ++s) {
    for (int d = 0; d < engine.shard_count(); ++d) {
      if (s != d) cross += static_cast<double>(engine.channel_deliveries(s, d));
    }
  }
  c["sim.cross_deliveries"] += cross;

  const std::shared_ptr<vt::TraceStore> store = launch.trace();
  c["vt.records"] += static_cast<double>(store->size());
  const vt::TraceStore::VolumeStats volume = store->volume_stats();
  c["vt.spill_records"] += static_cast<double>(volume.spilled_records);
  c["vt.spill_bytes"] += static_cast<double>(volume.spilled_bytes);
  c["vt.suppressed_records"] += static_cast<double>(volume.suppressed_records);
  c["vt.super_records"] += static_cast<double>(volume.super_records);

  double installed = 0, active = 0, epochs = 0, entries = 0, suspends = 0;
  double virtual_events = 0, filtered = 0;
  for (int pid = 0; pid < launch.process_count(); ++pid) {
    proc::SimProcess& process = launch.job().process(pid);
    installed += static_cast<double>(process.image().installed_probe_count());
    active += static_cast<double>(process.image().active_probe_count());
    epochs += static_cast<double>(process.image().patch_epoch());
    suspends += static_cast<double>(process.suspend_count());
    for (const auto& thread : process.threads()) {
      entries += static_cast<double>(thread->function_entries());
    }
    virtual_events += static_cast<double>(launch.vt(pid).virtual_events());
    filtered += static_cast<double>(launch.vt(pid).events_filtered());
  }
  c["image.installed_probes"] += installed;
  c["image.active_probes"] += active;
  c["image.patch_epochs"] += epochs;
  c["proc.function_entries"] += entries;
  c["proc.suspends"] += suspends;
  c["vt.virtual_events"] += virtual_events;
  c["vt.filtered_events"] += filtered;

  if (mpi::World* world = launch.world()) {
    c["mpi.messages"] += static_cast<double>(world->total_messages());
    c["mpi.collectives"] += static_cast<double>(world->rank(0).collectives());
  }
  c["machine.messages"] += static_cast<double>(launch.cluster().messages_sent());
  c["machine.bytes"] += static_cast<double>(launch.cluster().bytes_sent());
}

/// Counters that exist only as telemetry (read in traced rounds, where the
/// run's registry is at the counters level).
void read_telemetry_counters(const dynprof::Launch& launch, Values& c) {
  const telemetry::Registry::Snapshot snap = launch.telemetry_registry().snapshot();
  c["sim.window_stalls"] += static_cast<double>(snap.counter_value("sim.window_stalls"));
  c["sim.window_stall_ns.p50"] += histogram_quantile(snap, "sim.window_stall_ns", 0.50);
  c["sim.window_stall_ns.p99"] += histogram_quantile(snap, "sim.window_stall_ns", 0.99);
  c["dpcl.retries"] += static_cast<double>(snap.counter_value("dpcl.retries"));
  c["control.confsync_rounds"] +=
      static_cast<double>(snap.counter_value("control.confsync_rounds"));
  c["control.overlay_rounds"] += static_cast<double>(snap.counter_value("control.overlay_rounds"));
}

void read_tool_counters(dynprof::DynprofTool& tool, Values& c) {
  if (tool.application() != nullptr) {
    c["dpcl.requests"] += static_cast<double>(tool.application()->requests_sent());
  }
  c["dynprof.instrumented_functions"] += static_cast<double>(tool.instrumented_function_count());
}

/// Set-up work the Launch does internally, timed through the same public
/// calls: guide::compile for the policy, and one FilterTable per rank for
/// the policy's VT configuration.
void probe_setup_layers(const Cell& cell, const Env& env) {
  const bool static_instr = cell.policy == Policy::kFull || cell.policy == Policy::kFullOff ||
                            cell.policy == Policy::kSubset;
  const image::SymbolTable& symbols = *cell.app->symbols;
  env.spans->scoped("guide.compile", [&] {
    guide::CompileOptions options;
    options.instrument_subroutines = static_instr;
    return guide::compile(cell.app->symbols, options).static_instrumented_count();
  });
  vt::FilterProgram program;
  if (cell.policy == Policy::kFullOff) program = guide::full_off_filter();
  if (cell.policy == Policy::kSubset) program = guide::subset_filter(cell.app->subset);
  env.spans->scoped("vt.filter_build", [&] {
    std::size_t deactivated = 0;
    for (int pid = 0; pid < cell.nprocs; ++pid) {
      deactivated += vt::FilterTable(symbols, program).deactivated_count();
    }
    return deactivated;
  });
}

/// Codec and spill-path costs over the run's own records (spans vt.encode
/// and vt.append_spill): encode them as v2 blocks, and append them to a
/// fresh store with the cell's spill budget.
void probe_codec_layers(dynprof::Launch& launch, const Cell& cell, const Env& env) {
  const std::vector<vt::Event> events = launch.trace()->events();
  env.spans->scoped("vt.encode", [&] {
    std::vector<std::uint8_t> out;
    vt::SuppressionTable table(vt::ShardOptions{}.suppression_table_capacity);
    return vt::encode_v2_blocks(events.data(), events.size(), &table, out).records;
  });
  vt::ShardOptions options;
  options.spill_budget_bytes = cell.spill_bytes;
  options.spill_dir = (env.scratch / "append").string();
  options.format = vt::TraceFormat::kV2;
  fs::create_directories(options.spill_dir);
  env.spans->scoped("vt.append_spill", [&] {
    vt::TraceStore store(options);
    for (const vt::Event& e : events) store.append(e);
    return store.size();
  });
}

/// A policy cell's stack, built up to its first simulated event.
struct PolicyStack {
  std::unique_ptr<dynprof::Launch> launch;
  std::unique_ptr<dynprof::DynprofTool> tool;  ///< Dynamic policy only
};

PolicyStack set_up_policy(const Cell& cell, std::uint64_t app_seed, const Env& env) {
  dynprof::Launch::Options options;
  options.app = cell.app;
  options.params.nprocs = cell.nprocs;
  options.params.problem_scale = cell.scale;
  options.params.seed = app_seed;
  options.policy = cell.policy;
  options.machine = machine_for(cell.nprocs);
  options.sim_threads = cell.sim_threads;
  options.trace_spill_bytes = cell.spill_bytes;
  options.trace_spill_dir = (env.scratch / "spill").string();
  options.trace_format = vt::TraceFormat::kV2;
  options.telemetry_level = env.traced ? telemetry::Level::kCounters : telemetry::Level::kOff;
  if (cell.spill_bytes > 0) fs::create_directories(options.trace_spill_dir);

  PolicyStack stack;
  stack.launch = env.spans->scoped("dynprof.launch", [&] {
    return std::make_unique<dynprof::Launch>(std::move(options));
  });
  env.spans->scoped("dynprof.script", [&] {
    if (cell.policy == Policy::kDynamic) {
      // As in the paper (§4.2): suspend after MPI_Init, insert the dynamic
      // list from a command file, resume.
      dynprof::DynprofTool::Options tool_options;
      tool_options.command_files = {{"subset.txt", cell.app->dynamic_list}};
      stack.tool = std::make_unique<dynprof::DynprofTool>(*stack.launch, std::move(tool_options));
      stack.tool->run_script(dynprof::parse_script("insert-file subset.txt\nstart\nquit\n"));
    } else {
      stack.launch->start();
    }
    return 0;
  });
  return stack;
}

TenantOptions tenant_options(const Cell& cell, std::uint64_t app_seed, const Env& env) {
  TenantOptions options = cell.tenants;
  options.seed = app_seed;
  options.telemetry_level = env.traced ? telemetry::Level::kCounters : telemetry::Level::kOff;
  return options;
}

/// Host seconds to build a cell's stack up to its first simulated event
/// (then torn down unrun): one set-up sample.
double sample_setup(const Cell& cell, std::uint64_t app_seed, const Env& env) {
  const Clock::time_point t0 = Clock::now();
  if (cell.app != nullptr) {
    const PolicyStack stack = set_up_policy(cell, app_seed, env);
    const Clock::time_point t1 = Clock::now();
    return seconds_between(t0, t1);
  }
  const Tenants tenants(tenant_options(cell, app_seed, env));
  return seconds_between(t0, Clock::now());
}

CellRun run_policy_cell(const Cell& cell, std::uint64_t app_seed, const Env& env) {
  SpanRecorder& spans = *env.spans;
  CellRun out;
  const int root = spans.begin("cell");
  if (env.traced) probe_setup_layers(cell, env);

  const Clock::time_point t0 = Clock::now();
  PolicyStack stack = set_up_policy(cell, app_seed, env);
  std::unique_ptr<dynprof::Launch>& launch = stack.launch;
  std::unique_ptr<dynprof::DynprofTool>& tool = stack.tool;
  const Clock::time_point t1 = Clock::now();

  spans.scoped("sim.run", [&] {
    launch->run_engine();
    return 0;
  });
  const Clock::time_point t2 = Clock::now();
  out.events = launch->parallel_engine().events_executed();

  // Post-processing the user waits for: the trace and statistics digests
  // (a full merge of the in-memory or spilled trace), and for the spill
  // workload the v2 file round trip and the profile.
  spans.scoped("vt.digest", [&] {
    out.digests.push_back(launch->trace()->digest());
    out.digests.push_back(vt::stats_digest(launch->vt(0).statistics()));
    return 0;
  });
  if (cell.write_read_analyze) {
    const std::string path = (env.scratch / "trace.v2.bin").string();
    spans.scoped("vt.write_binary", [&] {
      launch->trace()->write_binary(path, vt::TraceFormat::kV2);
      return 0;
    });
    const Clock::time_point m0 = Clock::now();
    const std::uint64_t merged = spans.scoped("vt.open_binary_merge", [&] {
      std::unique_ptr<vt::EventCursor> cursor = vt::TraceStore::open_binary(path);
      vt::Event event;
      std::uint64_t n = 0;
      while (cursor->next(event)) ++n;
      return n;
    });
    const Clock::time_point m1 = Clock::now();
    out.extra["trace_merge_events_per_s"] =
        static_cast<double>(merged) / seconds_between(m0, m1);
    out.extra["trace_bytes_per_event"] =
        static_cast<double>(fs::file_size(path)) / static_cast<double>(merged);
    out.counters["vt.file_records"] = static_cast<double>(merged);
    spans.scoped("analysis.profile", [&] {
      return analysis::TraceAnalyzer(*launch->trace()).processes().size();
    });
    fs::remove(path);
  }
  const Clock::time_point t3 = Clock::now();

  // Counters and traced-only probes sit outside the timed phases.
  read_launch_counters(*launch, out.counters);
  if (tool != nullptr) {
    read_tool_counters(*tool, out.counters);
    ++out.attempted;
    if (!tool->finished()) ++out.failed;
  }
  if (env.traced) {
    read_telemetry_counters(*launch, out.counters);
    if (cell.spill_bytes > 0) probe_codec_layers(*launch, cell, env);
  }

  const Clock::time_point t4 = Clock::now();
  spans.scoped("dynprof.teardown", [&] {
    tool.reset();
    launch.reset();
    return 0;
  });
  const Clock::time_point t5 = Clock::now();
  spans.end(root);

  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.wall_s = seconds_between(t1, t3) + seconds_between(t4, t5);
  return out;
}

bool failed_status(service::Status status) {
  switch (status) {
    case service::Status::kError:
    case service::Status::kDaemonLost:
    case service::Status::kTimeout:
    case service::Status::kShed:
    case service::Status::kCanceled:
    case service::Status::kShutdown:
      return true;
    default:
      return false;
  }
}

CellRun run_tenants_cell(const Cell& cell, std::uint64_t app_seed, const Env& env) {
  SpanRecorder& spans = *env.spans;
  CellRun out;
  const int root = spans.begin("cell");
  const TenantOptions options = tenant_options(cell, app_seed, env);

  const Clock::time_point t0 = Clock::now();
  auto tenants = spans.scoped("service.setup", [&] { return std::make_unique<Tenants>(options); });
  const Clock::time_point t1 = Clock::now();
  spans.scoped("service.run", [&] {
    tenants->run();
    return 0;
  });
  const Clock::time_point t2 = Clock::now();
  out.events = tenants->launch().parallel_engine().events_executed();
  const TenantResult result = spans.scoped("service.collect", [&] { return tenants->collect(); });
  const Clock::time_point t3 = Clock::now();

  out.digests.push_back(result.digest);
  read_launch_counters(tenants->launch(), out.counters);
  read_tool_counters(tenants->tool(), out.counters);
  if (env.traced) read_telemetry_counters(tenants->launch(), out.counters);
  const auto count = [&](service::Status s) {
    const auto it = result.status_counts.find(s);
    return it == result.status_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  Values& c = out.counters;
  c["service.commands"] += static_cast<double>(result.commands);
  c["service.admits"] += count(service::Status::kAdmitted);
  c["service.degrades"] += count(service::Status::kDegraded);
  c["service.denials"] += count(service::Status::kDenied);
  c["service.windows"] += static_cast<double>(result.windows);
  c["service.sub_deliveries"] += static_cast<double>(result.sub_deliveries);
  c["service.sub_events"] += static_cast<double>(result.sub_events);
  out.attempted = result.commands;
  for (const auto& [status, n] : result.status_counts) {
    if (failed_status(status)) out.failed += n;
  }
  out.extra["sessions_per_s"] = static_cast<double>(options.sessions) / seconds_between(t1, t2);
  out.extra["cmd_latency_p50_ms"] = percentile_ms(result.latencies, 0.50);
  out.extra["cmd_latency_p99_ms"] = percentile_ms(result.latencies, 0.99);

  const Clock::time_point t4 = Clock::now();
  spans.scoped("dynprof.teardown", [&] {
    tenants.reset();
    return 0;
  });
  const Clock::time_point t5 = Clock::now();
  spans.end(root);

  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.wall_s = seconds_between(t1, t3) + seconds_between(t4, t5);
  return out;
}

CellRun run_cell(const Cell& cell, std::uint64_t app_seed, const Env& env) {
  return cell.app != nullptr ? run_policy_cell(cell, app_seed, env)
                             : run_tenants_cell(cell, app_seed, env);
}

// --- rounds -------------------------------------------------------------------

/// Set-up-only samples taken before each cell of a timed untraced round, on
/// top of the round's own set-up: as many as fit in this share of the
/// cell's last measured time, up to the cap.  Spreading them over the run
/// keeps one moment's contention from deciding setup_s.
constexpr double kSetupShare = 0.05;
constexpr int kMaxExtraSetups = 20;
/// Minimum timed rounds of each kind, so every figure is a median.
constexpr std::size_t kMinRounds = 3;

struct Round {
  bool warmup = false;
  bool traced = false;
  double wall_s = 0;
  double run_s = 0;
  std::uint64_t events = 0;
  Values counters;
  Values extra;
};

bool is_percentile(const std::string& counter) {
  return counter.ends_with(".p50") || counter.ends_with(".p99");
}

/// Telemetry counters that depend on host timing (whether the window
/// barrier really waited), so they legitimately differ between rounds.
bool host_timed(const std::string& counter) {
  return counter.rfind("sim.window_stall", 0) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- JSON output --------------------------------------------------------------

std::string json_number(double v) { return str::format("%.17g", v); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

template <typename Map, typename Render>
std::string json_object(const Map& map, Render render) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": " + render(v);
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  return str::format("%016llx", static_cast<unsigned long long>(v));
}

int run(int argc, char** argv) {
  std::string workload;
  std::int64_t seed = 0;
  double seconds = 10;
  std::int64_t trace = 0;
  std::string out_dir = ".bench_build/perfbench-out";
  bool reference = false;
  CliParser cli("perfbench", "Run one dyntrace benchmark workload");
  cli.option_string("workload", "fig7a_sweep | trace_spill | service_tenants | sharded_2t",
                    &workload)
      .option_int("seed", "workload seed (selects one of 16 input variants)", &seed)
      .option_double("seconds", "host seconds to keep running rounds", &seconds)
      .option_int("trace", "1 = alternate traced and untraced rounds", &trace)
      .option_string("out-dir", "directory for spill runs and the span file", &out_dir)
      .flag("reference",
            "one sequential round that also cross-checks the service against "
            "service::run_scenario (used to regenerate pins.json)",
            &reference);
  if (!cli.parse(argc, argv)) return 0;
  DT_EXPECT(seed >= 0, "--seed must be non-negative");
  DT_EXPECT(seconds > 0, "--seconds must be positive");

  const std::uint64_t variant = static_cast<std::uint64_t>(seed) % kVariants;
  const std::uint64_t app_seed = kAppSeedBase + variant;
  const std::vector<Cell> cells = workload_cells(workload, reference);
  const bool traced_run = trace != 0 && !reference;

  const fs::path out_path(out_dir);
  const fs::path scratch = out_path / str::format("scratch-%s-%lld", workload.c_str(),
                                                  static_cast<long long>(seed));
  fs::create_directories(scratch);

  SpanRecorder spans(false);
  Env env{scratch, &spans, false};
  const Clock::time_point start = Clock::now();

  // Host-speed yardstick, built after the warm-up round so it stays out of
  // peak_rss_mb; sampled before every cell.
  std::optional<ReferenceKernel> reference_kernel;
  std::vector<double> reference_s;
  std::map<std::string, std::vector<double>> setup;  // per cell
  std::map<std::string, double> last_wall;           // per cell
  double warmup_rss_mb = 0;
  std::vector<Round> rounds;
  std::map<std::string, std::vector<std::vector<std::uint64_t>>> digests;  // per cell
  std::map<std::string, std::vector<double>> cell_wall, cell_run;          // per cell
  std::map<std::string, double> cell_events;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t untraced = 0;
  std::size_t traced = 0;
  const std::size_t min_rounds = reference ? 0 : kMinRounds;
  const double budget = reference ? 0 : seconds;
  // Stop once another round of the last one's length would overrun.
  double last_round_s = 0;
  while (rounds.empty() || untraced < min_rounds || (traced_run && traced < min_rounds) ||
         seconds_between(start, Clock::now()) + last_round_s < budget) {
    const Clock::time_point round_start = Clock::now();
    // The first round warms caches and lazy set-up; it is checked but not
    // timed.
    const bool warmup = rounds.empty();
    Round round;
    round.warmup = warmup;
    round.traced = !warmup && traced_run && traced < untraced;
    if (!warmup) (round.traced ? traced : untraced) += 1;
    env.traced = round.traced;
    spans.set_enabled(round.traced);
    const int root = spans.begin("round");
    for (const Cell& cell : cells) {
      if (reference_kernel.has_value()) {
        reference_s.push_back(
            spans.scoped("bench.reference", [&] { return reference_kernel->run(); }));
      }
      if (!warmup && !round.traced) {
        const Clock::time_point extra_start = Clock::now();
        const double extra_budget = kSetupShare * last_wall[cell.name];
        for (int i = 0; i < kMaxExtraSetups &&
                        seconds_between(extra_start, Clock::now()) < extra_budget;
             ++i) {
          setup[cell.name].push_back(sample_setup(cell, app_seed, env));
        }
      }
      CellRun cr = run_cell(cell, app_seed, env);
      last_wall[cell.name] = cr.wall_s;
      if (!warmup && !round.traced) {
        setup[cell.name].push_back(cr.setup_s);
        cell_wall[cell.name].push_back(cr.wall_s);
        cell_run[cell.name].push_back(cr.run_s);
        cell_events[cell.name] = static_cast<double>(cr.events);
      }
      round.run_s += cr.run_s;
      round.wall_s += cr.wall_s;
      round.events += cr.events;
      for (const auto& [k, v] : cr.counters) {
        // Counts add up over a round's cells; a percentile takes the worst.
        double& total = round.counters[k];
        total = is_percentile(k) ? std::max(total, v) : total + v;
      }
      for (const auto& [k, v] : cr.extra) round.extra[k] += v;
      digests[cell.name].push_back(cr.digests);
      attempted += cr.attempted;
      failed += cr.failed;
    }
    spans.end(root);
    last_round_s = seconds_between(round_start, Clock::now());
    rounds.push_back(std::move(round));
    if (warmup) {
      // Peak memory of one pass over the workload, before repeated set-ups
      // and rounds can fragment the heap.
      warmup_rss_mb = peak_rss_mb();
      if (!reference) reference_kernel.emplace();
    }
  }
  fs::remove_all(scratch);

  // The benchmark's client loop must reproduce run_scenario exactly, which
  // draws scripts and job from one seed.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> scenario_check;
  if (reference && workload == "service_tenants") {
    TenantOptions options = tenant_options(cells.front(), app_seed, env);
    options.script_seed = options.seed;
    Tenants tenants(options);
    tenants.run();
    scenario_check.emplace(tenants.collect().digest,
                           service::run_scenario(scenario_options(options)).digest);
  }

  // --- emit ---------------------------------------------------------------
  std::map<std::string, std::vector<double>> samples;
  const Round* last = &rounds.back();
  bool counters_stable = true;
  for (const Round& round : rounds) {
    if (round.traced) {
      samples["traced_wall_s"].push_back(round.wall_s);
      last = &round;
      continue;
    }
    if (round.warmup) continue;
    samples["wall_s"].push_back(round.wall_s);
    samples["sim_events_per_s"].push_back(static_cast<double>(round.events) / round.run_s);
    for (const auto& [k, v] : round.extra) samples[k].push_back(v);
  }
  // Counts are exact: every round of a kind must agree.
  for (const Round& round : rounds) {
    if (round.traced != last->traced) continue;
    for (const auto& [k, v] : round.counters) {
      if (!host_timed(k) && v != last->counters.at(k)) counters_stable = false;
    }
  }

  const auto array = [](const std::vector<double>& v) { return json_array(v); };
  std::string json = "{";
  json += "\"workload\": " + json_string(workload);
  json += ", \"seed\": " + std::to_string(seed);
  json += ", \"variant\": " + std::to_string(variant);
  json += ", \"app_seed\": " + std::to_string(app_seed);
  json += ", \"rounds\": " + std::to_string(rounds.size());
  json += ", \"elapsed_s\": " + json_number(seconds_between(start, Clock::now()));
  json += ", \"host\": {\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
          ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__) +
          ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"setup_samples\": " + json_object(setup, array);
  json += ", \"samples\": " + json_object(samples, array);
  json += ", \"cell_wall_s\": " + json_object(cell_wall, array);
  json += ", \"cell_run_s\": " + json_object(cell_run, array);
  json += ", \"cell_events\": " + json_object(cell_events, json_number);
  json += ", \"peak_rss_mb\": " + json_number(warmup_rss_mb);
  json += ", \"reference_s\": " + json_array(reference_s);
  json += ", \"reference_nominal_s\": " + json_number(ReferenceKernel::kNominalSeconds);
  json += ", \"counters\": " + json_object(last->counters, json_number);
  json += ", \"counters_stable\": " + std::string(counters_stable ? "true" : "false");
  std::map<std::string, std::string> cell_json;
  for (const Cell& cell : cells) {
    const auto& seen = digests[cell.name];
    bool deterministic = true;
    for (const auto& d : seen) deterministic = deterministic && d == seen.front();
    std::string c = "{\"digests\": [";
    for (std::size_t i = 0; i < seen.front().size(); ++i) {
      c += (i > 0 ? ", " : "") + json_string(hex(seen.front()[i]));
    }
    c += "], \"deterministic\": " + std::string(deterministic ? "true" : "false") + "}";
    cell_json[cell.name] = c;
  }
  json += ", \"cells\": " + json_object(cell_json, [](const std::string& v) { return v; });
  if (scenario_check.has_value()) {
    json += ", \"scenario_check\": [" + json_string(hex(scenario_check->first)) + ", " +
            json_string(hex(scenario_check->second)) + "]";
  }

  if (traced_run) {
    // Per-layer host times: medians over the traced rounds of each span
    // name's summed duration and self time in that round.
    std::map<std::string, std::vector<double>> total_by_name, self_by_name;
    for (const SpanRecorder::Totals& t : spans.totals_per_root()) {
      for (const auto& [k, v] : t.total_s) total_by_name[k].push_back(v);
      for (const auto& [k, v] : t.self_s) self_by_name[k].push_back(v);
    }
    const auto med = [](const std::vector<double>& v) { return json_number(median(v)); };
    json += ", \"span_total_s\": " + json_object(total_by_name, med);
    json += ", \"span_self_s\": " + json_object(self_by_name, med);
    const fs::path span_file =
        out_path / str::format("%s-seed%lld-spans.json", workload.c_str(),
                               static_cast<long long>(seed));
    std::ofstream(span_file) << spans.chrome_trace_json();
    json += ", \"span_file\": " + json_string(span_file.string());
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

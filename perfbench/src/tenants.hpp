// Closed-loop tenants for the service_tenants workload.
//
// N client sessions attach to one shared target job through
// service::ControlService and run generated command scripts; each client
// sends its next command only after the previous reply arrived.  The client
// side mirrors service::run_scenario (generated scripts, session_batch 1,
// pipeline_depth 1, no fault plan) and reproduces its digest bit for bit,
// but keeps the Launch reachable so the benchmark can time set-up and the
// engine run apart and read every layer's counters afterwards.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "control/overlay.hpp"
#include "dynprof/launch.hpp"
#include "dynprof/tool.hpp"
#include "service/scenario.hpp"
#include "service/service.hpp"

namespace perfbench {

struct TenantOptions {
  int ranks = 8;
  int functions = 32;
  int sessions = 64;
  int session_nodes = 16;
  int commands_per_session = 4;
  std::uint64_t seed = 42;         ///< the job's random draws
  std::uint64_t script_seed = 42;  ///< the sessions' generated command scripts
  dyntrace::telemetry::Level telemetry_level = dyntrace::telemetry::Level::kOff;
};

/// The same options expressed for service::run_scenario, the reference the
/// client loop is cross-checked against.  run_scenario draws scripts and job
/// from one seed, so `script_seed` must equal `seed`.
dyntrace::service::ScenarioOptions scenario_options(const TenantOptions& options);

struct TenantResult {
  std::uint64_t commands = 0;
  std::map<dyntrace::service::Status, std::uint64_t> status_counts;
  std::vector<dyntrace::sim::TimeNs> latencies;
  std::uint64_t windows = 0;
  std::uint64_t sub_deliveries = 0;  ///< subscription deltas received
  std::uint64_t sub_events = 0;      ///< event pairs summarised across them
  std::uint64_t digest = 0;          ///< equal to service::run_scenario's
};

class Tenants {
 public:
  /// Set-up: application, Launch, overlay, tool, service, session clients.
  explicit Tenants(const TenantOptions& options);
  ~Tenants();
  Tenants(const Tenants&) = delete;
  Tenants& operator=(const Tenants&) = delete;

  /// Run the engine until every session detached and the job exited.
  void run();
  TenantResult collect() const;

  dyntrace::dynprof::Launch& launch() { return *launch_; }
  dyntrace::dynprof::DynprofTool& tool() { return *tool_; }

  struct Client;
  struct Coordinator;

 private:
  // Members are destroyed in reverse order, as run_scenario orders its
  // locals: the service, tool and overlay refer to the Launch, and the app
  // spec must outlive it.
  std::unique_ptr<dyntrace::asci::AppSpec> app_;
  std::unique_ptr<dyntrace::dynprof::Launch> launch_;
  std::shared_ptr<dyntrace::control::StatsOverlay> overlay_;
  std::unique_ptr<dyntrace::dynprof::DynprofTool> tool_;
  std::unique_ptr<dyntrace::service::ControlService> service_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<Coordinator> coord_;
};

}  // namespace perfbench

#include "tenants.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "sim/mailbox.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "telemetry/metrics.hpp"
#include "vt/vtlib.hpp"

namespace perfbench {

using namespace dyntrace;
using service::CommandKind;
using service::Request;
using service::Response;
using service::Status;

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// A client that hears nothing for this long records kTimeout and skips to
/// its detach (run_scenario's default response_timeout).
constexpr sim::TimeNs kResponseTimeout = sim::seconds(240);
constexpr sim::TimeNs kSessionStagger = sim::microseconds(50);

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t quantize(double fraction) {
  return static_cast<std::uint64_t>(std::llround(fraction * 1e12));
}

std::string fn_name(int index) { return str::format("svc_fn_%02d", index); }

// The command mix of run_scenario's generated scripts: instrument 1-3
// functions, subscribe to a name decade, stage one filter directive, or ask
// for a report, each with probability 1/4.
std::vector<Request> generate_script(Rng& rng, int functions, int commands) {
  const auto below = [&rng](int bound) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  const auto bare = [](CommandKind kind) {
    Request request;
    request.kind = kind;
    return request;
  };
  std::vector<Request> script;
  script.push_back(bare(CommandKind::kAttach));
  for (int c = 0; c < commands; ++c) {
    Request request;
    switch (rng.next_below(4)) {
      case 0: {
        request.kind = CommandKind::kInstrument;
        const int n = 1 + below(3);
        for (int k = 0; k < n; ++k) request.functions.push_back(fn_name(below(functions)));
        break;
      }
      case 1:
        request.kind = CommandKind::kSubscribe;
        request.pattern = str::format("svc_fn_%d*", below((functions + 9) / 10));
        break;
      case 2: {
        request.kind = CommandKind::kConfsync;
        const bool activate = rng.next_below(2) == 0;
        request.directives.push_back({activate, fn_name(below(functions))});
        break;
      }
      default:
        request.kind = CommandKind::kReport;
        break;
    }
    script.push_back(std::move(request));
  }
  script.push_back(bare(CommandKind::kDetach));
  return script;
}

}  // namespace

struct Tenants::Client {
  service::SessionId id = 0;
  int node = 0;
  sim::Engine* engine = nullptr;
  std::unique_ptr<sim::Trigger> start;
  std::unique_ptr<sim::Mailbox<Response>> inbox;
  std::vector<Request> script;
  std::vector<service::ScenarioResult::CommandOutcome> outcomes;
  std::uint64_t deltas = 0;
  std::uint64_t delta_pairs = 0;
};

struct Tenants::Coordinator {
  std::size_t remaining = 0;
  std::unique_ptr<sim::Trigger> all_done;

  void note_done() {
    DT_ASSERT(remaining > 0, "coordinator completion underflow");
    if (--remaining == 0) all_done->fire();
  }
};

namespace {

// One session, lock-step: send a command, wait for its reply (or the
// deadline), then send the next.  A timed-out or shutdown-refused session
// skips ahead to its detach so the run still drains.
sim::Coro<void> session_coro(Tenants::Client& d, service::ControlService& svc,
                             machine::Cluster& cluster, Tenants::Coordinator& coord) {
  co_await d.start->wait();
  telemetry::Registry& reg = telemetry::current();
  std::uint32_t seq = 0;
  bool bail = false;
  for (const Request& templ : d.script) {
    if (bail && templ.kind != CommandKind::kDetach) continue;
    Request request = templ;
    request.session = d.id;
    request.seq = ++seq;
    request.client_node = d.node;
    const sim::TimeNs sent = d.engine->now();
    const sim::TimeNs delay =
        cluster.message_delay(d.node, svc.node(), service::request_bytes(request), sent);
    service::ControlService* target = &svc;
    svc.engine().deliver_at(sent + delay, [target, request] { target->submit(request); });

    const sim::TimeNs deadline = sent + kResponseTimeout;
    Status status = Status::kTimeout;
    for (;;) {
      const sim::TimeNs now = d.engine->now();
      if (now >= deadline) break;
      std::optional<Response> response = co_await d.inbox->recv_for(deadline - now);
      if (!response.has_value()) break;
      if (response->session != d.id || response->seq != seq) continue;  // stale reply
      status = response->status;
      break;
    }
    service::ScenarioResult::CommandOutcome out;
    out.kind = templ.kind;
    out.status = status;
    out.latency = d.engine->now() - sent;
    reg.observe(reg.metrics().service_command_latency_ns,
                static_cast<std::uint64_t>(out.latency));
    d.outcomes.push_back(out);
    if (status == Status::kTimeout || status == Status::kShutdown) bail = true;
  }

  const sim::TimeNs now = d.engine->now();
  const sim::TimeNs delay = cluster.message_delay(d.node, svc.node(), 64, now);
  Tenants::Coordinator* c = &coord;
  svc.engine().deliver_at(now + delay, [c] { c->note_done(); });
}

sim::Coro<void> scenario_main(dynprof::DynprofTool& tool, service::ControlService& svc,
                              machine::Cluster& cluster,
                              std::vector<std::unique_ptr<Tenants::Client>>& clients,
                              Tenants::Coordinator& coord) {
  co_await tool.attached().wait();
  svc.start();
  // Open the session start gates, staggered, each on its client's shard.
  const sim::TimeNs now = svc.engine().now();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    Tenants::Client* d = clients[i].get();
    const sim::TimeNs delay = cluster.message_delay(svc.node(), d->node, 64, now);
    const sim::TimeNs at = now + delay + static_cast<sim::TimeNs>(i) * kSessionStagger;
    cluster.engine_for_node(d->node).deliver_at(at, [d] { d->start->fire(); });
  }
  co_await coord.all_done->wait();
  svc.initiate_shutdown(service::scenario_sentinel());
  tool.request_detach();
}

}  // namespace

service::ScenarioOptions scenario_options(const TenantOptions& options) {
  DT_EXPECT(options.script_seed == options.seed,
            "run_scenario draws scripts and job from one seed");
  service::ScenarioOptions so;
  so.ranks = options.ranks;
  so.functions = options.functions;
  so.sessions = options.sessions;
  so.session_nodes = options.session_nodes;
  so.commands_per_session = options.commands_per_session;
  so.seed = options.seed;
  so.session_batch = 1;
  so.pipeline_depth = 1;
  so.session_stagger = kSessionStagger;
  so.response_timeout = kResponseTimeout;
  so.telemetry_level = options.telemetry_level;
  return so;
}

Tenants::Tenants(const TenantOptions& options)
    : app_(std::make_unique<asci::AppSpec>(service::make_svcapp(options.functions))) {
  const service::ScenarioOptions defaults;
  dynprof::Launch::Options lo;
  lo.app = app_.get();
  lo.params.nprocs = options.ranks;
  lo.params.problem_scale = defaults.problem_scale;
  lo.params.seed = options.seed;
  lo.params.confsync_interval = defaults.confsync_interval;
  lo.params.confsync_statistics = true;
  lo.policy = dynprof::Policy::kDynamic;
  lo.telemetry_level = options.telemetry_level;
  launch_ = std::make_unique<dynprof::Launch>(std::move(lo));

  // Statistics reduce through the overlay tree to rank 0, the fan-out root
  // the service's break agent reads.
  overlay_ = std::make_shared<control::StatsOverlay>(4);
  overlay_->prepare(launch_->process_count());
  overlay_->set_job(launch_->job_name());
  for (int pid = 0; pid < launch_->process_count(); ++pid) {
    launch_->vt(pid).set_stats_aggregator(overlay_);
  }
  tool_ = std::make_unique<dynprof::DynprofTool>(*launch_, dynprof::DynprofTool::Options{});
  service_ = std::make_unique<service::ControlService>(*launch_, *tool_, defaults.service);
  machine::Cluster& cluster = launch_->cluster();

  // Client nodes sit above the tool node, reused round-robin.
  const int first_client = service_->node() + 1;
  const int avail = cluster.spec().nodes - first_client;
  const int client_nodes = std::min(options.session_nodes, std::max(avail, 0));

  clients_.reserve(static_cast<std::size_t>(options.sessions));
  for (int i = 0; i < options.sessions; ++i) {
    auto d = std::make_unique<Client>();
    d->id = static_cast<service::SessionId>(i);
    d->node = client_nodes > 0 ? first_client + i % client_nodes : service_->node();
    d->engine = &cluster.engine_for_node(d->node);
    d->start = std::make_unique<sim::Trigger>(*d->engine);
    d->inbox = std::make_unique<sim::Mailbox<Response>>(*d->engine);
    Rng rng(options.script_seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1)));
    d->script = generate_script(rng, options.functions, options.commands_per_session);
    Client* raw = d.get();
    service_->register_session(
        d->id, d->node, [raw](const Response& response) { raw->inbox->put(response); },
        [raw](const service::SubscriptionDelta& delta) {
          ++raw->deltas;
          raw->delta_pairs += delta.pairs;
        });
    clients_.push_back(std::move(d));
  }

  coord_ = std::make_unique<Coordinator>();
  coord_->remaining = clients_.size();
  coord_->all_done = std::make_unique<sim::Trigger>(service_->engine());

  tool_->start_service();
  for (const std::unique_ptr<Client>& d : clients_) {
    d->engine->spawn(session_coro(*d, *service_, cluster, *coord_),
                     str::format("svc.session.%u", d->id));
  }
  service_->engine().spawn(scenario_main(*tool_, *service_, cluster, clients_, *coord_),
                           "svc.scenario");
}

Tenants::~Tenants() = default;

void Tenants::run() { launch_->run_engine(); }

TenantResult Tenants::collect() const {
  TenantResult result;
  std::uint64_t h = kFnvOffset;
  for (const std::unique_ptr<Client>& d : clients_) {
    h = mix(h, d->id);
    h = mix(h, static_cast<std::uint64_t>(d->node));
    for (const service::ScenarioResult::CommandOutcome& out : d->outcomes) {
      ++result.status_counts[out.status];
      ++result.commands;
      result.latencies.push_back(out.latency);
      h = mix(h, static_cast<std::uint64_t>(out.kind));
      h = mix(h, static_cast<std::uint64_t>(out.status));
      h = mix(h, static_cast<std::uint64_t>(out.latency));
    }
    h = mix(h, d->deltas);
    h = mix(h, d->delta_pairs);
    result.sub_deliveries += d->deltas;
    result.sub_events += d->delta_pairs;
  }
  for (const service::WindowRecord& window : service_->windows()) {
    h = mix(h, window.sync);
    h = mix(h, static_cast<std::uint64_t>(window.time));
    h = mix(h, static_cast<std::uint64_t>(window.window));
    h = mix(h, quantize(window.measured_fraction));
    h = mix(h, quantize(window.priced_before));
    h = mix(h, quantize(window.priced_after));
    h = mix(h, window.flips);
    h = mix(h, window.at_floor ? 1 : 0);
  }
  result.windows = service_->windows().size();
  const vt::VtLib& vt0 = launch_->vt(0);
  for (image::FunctionId fn = 0; fn < app_->symbols->size(); ++fn) {
    if (vt0.filter().deactivated(fn)) h = mix(h, fn);
  }
  if (tool_->application() != nullptr) {
    for (const int pid : tool_->application()->lost_pids()) {
      h = mix(h, static_cast<std::uint64_t>(pid));
    }
  }
  h = mix(h, service_->responses_sent());
  h = mix(h, service_->shed_commands());
  h = mix(h, service_->deadline_cancels());
  h = mix(h, service_->fairshare_flips());
  h = mix(h, service_->sub_drops());
  h = mix(h, vt::stats_digest(vt0.statistics()));
  result.digest = h;
  return result;
}

}  // namespace perfbench

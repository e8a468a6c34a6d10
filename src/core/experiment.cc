#include "core/experiment.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/trace_merge.h"

namespace massbft {

namespace {

/// Client <-> group leader round trip (clients are near their group).
constexpr SimTime kClientRtt = 1 * kMillisecond;

}  // namespace

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}

Experiment::~Experiment() = default;

GroupNode* Experiment::node(NodeId id) {
  for (auto& n : nodes_)
    if (n->id() == id) return n.get();
  return nullptr;
}

Status Experiment::Setup() {
  if (setup_done_) return Status::FailedPrecondition("Setup called twice");
  setup_done_ = true;

  sim_ = std::make_unique<Simulator>();
  MASSBFT_ASSIGN_OR_RETURN(Topology topo,
                           Topology::Create(config_.topology));
  topology_ = std::make_unique<Topology>(std::move(topo));
  registry_ = std::make_unique<KeyRegistry>();
  workload_ = MakeWorkload(config_.workload, config_.workload_scale);
  if (workload_ == nullptr)
    return Status::InvalidArgument("unknown workload kind");
  metrics_ = std::make_unique<MetricsCollector>(config_.warmup,
                                                config_.duration);

  ctx_ = std::make_unique<ClusterContext>();
  ctx_->registry = registry_.get();
  ctx_->topology = topology_.get();
  ctx_->workload = workload_.get();
  ctx_->on_txn_committed = [this](const Transaction& txn, SimTime t) {
    OnTxnCommitted(txn, t);
  };
  ctx_->telemetry.set_tracing(config_.enable_tracing);
  for (NodeId id : topology_->AllNodes()) {
    char name[32];
    std::snprintf(name, sizeof(name), "g%u/n%u",
                  static_cast<unsigned>(id.group),
                  static_cast<unsigned>(id.index));
    ctx_->telemetry.trace().RegisterTrack(
        obs::Telemetry::NodeTrack(id.Packed()), name);
  }
  for (int g = 0; g < topology_->num_groups(); ++g) {
    char name[32];
    std::snprintf(name, sizeof(name), "clients/g%d", g);
    ctx_->telemetry.trace().RegisterTrack(obs::Telemetry::ClientTrack(g),
                                          name);
  }

  network_ = std::make_unique<Network>(
      sim_.get(), topology_.get(),
      [this](NodeId dst, NodeId src, MessagePtr m) {
        GroupNode* target = node(dst);
        if (target != nullptr) target->HandleMessage(src, std::move(m));
      });
  network_->set_telemetry(&ctx_->telemetry);

  // Build nodes; the highest-indexed nodes of each group are the Byzantine
  // ones when fault injection is configured (leaders stay correct, as in
  // the paper's Fig 15 setup where faulty nodes follow local consensus).
  for (NodeId id : topology_->AllNodes()) {
    GroupNode::FaultConfig fault;
    if (config_.faults.byzantine_per_group > 0 &&
        id.index >= topology_->group_size(id.group) -
                        config_.faults.byzantine_per_group) {
      fault.byzantine = true;
      fault.byzantine_from = config_.faults.byzantine_from;
    }
    auto n = std::make_unique<GroupNode>(sim_.get(), network_.get(), id,
                                         config_.protocol, ctx_.get(), fault);
    if (config_.execute_on_all_nodes) n->set_always_execute(true);
    nodes_.push_back(std::move(n));
  }
  for (auto& n : nodes_) n->Start();

  // Closed-loop clients, staggered over the first batch interval.
  Rng seed_rng(config_.seed);
  clients_ = ClientPool(topology_->num_groups(), config_.clients_per_group,
                        seed_rng);
  for (size_t i = 0; i < clients_.size(); ++i) {
    SimTime stagger = static_cast<SimTime>(
        seed_rng.NextBelow(static_cast<uint64_t>(config_.protocol
                                                     .batch_timeout)));
    sim_->Schedule(stagger, [this, i] { SubmitNext(i); });
  }

  // Fault schedule.
  if (config_.faults.crash_group >= 0) {
    int g = config_.faults.crash_group;
    sim_->Schedule(config_.faults.crash_at, [this, g] {
      for (auto& n : nodes_)
        if (n->id().group == g) n->Crash();
    });
    if (config_.faults.recover_at > config_.faults.crash_at) {
      sim_->Schedule(config_.faults.recover_at, [this, g] {
        for (auto& n : nodes_)
          if (n->id().group == g) n->Recover();
        // The region's clients reconnect and resume their closed loops.
        for (size_t i = 0; i < clients_.size(); ++i)
          if (clients_.group(i) == g) SubmitNext(i);
      });
    }
  }
  return Status::OK();
}

void Experiment::SubmitNext(size_t client) {
  const NodeId leader_id = GroupNode::LeaderOf(clients_.group(client));
  GroupNode* leader = node(leader_id);
  if (leader == nullptr || leader->crashed()) return;  // Group down.

  SimTime submit_time = sim_->Now();
  if (ctx_->telemetry.tracing()) {
    ctx_->telemetry.trace().RecordInstant(
        obs::Telemetry::ClientTrack(leader_id.group), "client", "submit",
        submit_time,
        obs::TraceArgs{{{"client", static_cast<double>(clients_.id(client))}}});
  }
  // Client -> leader half round trip. The transaction is materialized at
  // delivery: the capture stays a 24-byte POD (inline in the event heap),
  // and since each closed-loop client draws from its own forked rng, the
  // payload bytes are identical either way.
  sim_->Schedule(kClientRtt / 2, [this, client, submit_time] {
    GroupNode* l = node(GroupNode::LeaderOf(clients_.group(client)));
    if (l == nullptr || l->crashed()) return;
    l->SubmitClientTxn(clients_.Next(client, *workload_, submit_time));
  });
}

void Experiment::OnTxnCommitted(const Transaction& txn, SimTime commit_time) {
  metrics_->RecordCommit(txn.submit_time, commit_time + kClientRtt / 2);
  std::optional<size_t> client = clients_.ClientOf(txn);
  if (!client.has_value()) return;
  sim_->ScheduleAt(commit_time + kClientRtt,
                   [this, c = *client] { SubmitNext(c); });
}

ExperimentResult Experiment::Run() {
  MASSBFT_CHECK(setup_done_);
  uint64_t events_before = sim_->events_processed();
  // wall_ms measures the host, not the simulation; it is one of the three
  // documented nondeterministic result fields (DESIGN.md §10).
  // lint: wallclock-ok(host-side wall_ms field, DESIGN.md §10)
  auto wall_start = std::chrono::steady_clock::now();
  sim_->RunUntil(config_.duration);
  double wall_ms =
      std::chrono::duration<double, std::milli>(
          // lint: wallclock-ok(host-side wall_ms field, DESIGN.md §10)
          std::chrono::steady_clock::now() - wall_start)
          .count();

  // End-of-run per-link WAN uplink utilization (fraction of the link's
  // capacity the node's sends consumed over the whole run).
  obs::Telemetry& telemetry = ctx_->telemetry;
  double run_seconds = SimToSeconds(config_.duration);
  for (NodeId id : topology_->AllNodes()) {
    double bps = topology_->wan_bps(id);
    if (bps <= 0 || run_seconds <= 0) continue;
    char name[48];
    std::snprintf(name, sizeof(name), "net/wan_uplink_util/g%u/n%u",
                  static_cast<unsigned>(id.group),
                  static_cast<unsigned>(id.index));
    double sent_bits =
        8.0 * static_cast<double>(network_->StatsFor(id).wan_bytes_sent);
    telemetry.registry().GetGauge(name)->Set(sent_bits /
                                             (bps * run_seconds));
  }

  ExperimentResult result =
      BuildResult(*metrics_, {&ctx_->telemetry}, *registry_,
                  network_->wan_bytes_sent(), network_->lan_bytes_sent());
  result.faults_injected = network_->fault_stats().total();
  result.sim_events = sim_->events_processed();
  result.wall_ms = wall_ms;
  if (wall_ms > 0) {
    result.events_per_sec =
        static_cast<double>(sim_->events_processed() - events_before) *
        1000.0 / wall_ms;
    result.sim_time_ratio = SimToSeconds(config_.duration) * 1000.0 / wall_ms;
  }
  return result;
}

Status Experiment::WriteTrace(const std::string& path) const {
  obs::ClusterTraceMerger merger;
  merger.AddNode(/*packed_node_id=*/0, "simulator", /*epoch_offset_ns=*/0,
                 ctx_->telemetry.trace());
  return merger.WriteChromeTraceFile(path);
}

int64_t Experiment::CheckAgreement() const {
  std::vector<std::pair<NodeId, const ExecutionLog*>> logs;
  for (const auto& n : nodes_) {
    if (n->crashed() || n->rejoined()) continue;
    if (!config_.execute_on_all_nodes && !n->IsGroupLeader()) continue;
    logs.emplace_back(n->id(), &n->execution_log());
  }
  Result<size_t> common = CheckExecutionPrefixes(logs);
  return common.ok() ? static_cast<int64_t>(*common) : -1;
}

}  // namespace massbft

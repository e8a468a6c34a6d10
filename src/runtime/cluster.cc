#include "runtime/cluster.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "obs/json_writer.h"
#include "obs/prometheus.h"
#include "obs/trace_clock.h"
#include "obs/trace_merge.h"

namespace massbft {

namespace {

using Clock = std::chrono::steady_clock;

/// Wall-clock budget, after issuing stops, for every node to execute
/// everything that committed before.
constexpr std::chrono::seconds kDrainTimeout{20};

/// This process's resident set size in KiB (0 where /proc is missing).
uint64_t ResidentKb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) /
         1024;
}

}  // namespace

RealCluster::RealCluster(RealClusterConfig config)
    : config_(std::move(config)) {}

RealCluster::~RealCluster() {
  // Join the stats-server thread first: its handlers Call into runtimes,
  // so no handler may be in flight while the runtimes are torn down.
  stats_server_.Stop();
  MutexLock lock(&introspection_mu_);
  for (auto& rt : runtimes_) rt->Stop();
}

Status RealCluster::Setup() {
  if (setup_done_) return Status::FailedPrecondition("Setup() called twice");
  MASSBFT_ASSIGN_OR_RETURN(Topology topo,
                           Topology::Create(config_.topology));
  topology_ = std::make_unique<Topology>(std::move(topo));
  registry_ = std::make_unique<KeyRegistry>(config_.crypto);

  TcpPortMap ports;
  if (config_.use_tcp) {
    Result<TcpPortMap> port_map =
        MakeLocalPortMap(config_.topology.group_sizes, config_.base_port);
    MASSBFT_RETURN_IF_ERROR(port_map.status());
    // swap, not move-assign: GCC 12's -Wfree-nonheap-object misfires on
    // the (guarded, unreachable) bucket deallocation a move-assignment of
    // an unordered_map inlines here.
    ports.swap(*port_map);
  }

  // All runtimes (and thus all GroupNodes) are built here on the calling
  // thread: KeyRegistry::RegisterNode is not thread-safe, and nodes verify
  // each other's signatures through the shared registry.
  for (NodeId id : topology_->AllNodes()) {
    std::unique_ptr<Transport> transport =
        config_.use_tcp
            ? std::unique_ptr<Transport>(new TcpTransport(id, ports))
            : hub_.CreateTransport(id);
    auto rt = std::make_unique<NodeRuntime>(
        id, config_.protocol, config_.workload, config_.workload_scale,
        registry_.get(), topology_.get(), std::move(transport));
    // Every node executes so the agreement check can compare all replicas.
    rt->node().set_always_execute(true);
    if (config_.net_faults.any()) rt->set_faults(config_.net_faults);
    rt->set_on_txn_committed(
        [this](const Transaction& txn, SimTime) { OnTxnCommitted(txn); });
    if (!config_.trace_path.empty()) {
      // Tracing must be switched on before any node thread exists (the
      // enabled flag is not flippable under concurrent recording).
      rt->telemetry().set_tracing(true);
      rt->telemetry().trace().RegisterTrack(
          obs::Telemetry::NodeTrack(id.Packed()), "node " + NodeName(id));
    }
    runtimes_.push_back(std::move(rt));
  }

  if (config_.stats_port >= 0) MASSBFT_RETURN_IF_ERROR(StartStatsServer());

  Rng seed_rng(config_.seed);
  clients_ = ClientPool(topology_->num_groups(), config_.clients_per_group,
                        seed_rng);
  submitted_at_.resize(clients_.size());
  commits_.resize(static_cast<size_t>(topology_->num_groups()));
  for (int g = 0; g < topology_->num_groups(); ++g)
    client_workloads_.push_back(
        MakeWorkload(config_.workload, config_.workload_scale));

  setup_done_ = true;
  return Status::OK();
}

NodeRuntime* RealCluster::runtime(NodeId id) {
  for (auto& rt : runtimes_)
    if (rt->id() == id) return rt.get();
  return nullptr;
}

SimTime RealCluster::SinceStart() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              run_start_)
      .count();
}

void RealCluster::SubmitNext(size_t client) {
  const int group = clients_.group(client);
  NodeRuntime* leader = runtime(GroupNode::LeaderOf(group));
  if (leader == nullptr) return;
  // The transaction is materialized on the leader's event-loop thread:
  // each group's payload generator and its clients' pool entries are only
  // ever touched there (single-writer; see client_workloads_).
  leader->Post([this, leader, client, group] {
    submitted_at_[client] = SinceStart();
    leader->node().SubmitClientTxn(clients_.Next(
        client, *client_workloads_[static_cast<size_t>(group)],
        leader->Elapsed()));
  });
}

void RealCluster::OnTxnCommitted(const Transaction& txn) {
  std::optional<size_t> client = clients_.ClientOf(txn);
  if (!client.has_value()) return;
  commits_[static_cast<size_t>(clients_.group(*client))].emplace_back(
      submitted_at_[*client], SinceStart());
  committed_.fetch_add(1, std::memory_order_relaxed);
  if (issuing_.load(std::memory_order_relaxed)) SubmitNext(*client);
}

Status RealCluster::KillNode(NodeId id) {
  // Serialized against stats handlers: Stop() clears the node's queue, so
  // a concurrent handler Call posted-but-unprocessed would never resolve.
  MutexLock lock(&introspection_mu_);
  NodeRuntime* rt = runtime(id);
  if (rt == nullptr)
    return Status::NotFound("no such node " + NodeName(id));
  if (!rt->running())
    return Status::FailedPrecondition("node " + NodeName(id) +
                                      " already stopped");
  obs::Telemetry& telemetry = rt->telemetry();
  telemetry.RecordEvent(obs::Telemetry::NodeTrack(id.Packed()), "node", "kill",
                        telemetry.TraceNowNs());
  // Crash on the event loop first (its incarnation ends, and with it every
  // protocol timer) so a later restart resumes a node that knows it
  // crashed, then tear the runtime — and its transport — down.
  rt->Call([](GroupNode& n) {
    n.Crash();
    return true;
  });
  rt->Stop();
  killed_.push_back(id);
  return Status::OK();
}

Status RealCluster::RestartNode(NodeId id) {
  MutexLock lock(&introspection_mu_);
  NodeRuntime* rt = runtime(id);
  if (rt == nullptr)
    return Status::NotFound("no such node " + NodeName(id));
  if (rt->running())
    return Status::FailedPrecondition("node " + NodeName(id) +
                                      " is running");
  // Start() records the restart.
  return rt->Start();
}

bool RealCluster::EligibleForAgreement(NodeRuntime& rt) {
  // Killed nodes have no live state; rejoined nodes are catching-up
  // learners whose re-derived interleaving is not authoritative (the same
  // rule as Experiment::CheckAgreement).
  if (!rt.running()) return false;
  return !rt.Call([](GroupNode& n) { return n.rejoined(); });
}

Status RealCluster::IssueWindow() {
  auto sleep_until_offset = [&](double offset_s) {
    std::this_thread::sleep_until(
        run_start_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset_s)));
  };
  const bool crashes =
      config_.crash_nodes_per_group > 0 && config_.crash_at_s > 0;
  if (crashes) {
    sleep_until_offset(std::min(config_.crash_at_s,
                                config_.duration_seconds));
    // Kill the highest-indexed followers of every group, all but one at
    // most: the leader clients submit to (GroupNode::LeaderOf) survives.
    for (int g = 0; g < topology_->num_groups(); ++g) {
      const int size = config_.topology.group_sizes[static_cast<size_t>(g)];
      const int count = std::min(config_.crash_nodes_per_group, size - 1);
      for (int k = 0; k < count; ++k) {
        MASSBFT_RETURN_IF_ERROR(
            KillNode(NodeId{static_cast<uint16_t>(g),
                            static_cast<uint16_t>(size - 1 - k)}));
      }
    }
    if (config_.restart_at_s > config_.crash_at_s) {
      sleep_until_offset(std::min(config_.restart_at_s,
                                  config_.duration_seconds));
      // Copy under the lock: a stats handler could be inside KillNode
      // growing killed_ while we iterate (RestartNode re-acquires).
      std::vector<NodeId> to_restart;
      {
        MutexLock lock(&introspection_mu_);
        to_restart = killed_;
      }
      for (NodeId id : to_restart) MASSBFT_RETURN_IF_ERROR(RestartNode(id));
    }
  }
  sleep_until_offset(config_.duration_seconds);
  return Status::OK();
}

bool RealCluster::DrainUntilStable() {
  // A VTS cluster never fully quiesces: the tail entries of each group can
  // only execute once other groups' clocks pass them, so idle leaders keep
  // proposing *empty* entries (the liveness tick). Empty entries do not
  // touch the store, so convergence is judged on state fingerprints: once
  // every replica holds the same fingerprint and no new transactions are
  // committing, all client work has been executed everywhere.
  const auto deadline = Clock::now() + kDrainTimeout;
  uint64_t prev_committed = 0;
  bool had_stable_round = false;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::vector<uint64_t> fingerprints;
    for (auto& rt : runtimes_) {
      if (!EligibleForAgreement(*rt)) continue;
      fingerprints.push_back(
          rt->Call([](GroupNode& n) { return n.store().StateFingerprint(); }));
    }
    const bool all_equal =
        std::adjacent_find(fingerprints.begin(), fingerprints.end(),
                           std::not_equal_to<>()) == fingerprints.end();
    // Relaxed: a monotone progress probe — a stale read only costs one
    // extra settle round.
    uint64_t committed = committed_.load(std::memory_order_relaxed);
    if (all_equal && committed == prev_committed) {
      if (had_stable_round) return true;
      had_stable_round = true;
    } else {
      had_stable_round = false;
    }
    prev_committed = committed;
  }
  return false;
}

Status RealCluster::StartStatsServer() {
  stats_server_.RegisterHandler("/metrics", [this] {
    obs::StatsServer::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsText();
    return response;
  });
  stats_server_.RegisterHandler("/health", [this] {
    obs::StatsServer::Response response;
    response.content_type = "application/json";
    response.body = HealthJson();
    return response;
  });
  return stats_server_.Start(static_cast<uint16_t>(config_.stats_port));
}

std::string RealCluster::MetricsText() {
  std::vector<obs::LabeledSnapshot> snapshots;
  snapshots.reserve(runtimes_.size());
  {
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) {
      NodeRuntime* raw = rt.get();
      obs::LabeledSnapshot labeled;
      labeled.labels = "node=\"" + NodeName(raw->id()) + "\"";
      // Snapshot on the node's own event loop (or inline when stopped):
      // the registry maps are only ever touched single-threaded there.
      labeled.snapshot = raw->Call(
          [raw](GroupNode&) { return raw->telemetry().registry().Snapshot(); });
      snapshots.push_back(std::move(labeled));
    }
  }
  std::ostringstream out;
  obs::WritePrometheusText(snapshots, out);
  return out.str();
}

std::string RealCluster::HealthJson() {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("mode", "real");
  w.Member("committed_txns", committed_.load(std::memory_order_relaxed));
  {
    MutexLock lock(&introspection_mu_);
    w.Member("nodes_killed", static_cast<uint64_t>(killed_.size()));
  }
  uint64_t faults = 0;
  {
    // Each node's fault counts live on its own event loop.
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) {
      NodeRuntime* raw = rt.get();
      faults += raw->Call(
          [raw](GroupNode&) { return raw->network().fault_stats().total(); });
    }
  }
  w.Member("faults_injected", faults);
  w.Member("rss_kb", ResidentKb());
  w.Key("nodes");
  w.BeginArray();
  {
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) {
      NodeRuntime* raw = rt.get();
      const bool running = raw->running();
      w.BeginObject();
      w.Member("node", NodeName(raw->id()));
      w.Member("running", running);
      w.Member("queue_depth", static_cast<uint64_t>(raw->queue_depth()));
      struct Progress {
        uint64_t executed;
        bool rejoined;
        GroupNode::Retained retained;
        uint64_t store_keys;
        uint64_t store_bytes;
        // Breaches of Algorithm 2's input rules, and what causes them.
        uint64_t late_stamps;
        uint64_t stamps_below_inferred;
        uint64_t conflicting_stamps;
        uint64_t takeovers_started;
      };
      // One inspection hop per node; a stopped runtime answers inline.
      const Progress progress = raw->Call([raw](GroupNode& n) {
        obs::MetricsRegistry& metrics = raw->telemetry().registry();
        auto count = [&metrics](const char* name) {
          return metrics.GetCounter(name)->value();
        };
        return Progress{n.executed_entries(),
                        n.rejoined(),
                        n.retained(),
                        n.store().materialized_size(),
                        n.store().bytes(),
                        count("membership/late_stamps"),
                        count("vts/stamps_below_inferred"),
                        count("membership/conflicting_stamps"),
                        count("membership/takeovers_started")};
      });
      w.Member("executed_entries", progress.executed);
      w.Member("rejoined", progress.rejoined);
      w.Member("retained_entries", progress.retained.entries);
      w.Member("retained_payload_bytes", progress.retained.payload_bytes);
      w.Member("store_keys", progress.store_keys);
      w.Member("store_bytes", progress.store_bytes);
      w.Member("late_stamps", progress.late_stamps);
      w.Member("stamps_below_inferred", progress.stamps_below_inferred);
      w.Member("conflicting_stamps", progress.conflicting_stamps);
      w.Member("takeovers_started", progress.takeovers_started);
      const Transport::Stats stats = raw->transport().stats();
      w.Member("reconnects", stats.reconnects);
      w.Member("send_errors", stats.send_errors);
      w.Member("decode_errors", stats.decode_errors);
      w.Member("backpressure_drops", stats.dropped_backpressure);
      w.Member("send_syscalls", stats.send_syscalls);
      w.Member("recv_syscalls", stats.recv_syscalls);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return out.str();
}

void RealCluster::DumpFlightRecorders(const char* why) {
  std::cerr << "=== flight recorder dump (" << why << ") ===\n";
  for (auto& rt : runtimes_)
    rt->telemetry().flight().Dump(std::cerr, "node " + NodeName(rt->id()));
}

std::string RealCluster::BreachSummary() {
  uint64_t late = 0;
  uint64_t below_inferred = 0;
  uint64_t conflicting = 0;
  uint64_t takeovers = 0;
  uint64_t faults = 0;
  for (auto& rt : runtimes_) {
    obs::MetricsRegistry& metrics = rt->telemetry().registry();
    late += metrics.GetCounter("membership/late_stamps")->value();
    below_inferred += metrics.GetCounter("vts/stamps_below_inferred")->value();
    conflicting += metrics.GetCounter("membership/conflicting_stamps")->value();
    takeovers += metrics.GetCounter("membership/takeovers_started")->value();
    faults += rt->network().fault_stats().total();
  }
  std::ostringstream out;
  out << "late stamps " << late << ", stamps below an inferred bound "
      << below_inferred << ", conflicting stamps " << conflicting
      << ", takeovers started " << takeovers
      << ", faults injected " << faults;
  return out.str();
}

Status RealCluster::WriteMergedTrace(const std::string& path) const {
  obs::ClusterTraceMerger merger;
  merger.set_unix_anchor_ns(obs::TraceClock::UnixAnchorNs());
  for (const auto& rt : runtimes_) {
    merger.AddNode(rt->id().Packed(), "node " + NodeName(rt->id()),
                   rt->telemetry().trace_anchor_ns(), rt->telemetry().trace());
  }
  return merger.WriteChromeTraceFile(path);
}

Result<ExperimentResult> RealCluster::Run() {
  if (!setup_done_) return Status::FailedPrecondition("Setup() not called");
  run_start_ = Clock::now();

  for (auto& rt : runtimes_) MASSBFT_RETURN_IF_ERROR(rt->Start());

  // The failure paths preserve the evidence: flight recorders to stderr,
  // merged trace to the configured path.
  auto stop_with_evidence = [&](const char* why) {
    DumpFlightRecorders(why);
    if (!config_.trace_path.empty()) (void)WriteMergedTrace(config_.trace_path);
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) rt->Stop();
  };
  auto fail = [&](const char* why, Status status) -> Status {
    stop_with_evidence(why);
    return status;
  };

  // Relaxed: commit callbacks only read issuing_ to decide whether to
  // resubmit; a stale true issues at most one extra transaction.
  issuing_.store(true, std::memory_order_relaxed);
  for (size_t i = 0; i < clients_.size(); ++i) SubmitNext(i);

  // Sleep out the issuing window, executing the crash/restart schedule at
  // its configured offsets.
  MASSBFT_RETURN_IF_ERROR(IssueWindow());
  issuing_.store(false, std::memory_order_relaxed);
  const SimTime issue_window = SinceStart();

  // Let in-flight entries commit and execute everywhere. The VTS liveness
  // tick keeps advancing the global order even with no new client load.
  if (!DrainUntilStable()) {
    stop_with_evidence("drain timeout");
    std::string message =
        "cluster did not reach a stable agreed state within the drain "
        "timeout (";
    message += BreachSummary();
    message += ")";
    return Status::Internal(message);
  }

  // Killed and rejoined nodes sit out the agreement check (same rule as
  // Experiment::CheckAgreement); the others are read once stopped.
  std::vector<NodeRuntime*> agreed;
  for (auto& rt : runtimes_)
    if (EligibleForAgreement(*rt)) agreed.push_back(rt.get());
  {
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) rt->Stop();
  }
  if (agreed.empty())
    return fail("no surviving node",
                Status::Internal("no continuously-correct node survived to "
                                 "the agreement check"));

  // Agreement: identical fingerprints, and identical execution order over
  // the common prefix (lengths differ only by the still-moving empty-entry
  // tail; see DrainUntilStable).
  const uint64_t fingerprint = agreed[0]->node().store().StateFingerprint();
  std::vector<std::pair<NodeId, const ExecutionLog*>> logs;
  for (NodeRuntime* rt : agreed) {
    if (rt->node().store().StateFingerprint() != fingerprint)
      return fail("fingerprint divergence",
                  Status::Internal("state fingerprint divergence at node " +
                                   NodeName(rt->id())));
    logs.emplace_back(rt->id(), &rt->node().execution_log());
  }
  Status order = CheckExecutionPrefixes(logs).status();
  if (!order.ok()) return fail("execution order divergence", order);

  // Every runtime has been stopped (threads joined), so the per-group
  // commit samples and every node's registry are safe to read here.
  MetricsCollector commits(/*warmup=*/0, /*horizon=*/issue_window);
  for (const auto& group : commits_)
    for (const auto& [submit, commit] : group)
      commits.RecordCommit(submit, commit);
  std::vector<obs::Telemetry*> telemetry;
  uint64_t wan_bytes = 0;
  uint64_t lan_bytes = 0;
  for (auto& rt : runtimes_) {
    telemetry.push_back(&rt->telemetry());
    wan_bytes += rt->network().wan_bytes_sent();
    lan_bytes += rt->network().lan_bytes_sent();
  }
  ExperimentResult result =
      BuildResult(commits, telemetry, *registry_, wan_bytes, lan_bytes);
  result.mode = "real";
  for (auto& rt : runtimes_) {
    // Transport counters survive Stop(); aggregate cluster-wide.
    const Transport::Stats stats = rt->transport().stats();
    result.net_send_errors += stats.send_errors;
    result.net_decode_errors += stats.decode_errors;
    result.net_reconnects += stats.reconnects;
    result.net_dropped_backpressure += stats.dropped_backpressure;
    result.net_send_syscalls += stats.send_syscalls;
    result.net_recv_syscalls += stats.recv_syscalls;
  }
  for (auto& rt : runtimes_)
    result.faults_injected += rt->network().fault_stats().total();
  {
    MutexLock lock(&introspection_mu_);
    result.nodes_killed = static_cast<int>(killed_.size());
  }
  result.wall_ms = static_cast<double>(SinceStart()) / 1e6;
  if (!config_.trace_path.empty())
    MASSBFT_RETURN_IF_ERROR(WriteMergedTrace(config_.trace_path));
  return result;
}

}  // namespace massbft

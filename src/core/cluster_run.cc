#include "core/cluster_run.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "obs/json_writer.h"

namespace massbft {

std::string ExperimentResult::ToJson() const {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("mode", mode);
  w.Member("crypto_mode", crypto_mode);
  w.Member("verify_batch_ratio", verify_batch_ratio);
  w.Member("throughput_tps", throughput_tps);
  w.Member("mean_latency_ms", mean_latency_ms);
  w.Member("p50_latency_ms", p50_latency_ms);
  w.Member("p99_latency_ms", p99_latency_ms);
  w.Member("committed_txns", committed_txns);
  w.Member("aborted_txns", aborted_txns);
  w.Member("conflict_aborts", conflict_aborts);
  w.Member("avg_batch_size", avg_batch_size);
  w.Member("total_wan_bytes", total_wan_bytes);
  w.Member("total_lan_bytes", total_lan_bytes);
  w.Member("entries_proposed", entries_proposed);
  w.Member("wan_bytes_per_entry", wan_bytes_per_entry);
  w.Member("sim_events", sim_events);
  w.Member("wall_ms", wall_ms);
  w.Member("events_per_sec", events_per_sec);
  w.Member("sim_time_ratio", sim_time_ratio);
  w.Member("net_send_errors", net_send_errors);
  w.Member("net_decode_errors", net_decode_errors);
  w.Member("net_reconnects", net_reconnects);
  w.Member("net_dropped_backpressure", net_dropped_backpressure);
  w.Member("net_send_syscalls", net_send_syscalls);
  w.Member("net_recv_syscalls", net_recv_syscalls);
  w.Member("faults_injected", faults_injected);
  w.Member("nodes_killed", nodes_killed);
  w.Member("late_stamps", late_stamps);
  w.Member("stamps_below_inferred", stamps_below_inferred);
  w.Member("conflicting_stamps", conflicting_stamps);
  w.Member("takeovers_started", takeovers_started);
  w.Key("phases");
  w.BeginObject();
  w.Member("batching_ms", phases.batching_ms);
  w.Member("local_ms", phases.local_ms);
  w.Member("encode_ms", phases.encode_ms);
  w.Member("global_ms", phases.global_ms);
  w.Member("rebuild_ms", phases.rebuild_ms);
  w.Member("exec_ms", phases.exec_ms);
  w.Member("entries", phases.entries);
  w.Member("rebuilds", phases.rebuilds);
  w.Member("txns", phases.txns);
  w.Member("conflict_aborts", phases.conflict_aborts);
  w.Member("batch_size_sum", phases.batch_size_sum);
  w.EndObject();
  w.Key("timeline");
  w.BeginArray();
  for (const MetricsCollector::TimelinePoint& point : timeline) {
    w.BeginObject();
    w.Member("time_s", point.time_s);
    w.Member("tps", point.tps);
    w.Member("mean_latency_ms", point.mean_latency_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out.str();
}

ClientPool::ClientPool(int num_groups, int clients_per_group, Rng& seed_rng)
    : per_group_(clients_per_group) {
  for (int c = 0; c < num_groups * clients_per_group; ++c)
    clients_.push_back(Client{seed_rng.Fork()});
}

uint32_t ClientPool::id(size_t client) const {
  return (static_cast<uint32_t>(group(client)) << 20) |
         static_cast<uint32_t>(client % static_cast<size_t>(per_group_));
}

Transaction ClientPool::Next(size_t client, Workload& workload,
                             SimTime submit_time) {
  Client& c = clients_[client];
  Transaction txn;
  txn.client = id(client);
  txn.id = (static_cast<uint64_t>(txn.client) << 32) | c.next_txn++;
  txn.submit_time = submit_time;
  txn.payload = workload.NextPayload(c.rng);
  return txn;
}

std::optional<size_t> ClientPool::ClientOf(const Transaction& txn) const {
  const size_t index = txn.client & 0xFFFFF;
  const size_t client =
      static_cast<size_t>(txn.client >> 20) * static_cast<size_t>(per_group_) +
      index;
  if (index >= static_cast<size_t>(per_group_) || client >= clients_.size())
    return std::nullopt;
  return client;
}

ExperimentResult BuildResult(const MetricsCollector& commits,
                             const std::vector<obs::Telemetry*>& telemetry,
                             const KeyRegistry& keys, uint64_t wan_bytes,
                             uint64_t lan_bytes) {
  ExperimentResult result;
  result.crypto_mode = keys.scheme_name();
  result.verify_batch_ratio = keys.verify_batch_ratio();
  result.throughput_tps = commits.ThroughputTps();
  result.mean_latency_ms = commits.MeanLatencyMs();
  result.p50_latency_ms = commits.P50LatencyMs();
  result.p99_latency_ms = commits.P99LatencyMs();
  result.committed_txns = commits.committed();
  result.timeline = commits.Timeline();

  // The Fig 11 phase breakdown, from the spans the nodes recorded
  // (batching per transaction; the others per entry).
  PhaseStats& phases = result.phases;
  for (obs::Telemetry* tel : telemetry) {
    phases.batching_ms += tel->phase(obs::Phase::kBatching).sum();
    phases.local_ms += tel->phase(obs::Phase::kLocalConsensus).sum();
    phases.encode_ms += tel->phase(obs::Phase::kEncode).sum();
    phases.global_ms += tel->phase(obs::Phase::kGlobalReplication).sum();
    phases.rebuild_ms += tel->phase(obs::Phase::kRebuild).sum();
    phases.exec_ms += tel->phase(obs::Phase::kExecution).sum();
    phases.rebuilds += tel->phase(obs::Phase::kRebuild).count();
    phases.batch_size_sum +=
        static_cast<double>(tel->phase(obs::Phase::kBatching).count());
    obs::MetricsRegistry& registry = tel->registry();
    phases.entries += registry.GetCounter("node/entries_batched")->value();
    phases.txns += registry.GetCounter("exec/txns_executed")->value();
    phases.conflict_aborts +=
        registry.GetCounter("exec/conflict_aborts")->value();
    result.aborted_txns += registry.GetCounter("exec/logic_aborts")->value();
    result.late_stamps +=
        registry.GetCounter("membership/late_stamps")->value();
    result.stamps_below_inferred +=
        registry.GetCounter("vts/stamps_below_inferred")->value();
    result.conflicting_stamps +=
        registry.GetCounter("membership/conflicting_stamps")->value();
    result.takeovers_started +=
        registry.GetCounter("membership/takeovers_started")->value();
  }
  result.conflict_aborts = phases.conflict_aborts;
  result.entries_proposed = phases.entries;
  result.total_wan_bytes = wan_bytes;
  result.total_lan_bytes = lan_bytes;
  if (phases.entries > 0) {
    const double entries = static_cast<double>(phases.entries);
    result.avg_batch_size = phases.batch_size_sum / entries;
    result.wan_bytes_per_entry = static_cast<double>(wan_bytes) / entries;
  }
  return result;
}

std::string NodeName(NodeId node) {
  return std::to_string(node.group) + "/" + std::to_string(node.index);
}

namespace {

std::string EntryName(const std::pair<uint16_t, uint64_t>& entry) {
  // Appended, not concatenated: GCC 12's -Wrestrict misfires on
  // `"(" + std::to_string(...)` at -O3.
  std::string name = "(";
  name += std::to_string(entry.first);
  name += ",";
  name += std::to_string(entry.second);
  name += ")";
  return name;
}

}  // namespace

Result<size_t> CheckExecutionPrefixes(
    const std::vector<std::pair<NodeId, const ExecutionLog*>>& logs) {
  if (logs.empty()) return size_t{0};
  auto longest = logs.begin();
  size_t shortest = longest->second->size();
  for (auto it = logs.begin(); it != logs.end(); ++it) {
    if (it->second->size() > longest->second->size()) longest = it;
    shortest = std::min(shortest, it->second->size());
  }
  const ExecutionLog& reference = *longest->second;
  for (const auto& [node, log] : logs) {
    for (size_t k = 0; k < log->size(); ++k) {
      if ((*log)[k] == reference[k]) continue;
      return Status::Internal(
          "execution order divergence at node " + NodeName(node) +
          " position " + std::to_string(k) + ": it executed " +
          EntryName((*log)[k]) + " where node " + NodeName(longest->first) +
          ", whose log is the longest, executed " + EntryName(reference[k]) +
          "; their logs hold " + std::to_string(log->size()) + " and " +
          std::to_string(reference.size()) + " entries");
    }
  }
  return shortest;
}

}  // namespace massbft

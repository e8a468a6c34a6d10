#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "core/config.h"
#include "net/tcp_transport.h"
#include "runtime/cluster.h"

namespace massbft {
namespace {

RealClusterConfig SmallConfig() {
  RealClusterConfig config;
  config.topology = TopologyConfig::Nationwide(/*num_groups=*/2,
                                               /*nodes_per_group=*/4);
  config.protocol = ProtocolConfig::MassBft();
  config.workload = WorkloadKind::kYcsbA;
  config.workload_scale = 0.02;
  config.clients_per_group = 8;
  config.duration_seconds = 1.0;
  config.seed = 7;
  return config;
}

TEST(NodeRuntimeTest, CallRunsInlineBeforeStartAndPostDropsWhenStopped) {
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  NodeRuntime& rt = *cluster.runtimes()[0];

  // Before Start() there is no event loop: Call() degrades to an inline
  // call on this thread and Post() reports the drop.
  EXPECT_EQ(rt.Call([](GroupNode&) { return 41 + 1; }), 42);
  EXPECT_FALSE(rt.Post([] {}));
  EXPECT_EQ(rt.id(), (NodeId{0, 0}));
}

TEST(NodeRuntimeTest, RestartRejoinsTheNode) {
  // The first start arms the node; a restart after a crash posts its
  // rejoin, ahead of any other work.
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  NodeRuntime& rt = *cluster.runtimes()[1];
  auto rejoined = [](GroupNode& n) { return n.rejoined() && !n.crashed(); };
  ASSERT_TRUE(rt.Start().ok());
  EXPECT_FALSE(rt.Call(rejoined));
  rt.Call([](GroupNode& n) {
    n.Crash();
    return true;
  });
  rt.Stop();
  ASSERT_TRUE(rt.Start().ok());
  EXPECT_TRUE(rt.Call(rejoined));
  rt.Stop();
}

TEST(TransportNetworkTest, CorruptionIsCaughtByReceiverCrc) {
  auto topology = Topology::Create(TopologyConfig::Nationwide(1, 2));
  ASSERT_TRUE(topology.ok());
  InProcHub hub;
  auto sender = hub.CreateTransport(NodeId{0, 0});
  auto receiver = hub.CreateTransport(NodeId{0, 1});
  int delivered = 0;  // The in-process hub delivers on the sending thread.
  ASSERT_TRUE(sender->Start([](Frame) {}).ok());
  ASSERT_TRUE(receiver->Start([&delivered](Frame) { ++delivered; }).ok());
  Simulator sim;
  TransportNetwork network(&sim, &*topology, sender.get());
  FaultSpec spec;
  spec.corrupt_rate = 1.0;
  network.set_faults(spec);

  auto msg = NewMessage(MessageType::kFreezeQuery, Freeze{1, 1});
  for (int i = 0; i < 10; ++i) network.SendLan(NodeId{0, 0}, NodeId{0, 1}, msg);
  // Real mangled bytes went on the wire; the receiver's codec rejected
  // every frame (one flipped byte always breaks the CRC or the header).
  EXPECT_EQ(network.fault_stats().corrupted, 10u);
  EXPECT_EQ(receiver->stats().decode_errors, 10u);
  EXPECT_EQ(receiver->stats().frames_received, 0u);
  EXPECT_EQ(delivered, 0);
  sender->Stop();
  receiver->Stop();
}

TEST(TransportNetworkTest, CorruptFrameOverTcpDropsTheConnection) {
  // Mangled bytes through the socket path: the receiver's CRC rejects the
  // frame and, its stream framing lost, closes the connection; the
  // sender's writer finds the dead socket and redials. The default fault
  // seed flips a CRC byte (index 15 of the 29-byte frame); a flip in the
  // body-length field would instead make the receiver wait for the bytes
  // that header claims.
  std::mutex mu;
  std::condition_variable cv;
  int delivered = 0;
  auto topology = Topology::Create(TopologyConfig::Nationwide(1, 2));
  ASSERT_TRUE(topology.ok());
  auto ports = MakeLocalPortMap({2}, /*base=*/19491);
  ASSERT_TRUE(ports.ok());
  TcpTransport sender(NodeId{0, 0}, *ports);
  TcpTransport receiver(NodeId{0, 1}, *ports);
  ASSERT_TRUE(sender.Start([](Frame) {}).ok());
  ASSERT_TRUE(receiver
                  .Start([&](Frame) {
                    std::lock_guard<std::mutex> lock(mu);
                    ++delivered;
                    cv.notify_all();
                  })
                  .ok());
  Simulator sim;
  TransportNetwork network(&sim, &*topology, &sender);
  FaultSpec spec;
  spec.corrupt_rate = 1.0;
  network.set_faults(spec);

  auto msg = NewMessage(MessageType::kFreezeQuery, Freeze{1, 1});
  network.SendLan(NodeId{0, 0}, NodeId{0, 1}, msg);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (receiver.stats().decode_errors == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(receiver.stats().decode_errors, 1u);
  EXPECT_EQ(network.fault_stats().corrupted, 1u);

  // Clean frames again. The first may die with the closed connection (TCP
  // loss semantics); fresh sends make the writer meet the dead socket,
  // redial and deliver, within a bounded wait.
  network.set_faults(FaultSpec{});
  bool flowed = false;
  for (int i = 0; i < 250 && !flowed; ++i) {
    network.SendLan(NodeId{0, 0}, NodeId{0, 1}, msg);
    std::unique_lock<std::mutex> lock(mu);
    flowed = cv.wait_for(lock, std::chrono::milliseconds(20),
                         [&] { return delivered > 0; });
  }
  EXPECT_TRUE(flowed) << "no clean frame flowed after the corrupt one";
  EXPECT_GE(sender.stats().reconnects, 1u);
  EXPECT_EQ(receiver.stats().decode_errors, 1u);
  sender.Stop();
  receiver.Stop();
}

TEST(RealClusterTest, InProcClusterCommitsAndAgrees) {
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->mode, "real");
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_GT(result->throughput_tps, 0.0);
  // Real encoded bytes crossed the transport in both tiers.
  EXPECT_GT(result->total_wan_bytes, 0u);
  EXPECT_GT(result->total_lan_bytes, 0u);
  // The simulator's breakdown, read from every node's telemetry.
  EXPECT_GT(result->phases.local_ms, 0.0);
  EXPECT_GT(result->phases.entries, 0u);
  EXPECT_GT(result->avg_batch_size, 0.0);
  EXPECT_EQ(result->entries_proposed, result->phases.entries);
}

TEST(RealClusterTest, EachNodeChecksAnEntryCertificateOnce) {
  // Certificate batch checks per entry of a 3x4 cluster: the entry
  // certificate, by both remote leaders in the Raft propose (2) and by all
  // 8 remote nodes in the rebuild, where the two leaders reuse their
  // propose check (6); both remote groups' accept certificates, each by
  // the two leaders other than its sender's (4); and the commit
  // certificate, by both remote leaders (2). 14 in all, where checking
  // every certificate it meets would cost a node 16.
  RealClusterConfig config = SmallConfig();
  config.topology = TopologyConfig::Nationwide(/*num_groups=*/3,
                                               /*nodes_per_group=*/4);
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each group leader counts the entries it batched, and every globally
  // committed entry once.
  uint64_t batched = 0, leader_commits = 0;
  for (const auto& rt : cluster.runtimes()) {
    if (rt->id().index != 0) continue;
    obs::MetricsRegistry& registry = rt->telemetry().registry();
    batched += registry.GetCounter("node/entries_batched")->value();
    leader_commits += registry.GetCounter("raft/commits")->value();
  }
  const double committed = static_cast<double>(leader_commits) / 3;
  ASSERT_GT(committed, 20);
  const double checks =
      static_cast<double>(cluster.registry().verify_stats().batch_calls);
  // Entries still in flight when the run stops have made only some of
  // their checks, so the exact 14 per entry shows as two bounds: at most
  // 14 per batched entry, and close to 14 per committed one.
  EXPECT_LE(checks, 14.0 * static_cast<double>(batched));
  EXPECT_GE(checks, 13.0 * committed);
}

TEST(RealClusterTest, TcpClusterCommitsAndAgrees) {
  RealClusterConfig config = SmallConfig();
  config.use_tcp = true;
  config.base_port = 19350;
  config.duration_seconds = 0.5;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_GT(result->total_wan_bytes, 0u);
}

TEST(RealClusterTest, SetupRejectsInvalidTopology) {
  RealClusterConfig config = SmallConfig();
  config.topology.group_sizes.clear();
  RealCluster cluster(config);
  EXPECT_FALSE(cluster.Setup().ok());
}

TEST(RealClusterTest, KillAndRestartValidatePreconditions) {
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  // Unknown node.
  EXPECT_TRUE(cluster.KillNode(NodeId{9, 9}).IsNotFound());
  // Known node, but nothing is running before Run().
  EXPECT_FALSE(cluster.KillNode(NodeId{0, 1}).ok());
  // RestartNode on a node that was never killed-while-running still just
  // starts it; put it back down so the destructor's Stop() is a no-op.
  EXPECT_TRUE(cluster.RestartNode(NodeId{0, 1}).ok());
  EXPECT_TRUE(cluster.KillNode(NodeId{0, 1}).ok());
}

TEST(RealClusterTest, AgreesWithCrashedFollowersPerGroup) {
  // f = 1 for 4-node groups: crash one follower in every group mid-run.
  // The survivors must keep committing and end in agreement; the paper's
  // Section VI-E failure experiment, shrunk to test size.
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.2;
  config.crash_nodes_per_group = 1;
  config.crash_at_s = 0.4;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->nodes_killed, 2);
}

TEST(RealClusterTest, CrashedFollowersRejoinOverTcp) {
  // Crash one follower per group, then restart it: the runtime restarts
  // the event loop without rewinding its virtual clock, the TCP writers
  // redial with backoff, and the node rejoins via Recover(). Agreement is
  // checked over the continuously-correct survivors.
  RealClusterConfig config = SmallConfig();
  config.use_tcp = true;
  config.base_port = 19380;
  config.duration_seconds = 1.5;
  config.crash_nodes_per_group = 1;
  config.crash_at_s = 0.3;
  config.restart_at_s = 0.8;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->nodes_killed, 2);
  // Peers kept (non-blockingly) redialing the dead node; once it came
  // back, at least one connection was re-established.
  EXPECT_GT(result->net_reconnects, 0u);
}

TEST(RealClusterTest, AgreesAcrossHealedPartition) {
  // Cut group 0 from group 1 for 0.4s mid-run, then heal. Cross-group
  // ordering stalls during the window and may stay stalled after it: a
  // message the cut lost is never resent (ROADMAP item 13). The drain ends
  // once every node has executed the same entries, so this checks
  // agreement, not that commits resume.
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.5;
  FaultSpec::Partition partition;
  partition.start_s = 0.3;
  partition.end_s = 0.7;
  partition.side_a = {0};
  config.net_faults.seed = config.seed;
  config.net_faults.partitions.push_back(partition);
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  // The window really cut traffic (counted by the injectors) and the
  // counters surfaced into the result.
  EXPECT_GT(result->faults_injected, 0u);
}

TEST(RealClusterTest, AgreesUnderDuplicationAndDelay) {
  // Duplicate and delay frames on every link. Quorum collection and the
  // entry store must deduplicate, and delayed links stall progress
  // without breaking it. (The injector keeps each link FIFO — delay adds
  // latency, never reorderings — because the VTS engine's lower-bound
  // inference assumes per-channel monotone stamps, which real TCP
  // provides. Silent loss is likewise NOT injected: with
  // execute-on-all-nodes there is no per-frame retransmission — a
  // follower that misses an entry only recovers via the crash path's
  // catch-up — so loss-tolerance is exercised by the partition and
  // crash tests, whose windows end.)
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.2;
  config.net_faults.seed = 99;
  config.net_faults.duplicate_rate = 0.05;
  config.net_faults.delay_rate = 0.05;
  config.net_faults.delay_min_ms = 1.0;
  config.net_faults.delay_max_ms = 10.0;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_GT(result->faults_injected, 0u);
}

/// Minimal blocking HTTP GET against the cluster's localhost stats server.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return response;
}

TEST(RealClusterTest, ObservabilityEndToEnd) {
  // The full DESIGN.md §14 surface in one faulty run: merged cluster trace
  // with cross-node flow arrows, mid-run Prometheus + health scrapes, and
  // a populated real-mode timeline.
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.5;
  config.stats_port = 0;  // Ephemeral.
  config.trace_path = testing::TempDir() + "/runtime_obs_trace.json";
  config.net_faults.seed = config.seed;
  config.net_faults.duplicate_rate = 0.05;
  config.net_faults.delay_rate = 0.05;
  config.net_faults.delay_min_ms = 1.0;
  config.net_faults.delay_max_ms = 5.0;

  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  ASSERT_GT(cluster.stats_port(), 0);

  // Scrape while the cluster is actually running: Run() on a worker
  // thread, the scrapes from here mid-window.
  Result<ExperimentResult> result = Status::Internal("never ran");
  std::thread runner([&] { result = cluster.Run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  const std::string metrics = HttpGet(cluster.stats_port(), "/metrics");
  const std::string health = HttpGet(cluster.stats_port(), "/health");
  runner.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Prometheus exposition: every node's registry behind one endpoint,
  // grouped under shared # TYPE headers with per-node labels.
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE massbft_"), std::string::npos);
  EXPECT_NE(metrics.find("{node=\"0/0\"}"), std::string::npos);
  EXPECT_NE(metrics.find("{node=\"1/3\"}"), std::string::npos);
  // Every node reports the traffic ledger a simulated run reports, and no
  // series of the simulator's flow model.
  for (const auto& rt : cluster.runtimes()) {
    const std::string label = "{node=\"" + NodeName(rt->id()) + "\"}";
    for (const char* series :
         {"massbft_net_wan_bytes_sent", "massbft_net_lan_bytes_sent",
          "massbft_net_wan_messages_sent", "massbft_net_lan_messages_sent"})
      EXPECT_NE(metrics.find(series + label), std::string::npos)
          << series << label;
  }
  EXPECT_EQ(metrics.find("massbft_net_wan_uplink_queue_ms"), std::string::npos);
  // Algorithm 2's breach counters are series too.
  EXPECT_NE(metrics.find("massbft_membership_conflicting_stamps{node=\"0/0\"}"),
            std::string::npos);

  // Health view: JSON with per-node liveness and transport counters.
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_NE(health.find("\"mode\":\"real\""), std::string::npos);
  EXPECT_NE(health.find("\"running\":true"), std::string::npos);
  EXPECT_NE(health.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(health.find("\"reconnects\""), std::string::npos);
  EXPECT_NE(health.find("\"rss_kb\""), std::string::npos);
  EXPECT_NE(health.find("\"retained_entries\""), std::string::npos);
  EXPECT_NE(health.find("\"retained_payload_bytes\""), std::string::npos);
  EXPECT_NE(health.find("\"store_keys\""), std::string::npos);
  EXPECT_NE(health.find("\"store_bytes\""), std::string::npos);
  EXPECT_NE(health.find("\"late_stamps\""), std::string::npos);
  EXPECT_NE(health.find("\"stamps_below_inferred\""), std::string::npos);
  EXPECT_NE(health.find("\"conflicting_stamps\""), std::string::npos);
  EXPECT_NE(health.find("\"takeovers_started\""), std::string::npos);

  // The commit samples filled the real-mode timeline, and some bucket saw
  // commits.
  ASSERT_FALSE(result->timeline.empty());
  double peak_tps = 0;
  for (const auto& point : result->timeline)
    peak_tps = std::max(peak_tps, point.tps);
  EXPECT_GT(peak_tps, 0.0);

  // The merged trace exists, is one document for the whole cluster, and
  // carries cross-node flow arrows synthesized from wire trace contexts.
  std::ifstream in(config.trace_path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"trace_unix_anchor_ns\""), std::string::npos);
  EXPECT_NE(trace.find("\"node_count\":8"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"node 0/0\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  // Chaos-injector fault instants ride the owning node's track, and so do
  // the node's own start and stop.
  EXPECT_NE(trace.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"start\",\"cat\":\"node\""),
            std::string::npos);

  // One traffic ledger: each node's registry counts what its network
  // counted, and the nodes' sums are the result's totals.
  uint64_t wan_bytes = 0;
  uint64_t lan_bytes = 0;
  for (const auto& rt : cluster.runtimes()) {
    obs::MetricsRegistry& metrics = rt->telemetry().registry();
    const uint64_t wan = rt->network().wan_bytes_sent();
    const uint64_t lan = rt->network().lan_bytes_sent();
    EXPECT_EQ(metrics.GetCounter("net/wan_bytes_sent")->value(), wan);
    EXPECT_EQ(metrics.GetCounter("net/lan_bytes_sent")->value(), lan);
    EXPECT_GT(lan, 0u) << NodeName(rt->id());
    wan_bytes += wan;
    lan_bytes += lan;
  }
  EXPECT_GT(wan_bytes, 0u);
  EXPECT_EQ(result->total_wan_bytes, wan_bytes);
  EXPECT_EQ(result->total_lan_bytes, lan_bytes);
}

}  // namespace
}  // namespace massbft

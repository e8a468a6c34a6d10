// One GroupNode driven message by message on a bare simulated Network, for
// behaviour a whole-cluster Experiment cannot pin down.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/group_node.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {
namespace {

TEST(GroupNodeTest, WanCopyOfHeldEntryForwardsTheVerifiedOne) {
  // A node that already holds an entry skips the certificate check on a
  // later copy, yet a copy that came over the WAN still makes it forward
  // the entry to its group. It must forward what it verified: a forged
  // copy from any remote peer would otherwise fan out over the LAN.
  Simulator sim;
  Result<Topology> topology =
      Topology::Create(TopologyConfig::Nationwide(2, 4));
  ASSERT_TRUE(topology.ok());
  KeyRegistry registry;
  for (NodeId id : topology->AllNodes()) registry.RegisterNode(id);
  std::unique_ptr<Workload> workload =
      MakeWorkload(WorkloadKind::kSmallBank, 0.001);
  ClusterContext ctx;
  ctx.registry = &registry;
  ctx.topology = &*topology;
  ctx.workload = workload.get();
  std::vector<MessagePtr> sent;
  Network network(&sim, &*topology,
                  [&sent](NodeId, NodeId, MessagePtr m) {
                    sent.push_back(std::move(m));
                  });
  GroupNode node(&sim, &network, NodeId{1, 0}, ProtocolConfig::GeoBft(),
                 &ctx);

  // Entry (0,0) with group 0's 2f+1 certificate, from LAN peer (1,1).
  auto entry = std::make_shared<const Entry>(
      0, 0, std::vector<Transaction>{Transaction{1, 1, 0, Bytes(100, 0x11)}});
  Certificate cert;
  cert.gid = 0;
  cert.digest = entry->digest();
  Bytes payload(cert.digest.begin(), cert.digest.end());
  for (uint16_t i = 0; i < 3; ++i)
    cert.AddSignature(i, registry.Sign(NodeId{0, i}, payload));
  node.HandleMessage(NodeId{1, 1},
                     std::make_shared<EntryTransferMsg>(entry, cert));

  // Then a 100 KB forgery of (0,0) with an empty certificate, from (0,3).
  auto forged = std::make_shared<const Entry>(
      0, 0,
      std::vector<Transaction>{Transaction{2, 2, 0, Bytes(100 * 1024, 0x66)}});
  Certificate empty;
  empty.gid = 0;
  empty.digest = forged->digest();
  node.HandleMessage(NodeId{0, 3},
                     std::make_shared<EntryTransferMsg>(forged, empty));
  sim.RunAll();

  int forged_copies = 0;
  int held_copies = 0;
  for (const MessagePtr& m : sent) {
    if (m->type() != static_cast<int>(MessageType::kEntryTransfer)) continue;
    const Digest& digest =
        static_cast<const EntryTransferMsg&>(*m).entry()->digest();
    forged_copies += digest == forged->digest() ? 1 : 0;
    held_copies += digest == entry->digest() ? 1 : 0;
  }
  EXPECT_EQ(forged_copies, 0);
  EXPECT_EQ(held_copies, 3);  // Once to each LAN peer.
}

}  // namespace
}  // namespace massbft

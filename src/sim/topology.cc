#include "sim/topology.h"

#include <algorithm>

namespace massbft {

namespace {

/// One-way LAN latency within a data center, the same in every one.
constexpr SimTime kLanLatency = 250 * kMicrosecond;

/// Fills a symmetric RTT matrix from a per-pair table. Pairs beyond the
/// table reuse the band's [lo, hi] range deterministically.
std::vector<std::vector<double>> MakeRttMatrix(int n, double lo, double hi) {
  std::vector<std::vector<double>> rtt(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      // Deterministic spread across the band so different pairs differ,
      // like real data-center meshes.
      double frac = static_cast<double>((i * 7 + j * 13) % 17) / 16.0;
      rtt[i][j] = rtt[j][i] = lo + frac * (hi - lo);
    }
  }
  return rtt;
}

}  // namespace

TopologyConfig TopologyConfig::Nationwide(int num_groups,
                                          int nodes_per_group) {
  TopologyConfig cfg;
  cfg.group_sizes.assign(num_groups, nodes_per_group);
  cfg.rtt_ms = MakeRttMatrix(num_groups, 26.7, 43.4);
  return cfg;
}

TopologyConfig TopologyConfig::Worldwide(int num_groups, int nodes_per_group) {
  TopologyConfig cfg;
  cfg.group_sizes.assign(num_groups, nodes_per_group);
  cfg.rtt_ms = MakeRttMatrix(num_groups, 156.0, 206.0);
  return cfg;
}

int TopologyConfig::total_nodes() const {
  int total = 0;
  for (int n : group_sizes) total += n;
  return total;
}

Status TopologyConfig::Validate() const {
  if (group_sizes.empty())
    return Status::InvalidArgument("topology needs at least one group");
  for (int n : group_sizes)
    if (n < 1) return Status::InvalidArgument("groups must be nonempty");
  if (wan_bps <= 0)
    return Status::InvalidArgument("WAN bandwidth must be positive");
  int ng = num_groups();
  if (static_cast<int>(rtt_ms.size()) != ng)
    return Status::InvalidArgument("rtt matrix must be num_groups x num_groups");
  for (const auto& row : rtt_ms)
    if (static_cast<int>(row.size()) != ng)
      return Status::InvalidArgument(
          "rtt matrix must be num_groups x num_groups");
  for (const auto& [node, bps] : wan_overrides) {
    if (node.group >= ng ||
        node.index >= group_sizes[node.group])
      return Status::InvalidArgument("wan override for unknown node");
    if (bps <= 0) return Status::InvalidArgument("override bandwidth <= 0");
  }
  return Status::OK();
}

Topology::Topology(TopologyConfig config) : config_(std::move(config)) {
  node_wan_bps_.resize(config_.group_sizes.size());
  for (size_t g = 0; g < config_.group_sizes.size(); ++g)
    node_wan_bps_[g].assign(config_.group_sizes[g], config_.wan_bps);
  for (const auto& [node, bps] : config_.wan_overrides)
    node_wan_bps_[node.group][node.index] = bps;
}

Result<Topology> Topology::Create(TopologyConfig config) {
  MASSBFT_RETURN_IF_ERROR(config.Validate());
  return Topology(std::move(config));
}

double Topology::wan_bps(NodeId node) const {
  return node_wan_bps_[node.group][node.index];
}

SimTime Topology::WanPropagation(NodeId a, NodeId b) const {
  if (a.group == b.group) return kLanLatency;
  return MillisToSim(config_.rtt_ms[a.group][b.group] / 2.0);
}

std::vector<NodeId> Topology::AllNodes() const {
  std::vector<NodeId> nodes;
  for (int g = 0; g < num_groups(); ++g)
    for (int i = 0; i < group_size(g); ++i)
      nodes.push_back(NodeId{static_cast<uint16_t>(g),
                             static_cast<uint16_t>(i)});
  return nodes;
}

std::vector<NodeId> Topology::GroupNodes(int group) const {
  std::vector<NodeId> nodes;
  for (int i = 0; i < group_size(group); ++i)
    nodes.push_back(
        NodeId{static_cast<uint16_t>(group), static_cast<uint16_t>(i)});
  return nodes;
}

}  // namespace massbft

#ifndef MASSBFT_OBS_TRACE_MERGE_H_
#define MASSBFT_OBS_TRACE_MERGE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_recorder.h"

namespace massbft {
namespace obs {

/// The one Chrome/Perfetto trace writer (DESIGN.md §14). It merges the
/// per-node TraceRecorder outputs of a real-mode cluster into one trace:
/// one Chrome *process* per node (named, sorted by node id), each node's
/// tracks as that process's threads (sorted by track id), and every event
/// shifted from the node's private timebase onto the shared process axis
/// by the node's TraceClock epoch offset. The simulator's one recorder,
/// whose tracks are every node's, is written as a single process.
///
/// Cross-node flow arrows are synthesized from receiver-side `wire/recv`
/// instants: the wire trace context carries the send timestamp already on
/// the shared axis (TraceClock::NowNs at encode time), so each recv
/// instant pins both ends of one arrow — origin node track at origin_ts,
/// receiving node track at receive time — without any send/recv pairing
/// search. The result is the real-mode Fig 11 view: one entry's spans on
/// multiple node tracks, connected hop by hop.
class ClusterTraceMerger {
 public:
  ClusterTraceMerger() = default;
  ClusterTraceMerger(const ClusterTraceMerger&) = delete;
  ClusterTraceMerger& operator=(const ClusterTraceMerger&) = delete;

  /// Adds one node's trace. `packed_node_id` is NodeId::Packed() (used to
  /// resolve flow-arrow origins), `process_name` labels the Chrome
  /// process, `epoch_offset_ns` is the node's Telemetry::trace_anchor_ns()
  /// (offset of the node's timebase from the process trace epoch).
  /// Snapshots the recorder immediately.
  void AddNode(uint32_t packed_node_id, const std::string& process_name,
               uint64_t epoch_offset_ns, const TraceRecorder& recorder);

  /// Wall-clock (unix ns) meaning of the shared axis zero, recorded in the
  /// trace's otherData for absolute labeling. Kept injectable so golden
  /// tests stay deterministic (pass TraceClock::UnixAnchorNs() in real
  /// runs).
  void set_unix_anchor_ns(uint64_t ns) { unix_anchor_ns_ = ns; }

  size_t node_count() const { return nodes_.size(); }

  /// Writes the merged Chrome trace-event JSON. Deterministic for fixed
  /// input: nodes ordered by packed id, events in recording order, flow
  /// arrows in recv-instant order.
  void WriteChromeTrace(std::ostream& out) const;
  Status WriteChromeTraceFile(const std::string& path) const;

 private:
  struct NodeTrace {
    uint32_t packed_id = 0;
    std::string process_name;
    uint64_t epoch_offset_ns = 0;
    std::vector<TraceRecorder::Event> events;
    std::map<uint32_t, std::string> track_names;
  };

  // Keyed by packed node id: deterministic process order and O(log n)
  // origin lookup for flow arrows.
  std::map<uint32_t, NodeTrace> nodes_;
  uint64_t unix_anchor_ns_ = 0;
};

}  // namespace obs
}  // namespace massbft

#endif  // MASSBFT_OBS_TRACE_MERGE_H_

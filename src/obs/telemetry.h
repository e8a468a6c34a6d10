#ifndef MASSBFT_OBS_TELEMETRY_H_
#define MASSBFT_OBS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "sim/time.h"

namespace massbft {
namespace obs {

/// The commit-path phases of one entry's lifecycle (paper Fig 11). Phase
/// spans are recorded where the paper measures them: batching per
/// transaction and local/global/execution per entry at the proposing
/// group's leader; encode per entry at the sending leader; rebuild per
/// entry at receiving-group leaders (it overlaps the global span).
enum class Phase : int {
  kBatching = 0,      // Txn submit -> batch formed.
  kLocalConsensus,    // Batch formed -> local PBFT committed.
  kEncode,            // RS encode + Merkle build CPU span.
  kGlobalReplication, // Local commit -> global commit.
  kRebuild,           // First chunk arrival -> entry rebuilt (receivers).
  kExecution,         // Global commit -> executed (includes the VTS wait).
};
constexpr int kNumPhases = 6;

const char* PhaseName(Phase phase);

/// One observability context per simulated cluster: a metrics registry
/// (always on — instruments cost an add) and a trace recorder (off unless
/// a trace export was requested). Protocol
/// components hold a `Telemetry*` plus whatever pre-resolved instrument
/// handles they need; the phase histograms of the Fig 11 breakdown are
/// pre-resolved here because every layer reports into them.
class Telemetry {
 public:
  Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  bool tracing() const { return trace_.enabled(); }
  void set_tracing(bool enabled) { trace_.set_enabled(enabled); }

  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// Offset of this telemetry's timebase from the process trace epoch
  /// (TraceClock), in nanoseconds. Zero in sim mode (one shared timebase);
  /// in real mode each NodeRuntime sets it at first Start so the
  /// ClusterTraceMerger can shift per-node events onto one axis.
  /// Relaxed on both sides: written once in NodeRuntime::Start before the
  /// loop/transport threads exist (thread creation is the ordering edge);
  /// a racing early reader only mis-shifts a trace timestamp, never
  /// corrupts state.
  uint64_t trace_anchor_ns() const {
    return trace_anchor_ns_.load(std::memory_order_relaxed);
  }
  void set_trace_anchor_ns(uint64_t ns) {
    trace_anchor_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Current time on this telemetry's timebase: TraceClock::NowNs() minus
  /// the anchor. For real-mode threads (transport internals) that record
  /// events but have no access to the owning node's virtual clock.
  /// Deterministic sim code must use the simulator clock instead.
  SimTime TraceNowNs() const;

  /// Records one phase span: adds its duration to the phase histogram
  /// (milliseconds) and, when tracing, emits a trace span on `track`
  /// annotated with the entry key.
  void RecordPhaseSpan(Phase phase, uint32_t track, SimTime start,
                       SimTime end, uint16_t gid, uint64_t seq);

  /// Records one event of the node on `track` at `at` (this telemetry's
  /// timebase), in the flight ring and, when tracing, as an instant on that
  /// track: node lifecycle, membership transitions, faults and connection
  /// events. `a` and `b` are the flight event's payload slots and the
  /// instant's args.
  void RecordEvent(uint32_t track, const char* category, const char* name,
                   SimTime at, TraceArg a = {}, TraceArg b = {});

  /// Direct histogram access for callers with non-span samples (e.g. the
  /// per-transaction batching wait).
  Histogram* phase_histogram(Phase phase) {
    return phase_hist_[static_cast<size_t>(phase)];
  }
  const Histogram& phase(Phase phase) const {
    return *phase_hist_[static_cast<size_t>(phase)];
  }

  // ---- Track naming conventions (Chrome trace "threads").
  /// Track id for a node, given NodeId::Packed() (kept uint32-typed here
  /// so obs does not depend on the crypto layer).
  static uint32_t NodeTrack(uint32_t packed_node_id) {
    return packed_node_id;
  }
  /// Track for the client population of one group.
  static uint32_t ClientTrack(int group) {
    return 0x80000000u | static_cast<uint32_t>(group);
  }

 private:
  MetricsRegistry registry_;
  TraceRecorder trace_;
  FlightRecorder flight_;
  // Atomic: set by the node's loop at first Start, read by transport
  // threads stamping events on the node's timebase.
  std::atomic<uint64_t> trace_anchor_ns_{0};
  std::array<Histogram*, kNumPhases> phase_hist_{};
};

}  // namespace obs
}  // namespace massbft

#endif  // MASSBFT_OBS_TELEMETRY_H_

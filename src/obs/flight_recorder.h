#ifndef MASSBFT_OBS_FLIGHT_RECORDER_H_
#define MASSBFT_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace massbft {
namespace obs {

/// One structured flight-recorder event. Category and name must be string
/// literals (stored unowned, like trace events); the two numeric slots
/// carry whatever small payload the site finds useful (destination node,
/// byte count, sequence number, ...).
struct FlightEvent {
  uint64_t t_ns = 0;  // Node trace timebase (ns since the node's epoch).
  /// The node's track (Telemetry::NodeTrack): the simulator's nodes share
  /// one recorder, so each event names its node.
  uint32_t track = 0;
  const char* category = "";
  const char* name = "";
  double a = 0;
  double b = 0;
};

/// Fixed-size ring buffer holding the last N structured events of one node
/// — state transitions, sends, faults, reconnects — so a failed
/// fault-injection run can be debugged post-mortem without a full trace
/// (DESIGN.md §14). Recording is lock-guarded and wait-free in the
/// amortized sense (vector ring, no allocation after the first lap);
/// writers are the node's event loop plus transport-internal threads.
///
/// The runtime dumps every node's recorder automatically on agreement
/// failure or drain timeout; tests and tools can call Dump() directly.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(uint64_t t_ns, uint32_t track, const char* category,
              const char* name, double a = 0, double b = 0);

  size_t capacity() const { return capacity_; }
  /// Total events ever recorded (>= capacity() means the ring wrapped and
  /// the oldest `recorded() - capacity()` events were overwritten).
  uint64_t recorded() const;

  /// The retained events, oldest first.
  std::vector<FlightEvent> Snapshot() const;

  /// Human-readable dump: a header naming the owner plus one line per
  /// retained event, oldest first, naming the event's node by its track
  /// (a packed NodeId). Format:
  ///   --- flight recorder <owner>: kept K of N events ---
  ///     [   12.345 ms] g0/n1 category/name a=1 b=2
  void Dump(std::ostream& out, const std::string& owner) const;

 private:
  const size_t capacity_;
  // kObsRecorder: Record() runs under transport/runtime locks (connection
  // lifecycle events fire while tcp.mu is held).
  mutable RankedMutex mu_{"flight_recorder.mu", LockRank::kObsRecorder};
  // Insertion slot = count_ % capacity_.
  std::vector<FlightEvent> ring_ MASSBFT_GUARDED_BY(mu_);
  uint64_t count_ MASSBFT_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace massbft

#endif  // MASSBFT_OBS_FLIGHT_RECORDER_H_

#include "net/inproc_transport.h"

#include <utility>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace massbft {

class InProcHub::Endpoint : public Transport {
 public:
  Endpoint(InProcHub* hub, NodeId self) : hub_(hub), self_(self) {}

  ~Endpoint() override {
    Stop();
    hub_->Deregister(self_);
  }

  Status Start(DeliverFn deliver) override {
    MutexLock lock(&mu_);
    deliver_ = std::move(deliver);
    return Status::OK();
  }

  /// Routing is synchronous (Receive decodes and delivers before Route
  /// returns), so the frame is freed on return. Like TCP, which counts a
  /// frame once the kernel takes it, a frame counts as sent only once the
  /// receiving endpoint took it.
  Status SendEncoded(NodeId dst, Bytes wire) override {
    const bool taken = hub_->Route(dst, wire);
    MutexLock lock(&mu_);
    if (!taken) {
      stats_.send_errors++;
      return Status::NotFound("destination transport not started");
    }
    stats_.frames_sent++;
    stats_.bytes_sent += wire.size();
    return Status::OK();
  }

  void Stop() override {
    MutexLock lock(&mu_);
    deliver_ = nullptr;
  }

  NodeId self() const override { return self_; }

  Stats stats() const override {
    MutexLock lock(&mu_);
    return stats_;
  }

  /// Called by the hub on the sender's thread. False when this endpoint
  /// is stopped (a stopped node's inbox is a closed socket).
  bool Receive(const Bytes& wire) {
    DeliverFn deliver;
    {
      MutexLock lock(&mu_);
      if (!deliver_) return false;
      stats_.bytes_received += wire.size();
      deliver = deliver_;
    }
    auto frame = DecodeFrame(wire);
    {
      MutexLock lock(&mu_);
      if (!frame.ok()) {
        stats_.decode_errors++;
        // Delivered-but-corrupt: the send itself succeeded, like a TCP
        // stream carrying mangled bytes the receiver's codec rejects.
        return true;
      }
      stats_.frames_received++;
    }
    // Deliver outside mu_: the callback runs arbitrary receiver code.
    deliver(std::move(*frame));
    return true;
  }

 private:
  InProcHub* hub_;
  NodeId self_;
  // Same kTransport rank as the hub lock: the two are never held together
  // (Route drops the hub lock before calling Receive), and equal ranks
  // abort if that invariant ever breaks.
  mutable RankedMutex mu_{"inproc.endpoint.mu", LockRank::kTransport};
  DeliverFn deliver_ MASSBFT_GUARDED_BY(mu_);
  Stats stats_ MASSBFT_GUARDED_BY(mu_);
};

InProcHub::~InProcHub() = default;

std::unique_ptr<Transport> InProcHub::CreateTransport(NodeId self) {
  auto endpoint = std::make_unique<Endpoint>(this, self);
  MutexLock lock(&mu_);
  endpoints_[self.Packed()] = endpoint.get();
  return endpoint;
}

bool InProcHub::Route(NodeId dst, const Bytes& wire) {
  Endpoint* target = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = endpoints_.find(dst.Packed());
    if (it != endpoints_.end()) target = it->second;
  }
  if (!target) return false;
  return target->Receive(wire);
}

void InProcHub::Deregister(NodeId self) {
  MutexLock lock(&mu_);
  endpoints_.erase(self.Packed());
}

}  // namespace massbft

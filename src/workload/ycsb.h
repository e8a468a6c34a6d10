#ifndef MASSBFT_WORKLOAD_YCSB_H_
#define MASSBFT_WORKLOAD_YCSB_H_

#include <memory>
#include <optional>

#include "common/zipf.h"
#include "workload/workload.h"

namespace massbft {

/// YCSB key-value workload (paper Section VI): one table of `num_rows`
/// rows x 10 columns x 100 B, Zipfian access with theta 0.99.
/// YCSB-A = 50% read / 50% update; YCSB-B = 95% read / 5% update.
class YcsbWorkload final : public Workload {
 public:
  static constexpr int kNumColumns = 10;
  static constexpr int kValueBytes = 100;

  YcsbWorkload(bool variant_a, uint64_t num_rows);

  WorkloadKind kind() const override {
    return variant_a_ ? WorkloadKind::kYcsbA : WorkloadKind::kYcsbB;
  }
  const char* name() const override { return variant_a_ ? "ycsb-a" : "ycsb-b"; }

  void InstallInitialState(KvStore* store) const override;
  Bytes NextPayload(Rng& rng) override;
  [[nodiscard]] Result<std::unique_ptr<Procedure>> Parse(
      const Bytes& payload) const override;

  /// Row/column key encoding (exposed for tests).
  static std::string RowColKey(uint64_t row, int col);

 private:
  bool variant_a_;
  uint64_t num_rows_;
  /// Built by the first NextPayload: only clients draw keys, and building
  /// it sums `num_rows` powers, which a replica would pay for nothing.
  std::optional<ZipfGenerator> zipf_;
};

}  // namespace massbft

#endif  // MASSBFT_WORKLOAD_YCSB_H_

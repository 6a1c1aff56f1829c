// Sliding-window traffic accounting used to estimate the current access mix,
// plus an optional full-resolution recorder for bandwidth-versus-time figures.

#ifndef NVMGC_SRC_NVM_BANDWIDTH_LEDGER_H_
#define NVMGC_SRC_NVM_BANDWIDTH_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/nvm/access.h"
#include "src/nvm/device_shard.h"

namespace nvmgc {

// One point of a recorded bandwidth series (already aggregated per bucket).
struct BandwidthSample {
  uint64_t time_ns = 0;       // Bucket start, relative to recording start.
  double read_mbps = 0.0;
  double write_mbps = 0.0;
  double total_mbps() const { return read_mbps + write_mbps; }
};

// Thread-safe ring of time buckets. Charges are attributed to the bucket that
// contains the accessing thread's simulated time; the mix estimate aggregates
// the most recent buckets. All counters are relaxed atomics: the ledger feeds
// a statistical model, not a correctness invariant.
//
// Charges first land in the charging thread's pending accumulator (one
// cache-line-aligned accumulator per device shard, see device_shard.h) and
// are published into the shared epoch bucket when the thread's epoch changes,
// every kPublishEvery charges, and at Settle(). Samplers add the calling
// thread's own pending bytes, so a single thread sees exactly what it would
// see if every charge went straight to its bucket; other threads' bytes lag
// by at most kPublishEvery - 1 charges until the next settle point.
class BandwidthLedger {
 public:
  // Tenants a shared device can attribute traffic to. Single-Vm devices only
  // ever use tenant 0.
  static constexpr uint32_t kMaxTenants = 8;
  // Charges a thread accumulates before publishing them to the shared bucket.
  static constexpr uint32_t kPublishEvery = 64;

  // `bucket_ns` is the bucket width in simulated nanoseconds. The defaults
  // (150 us buckets, 3-bucket sampling window) make the mix estimate adapt
  // within ~0.5 ms of simulated time — fast enough to see the read-mostly /
  // write-only phase separation the write cache creates.
  explicit BandwidthLedger(uint64_t bucket_ns = 150'000);

  void Charge(uint64_t now_ns, const AccessDescriptor& d, uint8_t tenant = 0);

  struct Mix {
    double write_fraction = 0.0;
    double nt_write_fraction = 0.0;
    uint64_t window_bytes = 0;
  };
  // Mix over the last `window_buckets` buckets ending at `now_ns`, including
  // the calling thread's unpublished charges.
  Mix SampleMix(uint64_t now_ns, int window_buckets = 3) const;

  // One epoch's raw byte counters, readable while the epoch is still resident
  // in the ring (the ring spans kRingSize * bucket_ns() of simulated time).
  struct BucketSample {
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t nt_bytes = 0;
    uint64_t total_bytes() const { return read_bytes + write_bytes; }
  };
  // Reads the bucket for `epoch` (== time_ns / bucket_ns()). Returns false
  // when the epoch was never charged or its slot has been reused for a newer
  // epoch; the DeviceTimeline sampler counts that as a missing bucket.
  // Settles first, so the bucket holds every charge made so far.
  bool ReadBucket(uint64_t epoch, BucketSample* out) const;

  // Occupancy of one tenant relative to the whole window, for the contention
  // model (BandwidthModel::TenantShareFraction).
  struct TenantOccupancy {
    uint64_t own_bytes = 0;
    uint64_t total_bytes = 0;
    // Tenants with nonzero bytes in the window; the sampling tenant always
    // counts as active (it is issuing the access being costed).
    uint32_t active_tenants = 1;

    double own_fraction() const {
      if (total_bytes == 0) {
        return 1.0;
      }
      return static_cast<double>(own_bytes) / static_cast<double>(total_bytes);
    }
  };
  // Per-tenant occupancy over the last `window_buckets` buckets at `now_ns`,
  // including the calling thread's unpublished charges.
  TenantOccupancy SampleTenantOccupancy(uint64_t now_ns, uint8_t tenant,
                                        int window_buckets = 3) const;

  // Publishes every thread's pending charges into the shared buckets. Called
  // at the end of each parallel GC phase, at the start of a collection, and
  // by readers outside the access path (ReadBucket, MemoryDevice::CurrentMix).
  // Safe to call while other threads charge: a charge racing the settle may
  // land in the bucket of the charging thread's previous epoch.
  void Settle() const;

  uint64_t bucket_ns() const { return bucket_ns_; }
  static constexpr int ring_size() { return kRingSize; }

 private:
  struct Bucket {
    std::atomic<uint64_t> epoch{UINT64_MAX};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> nt_bytes{0};
    // Byte totals split by tenant (shared devices; single-Vm traffic all
    // lands in slot 0). Kept alongside the direction split rather than as a
    // tenant x direction matrix: the contention model needs occupancy, the
    // mix model needs direction, and no consumer needs both at once.
    std::atomic<uint64_t> tenant_bytes[kMaxTenants] = {};
  };

  // One shard's charges not yet published to `epoch`'s bucket.
  struct alignas(kShardAlign) Pending {
    std::atomic<uint64_t> epoch{kNoEpoch};
    // Charges since the last publish. Only a publish-timing hint, so the
    // owner bumps it with a plain load/store; it is nonzero whenever bytes
    // are pending.
    std::atomic<uint64_t> charges{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> nt_bytes{0};
    std::atomic<uint64_t> tenant_bytes[kMaxTenants] = {};
  };

  static constexpr int kRingSize = 64;
  static constexpr uint64_t kNoEpoch = UINT64_MAX;
  // Epoch value of a slot while one thread resets it for a new epoch.
  static constexpr uint64_t kClaiming = UINT64_MAX - 1;

  Bucket* BucketFor(uint64_t epoch) const;
  void Publish(Pending* p) const;
  // The calling thread's accumulator, or nullptr when it holds no charges
  // (everything it charged is published, and its bucket claimed).
  const Pending* OwnPending() const;
  // What a sampler sees of `epoch`: the published bucket (nullptr if the slot
  // holds another epoch) plus, when *add_own, the pending charges of the
  // caller's accumulator, whose epoch is `own_epoch` (kNoEpoch if none).
  // Together they equal the bucket a publish-on-every-charge ledger would
  // hold, including its slot reuse: pending charges for an aliasing epoch
  // would have reclaimed the slot, so `epoch` then reads as empty.
  const Bucket* WindowSlot(uint64_t epoch, uint64_t own_epoch, bool* add_own) const;

  uint64_t bucket_ns_;
  mutable Bucket ring_[kRingSize];
  mutable Pending pending_[kDeviceShards];
};

// Fixed-capacity, lock-free recorder: buckets cover simulated time from
// Start() onward. Used to produce the paper's bandwidth time-series plots
// (Figures 2, 3 and 7).
class BandwidthRecorder {
 public:
  BandwidthRecorder(uint64_t bucket_ns, size_t max_buckets);

  void Charge(uint64_t now_ns, const AccessDescriptor& d);

  // Rebase so that `now_ns` becomes time zero of the series.
  void Start(uint64_t now_ns);

  std::vector<BandwidthSample> Series() const;

  uint64_t bucket_ns() const { return bucket_ns_; }

 private:
  struct Cell {
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
  };

  uint64_t bucket_ns_;
  uint64_t start_ns_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_BANDWIDTH_LEDGER_H_

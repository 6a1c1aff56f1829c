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
// the most recent kWindowBuckets buckets. All counters are relaxed atomics:
// the ledger feeds a statistical model, not a correctness invariant.
//
// Charges first land in the charging thread's pending accumulator (one
// cache-line-aligned accumulator per device shard, see device_shard.h) and
// are published into the shared epoch bucket when the thread's epoch changes,
// every kPublishEvery charges, and at Settle(). Samplers add the calling
// thread's own pending bytes, so a single thread sees exactly what it would
// see if every charge went straight to its bucket; other threads' bytes lag
// by at most kPublishEvery - 1 charges until the next settle point. An
// accumulator counts everything its shard charged and everything published
// from it; only chargers write the first and only a publisher the second, so
// under an exclusive lease a charge makes no atomic RMW.
//
// The per-access entry points take a ChargePoint, which MemoryDevice::Access
// computes once per access. An exclusively leased accumulator also holds two
// owner-only caches: the epoch of the last simulated time it saw, as a
// [start, start + bucket_ns) range, so the 64-bit division runs only when the
// epoch changes; and the published part of its last sampled window, keyed by
// (window epoch, own pending epoch, publish generation). Every publish, by any
// thread, bumps the generation after moving its bytes, so a cached window is
// exactly what a fresh read of the ring would return.
class BandwidthLedger {
 public:
  // Tenants a shared device can attribute traffic to. Single-Vm devices only
  // ever use tenant 0.
  static constexpr uint32_t kMaxTenants = 8;
  // Charges a thread accumulates before publishing them to the shared bucket.
  static constexpr uint32_t kPublishEvery = 64;
  // Buckets a sampler aggregates: the current one and the two before it.
  static constexpr uint64_t kWindowBuckets = 3;

  // `bucket_ns` is the bucket width in simulated nanoseconds. The defaults
  // (150 us buckets, 3-bucket sampling window) make the mix estimate adapt
  // within ~0.5 ms of simulated time — fast enough to see the read-mostly /
  // write-only phase separation the write cache creates.
  explicit BandwidthLedger(uint64_t bucket_ns = 150'000);

  // Where one access lands: the charging thread's shard and the epoch
  // (== time_ns / bucket_ns()) of its simulated time.
  struct ChargePoint {
    DeviceShardRef shard;
    uint64_t epoch = 0;
  };
  ChargePoint PointFor(uint64_t now_ns) const;

  void Charge(const ChargePoint& at, const AccessDescriptor& d, uint8_t tenant);
  void Charge(uint64_t now_ns, const AccessDescriptor& d, uint8_t tenant = 0) {
    Charge(PointFor(now_ns), d, tenant);
  }

  struct Mix {
    double write_fraction = 0.0;
    double nt_write_fraction = 0.0;
    uint64_t window_bytes = 0;
  };
  // Mix over the window ending at the point's epoch, including the calling
  // thread's unpublished charges. Defined inline below: it runs on every
  // access, and a call returning Mix through memory stalls the cost
  // arithmetic on a failed store-to-load forward.
  Mix SampleMix(const ChargePoint& at) const;
  Mix SampleMix(uint64_t now_ns) const { return SampleMix(PointFor(now_ns)); }

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
  // Per-tenant occupancy over the window ending at the point's epoch,
  // including the calling thread's unpublished charges.
  TenantOccupancy SampleTenantOccupancy(const ChargePoint& at, uint8_t tenant) const;
  TenantOccupancy SampleTenantOccupancy(uint64_t now_ns, uint8_t tenant) const {
    return SampleTenantOccupancy(PointFor(now_ns), tenant);
  }

  // Publishes every thread's pending charges into the shared buckets. Called
  // at the end of each parallel GC phase, at the start of a collection, and
  // by readers outside the access path (ReadBucket, MemoryDevice::CurrentMix).
  // Safe to call while other threads charge: a charge racing the settle may
  // land in the bucket of the charging thread's previous epoch.
  void Settle() const;

  uint64_t bucket_ns() const { return bucket_ns_; }
  static constexpr int ring_size() { return kRingSize; }

 private:
  // Byte counters of a bucket or an accumulator, indexed by Counter: by
  // direction, and split by tenant (shared devices; single-Vm traffic all
  // lands in tenant 0). Kept as two splits rather than a tenant x direction
  // matrix: the contention model needs occupancy, the mix model needs
  // direction, and no consumer needs both at once.
  enum Counter : uint32_t { kRead, kWrite, kNonTemporal, kTenant0 };
  static constexpr uint32_t kCounters = kTenant0 + kMaxTenants;
  using Counters = std::atomic<uint64_t>[kCounters];

  struct Bucket {
    std::atomic<uint64_t> epoch{UINT64_MAX};
    Counters bytes = {};
  };

  static constexpr int kRingSize = 64;
  static constexpr uint64_t kNoEpoch = UINT64_MAX;
  // Epoch value of a slot while one thread resets it for a new epoch.
  static constexpr uint64_t kClaiming = UINT64_MAX - 1;

  // Direction byte sums over a window.
  struct WindowBytes {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t nt = 0;
  };

  // One shard's charges: `charged` counts every byte the shard charged and
  // `published` the part already moved into buckets, so the difference is
  // pending for `epoch`'s bucket. Only the shard's chargers add to `charged`
  // (ShardAdd: no RMW under an exclusive lease); only a publisher holding
  // `publishing` advances `published`. A settle racing a charge therefore
  // cannot lose the charge's bytes: it publishes them now or leaves them
  // pending.
  struct alignas(kShardAlign) Pending {
    std::atomic<uint64_t> epoch{kNoEpoch};
    // Charges since the last publish. Only a publish-timing hint, so the
    // owner bumps it with a plain load/store; it is nonzero whenever bytes
    // are pending, and its store (release) follows the charge's bytes.
    std::atomic<uint64_t> charges{0};
    Counters charged = {};
    Counters published = {};
    std::atomic<bool> publishing{false};

    // Owner-only caches, used only under an exclusive lease. Time
    // [epoch_start, epoch_start + bucket_ns) lies in epoch `cached_epoch`.
    uint64_t epoch_start = 0;
    uint64_t cached_epoch = 0;
    // The published part of the window ending at `window_epoch` while this
    // accumulator's pending epoch was `window_own_epoch`, read at publish
    // generation `window_generation`.
    uint64_t window_epoch = kNoEpoch;
    uint64_t window_own_epoch = kNoEpoch;
    uint64_t window_generation = 0;
    WindowBytes window;
  };

  Bucket* BucketFor(uint64_t epoch) const;
  void Publish(Pending* p) const;
  // The epoch `p` holds pending charges for, or kNoEpoch when it holds none
  // (everything it charged is published, and its bucket claimed).
  static uint64_t PendingEpoch(const Pending& p) {
    return p.charges.load(std::memory_order_relaxed) == 0
               ? kNoEpoch
               : p.epoch.load(std::memory_order_relaxed);
  }
  // `p`'s pending bytes of counter `c`. `published` is loaded first: the
  // acquire orders the `charged` load after the publisher's read of it, so
  // the difference never underflows.
  static uint64_t PendingBytes(const Pending& p, uint32_t c) {
    const uint64_t published = p.published[c].load(std::memory_order_acquire);
    return p.charged[c].load(std::memory_order_relaxed) - published;
  }
  // What a sampler sees of `epoch`: the published bucket (nullptr if the slot
  // holds another epoch) plus, when *add_own, the pending charges of the
  // caller's accumulator, whose epoch is `own_epoch` (kNoEpoch if none).
  // Together they equal the bucket a publish-on-every-charge ledger would
  // hold, including its slot reuse: pending charges for an aliasing epoch
  // would have reclaimed the slot, so `epoch` then reads as empty.
  const Bucket* WindowSlot(uint64_t epoch, uint64_t own_epoch, bool* add_own) const;
  // The published direction bytes of the window ending at `epoch`, as seen
  // by a sampler whose pending epoch is `own_epoch`.
  WindowBytes PublishedWindow(uint64_t epoch, uint64_t own_epoch) const;
  // The same for a sampler at `at`, through its accumulator's window cache
  // when it holds the shard exclusively.
  WindowBytes PublishedWindow(const ChargePoint& at, uint64_t own_epoch) const;

  uint64_t bucket_ns_;
  mutable Bucket ring_[kRingSize];
  mutable Pending pending_[kDeviceShards];
  // Publishes so far; bumped (release) after each publish moves its bytes.
  alignas(kShardAlign) mutable std::atomic<uint64_t> generation_{0};
};

inline BandwidthLedger::Mix BandwidthLedger::SampleMix(const ChargePoint& at) const {
  const Pending& own = pending_[at.shard.index];
  const uint64_t own_epoch = PendingEpoch(own);
  WindowBytes sum = PublishedWindow(at, own_epoch);
  if (own_epoch <= at.epoch && at.epoch - own_epoch < kWindowBuckets) {
    sum.reads += PendingBytes(own, kRead);
    sum.writes += PendingBytes(own, kWrite);
    sum.nt += PendingBytes(own, kNonTemporal);
  }
  Mix mix;
  const uint64_t total = sum.reads + sum.writes;
  mix.window_bytes = total;
  if (total > 0) {
    mix.write_fraction = static_cast<double>(sum.writes) / static_cast<double>(total);
    if (sum.nt != 0) {  // Else 0.0 already, exactly what the division gives.
      mix.nt_write_fraction = static_cast<double>(sum.nt) / static_cast<double>(total);
    }
  }
  return mix;
}

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

#include "src/nvm/device_shard.h"

#include <atomic>
#include <bit>

namespace nvmgc {

namespace {

static_assert(kDeviceShards == 32, "the lease bitmap is one uint32_t");

// The shard every thread beyond the exclusive leases shares.
constexpr uint32_t kSharedShard = kDeviceShards - 1;
constexpr uint32_t kAllExclusiveLeased = (1u << kSharedShard) - 1;

std::atomic<uint32_t> g_leased{0};  // Bit i set: shard i leased exclusively.

class ShardLease {
 public:
  ShardLease() {
    uint32_t leased = g_leased.load(std::memory_order_relaxed);
    while (leased != kAllExclusiveLeased) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_one(leased));
      if (g_leased.compare_exchange_weak(leased, leased | (1u << bit),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        ref_ = DeviceShardRef{bit, true};
        return;
      }
    }
    ref_ = DeviceShardRef{kSharedShard, false};
  }
  ~ShardLease() {
    if (ref_.exclusive) {
      g_leased.fetch_and(~(1u << ref_.index), std::memory_order_release);
    }
  }

  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

  DeviceShardRef ref() const { return ref_; }

 private:
  DeviceShardRef ref_;
};

}  // namespace

DeviceShardRef ThisThreadDeviceShard() {
  thread_local const ShardLease lease;
  return lease.ref();
}

}  // namespace nvmgc

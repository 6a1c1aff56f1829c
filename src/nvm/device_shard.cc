#include "src/nvm/device_shard.h"

#include <atomic>
#include <bit>

namespace nvmgc {

namespace {

static_assert(kDeviceShards == 32, "the lease bitmap is one uint32_t");

std::atomic<uint32_t> g_leased{0};      // Bit i set: shard i leased exclusively.
std::atomic<uint32_t> g_overflow{0};    // Round-robin cursor for shared shards.

class ShardLease {
 public:
  ShardLease() {
    uint32_t leased = g_leased.load(std::memory_order_relaxed);
    while (leased != ~0u) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_one(leased));
      if (g_leased.compare_exchange_weak(leased, leased | (1u << bit),
                                         std::memory_order_relaxed)) {
        index_ = bit;
        owned_ = true;
        return;
      }
    }
    index_ = g_overflow.fetch_add(1, std::memory_order_relaxed) % kDeviceShards;
  }
  ~ShardLease() {
    if (owned_) {
      g_leased.fetch_and(~(1u << index_), std::memory_order_relaxed);
    }
  }

  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

  uint32_t index() const { return index_; }

 private:
  uint32_t index_ = 0;
  bool owned_ = false;
};

}  // namespace

uint32_t ThisThreadDeviceShard() {
  thread_local const ShardLease lease;
  return lease.index();
}

}  // namespace nvmgc

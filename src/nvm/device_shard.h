// Per-thread shard lease for contention-free device accounting.
//
// MemoryDevice counters, BandwidthLedger pending accumulators and
// AccessHeatmap counts are split into kDeviceShards cache-line-aligned
// shards. Each host thread charges only the shard it leases here, so parallel
// GC workers never make an RMW on a line another worker writes on the
// per-access path. Readers sum (counters, heatmap) or settle (ledger) the
// shards.
//
// Shards 0 .. kDeviceShards - 2 are leased exclusively, one thread each, and a
// thread returns its lease when it exits. Threads beyond that all share the
// last shard. An exclusive owner is the only writer of its shard's counters,
// so it adds with a relaxed load and store (ShardAdd) and may keep owner-only
// caches in the shard; threads on the shared shard use atomic RMWs and no
// caches, so sharing costs contention, never correctness. A lease is taken
// with acquire and returned with release ordering: the next owner of a shard
// sees everything the previous owner wrote to it.

#ifndef NVMGC_SRC_NVM_DEVICE_SHARD_H_
#define NVMGC_SRC_NVM_DEVICE_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace nvmgc {

inline constexpr uint32_t kDeviceShards = 32;
// Shard alignment: two cache lines, because x86 prefetches lines in adjacent
// pairs and would otherwise ping-pong neighbouring shards between cores.
inline constexpr size_t kShardAlign = 128;

// The calling thread's shard and whether it holds it alone.
struct DeviceShardRef {
  uint32_t index = 0;  // In [0, kDeviceShards).
  bool exclusive = false;
};

// The calling thread's shard, leased on first use.
DeviceShardRef ThisThreadDeviceShard();

// Adds `v` to one of `shard`'s counters. Readers of shard counters only load
// them, so an exclusive owner needs no RMW.
inline void ShardAdd(std::atomic<uint64_t>& counter, uint64_t v, DeviceShardRef shard) {
  if (shard.exclusive) {
    counter.store(counter.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  } else {
    counter.fetch_add(v, std::memory_order_relaxed);
  }
}

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_DEVICE_SHARD_H_

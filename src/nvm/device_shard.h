// Per-thread shard index for contention-free device accounting.
//
// MemoryDevice counters and BandwidthLedger pending accumulators are split
// into kDeviceShards cache-line-aligned shards. Each host thread charges only
// the shard it leases here, so parallel GC workers never make an RMW on a
// line another worker writes on the per-access path. Readers sum (counters)
// or settle (ledger) the shards.
//
// Leases are exclusive while at most kDeviceShards threads are alive, and a
// thread returns its lease when it exits. Past that, extra threads share
// shards round-robin; every shard update is still an atomic RMW, so sharing
// costs contention, never correctness.

#ifndef NVMGC_SRC_NVM_DEVICE_SHARD_H_
#define NVMGC_SRC_NVM_DEVICE_SHARD_H_

#include <cstddef>
#include <cstdint>

namespace nvmgc {

inline constexpr uint32_t kDeviceShards = 32;
// Shard alignment: two cache lines, because x86 prefetches lines in adjacent
// pairs and would otherwise ping-pong neighbouring shards between cores.
inline constexpr size_t kShardAlign = 128;

// The calling thread's shard in [0, kDeviceShards), leased on first use.
uint32_t ThisThreadDeviceShard();

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_DEVICE_SHARD_H_

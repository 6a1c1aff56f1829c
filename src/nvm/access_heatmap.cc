#include "src/nvm/access_heatmap.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace nvmgc {

AccessHeatmap::~AccessHeatmap() {
  for (const Arena& arena : arenas_) {
    for (uint32_t i = 0; i < kDeviceShards * arena.chunks; ++i) {
      delete arena.chunk_table[i].load(std::memory_order_relaxed);
    }
  }
}

uint32_t AccessHeatmap::AddArena(uint64_t base, uint64_t region_bytes, uint32_t regions) {
  Arena arena;
  arena.base = base;
  arena.end = base + region_bytes * regions;
  arena.region_bytes = region_bytes;
  arena.first_slot = regions_;
  arena.regions = regions;
  arena.chunks = (regions + kChunkSlots - 1) / kChunkSlots;
  arena.streams = std::make_unique<Stream[]>(regions);
  arena.chunk_table = std::make_unique<std::atomic<Chunk*>[]>(kDeviceShards * arena.chunks);
  arenas_.push_back(std::move(arena));
  regions_ += regions;
  return arenas_.back().first_slot;
}

AccessHeatmap::Cell& AccessHeatmap::CellFor(const Arena& arena, uint32_t slot,
                                            DeviceShardRef shard) {
  std::atomic<Chunk*>& entry =
      arena.chunk_table[shard.index * arena.chunks + slot / kChunkSlots];
  Chunk* chunk = entry.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    // Only threads on the shared shard can race here; the loser frees its copy.
    Chunk* fresh = new Chunk();
    if (entry.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete fresh;
    }
  }
  return chunk->cells[slot % kChunkSlots];
}

void AccessHeatmap::Charge(const AccessDescriptor& d, DeviceShardRef shard) {
  const Arena* arena = nullptr;
  for (const Arena& a : arenas_) {
    if (d.address >= a.base && d.address < a.end) {
      arena = &a;
      break;
    }
  }
  if (arena == nullptr) {
    return;
  }
  const uint32_t slot = static_cast<uint32_t>((d.address - arena->base) / arena->region_bytes);
  Cell& cell = CellFor(*arena, slot, shard);
  if (d.op == AccessOp::kRead) {
    ShardAdd(cell.read_bytes, d.bytes, shard);
    ShardAdd(cell.read_ops, 1, shard);
    return;
  }
  ShardAdd(cell.write_bytes, d.bytes, shard);
  ShardAdd(cell.write_ops, 1, shard);
  // A write continues the region's stream when it starts exactly where the
  // previous write into the region ended. The exchange is racy across threads
  // writing the same region concurrently, which is faithful: interleaved
  // streams from two writers *are* discontiguous at the device.
  const uint64_t prev_end = arena->streams[slot].last_write_end.exchange(
      d.address + d.bytes, std::memory_order_relaxed);
  if (prev_end != 0 && prev_end != d.address) {
    ShardAdd(cell.discontiguous_writes, 1, shard);
  }
}

std::vector<RegionHeat> AccessHeatmap::Snapshot() const {
  std::vector<RegionHeat> out(regions_);
  for (const Arena& arena : arenas_) {
    RegionHeat* heat = out.data() + arena.first_slot;
    for (uint32_t slot = 0; slot < arena.regions; ++slot) {
      heat[slot].region = arena.first_slot + slot;
    }
    for (uint32_t i = 0; i < kDeviceShards * arena.chunks; ++i) {
      const Chunk* chunk = arena.chunk_table[i].load(std::memory_order_acquire);
      if (chunk == nullptr) {
        continue;
      }
      const uint32_t first = i % arena.chunks * kChunkSlots;
      const uint32_t count = std::min(kChunkSlots, arena.regions - first);
      for (uint32_t j = 0; j < count; ++j) {
        const Cell& c = chunk->cells[j];
        heat[first + j].read_bytes += c.read_bytes.load(std::memory_order_relaxed);
        heat[first + j].write_bytes += c.write_bytes.load(std::memory_order_relaxed);
        heat[first + j].read_ops += c.read_ops.load(std::memory_order_relaxed);
        heat[first + j].write_ops += c.write_ops.load(std::memory_order_relaxed);
        heat[first + j].discontiguous_writes +=
            c.discontiguous_writes.load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

HeatmapTotals AccessHeatmap::Totals() const {
  HeatmapTotals t;
  for (const RegionHeat& heat : Snapshot()) {
    t.regions_read += heat.read_ops > 0 ? 1 : 0;
    t.regions_written += heat.write_ops > 0 ? 1 : 0;
    t.write_ops += heat.write_ops;
    t.discontiguous_writes += heat.discontiguous_writes;
    t.max_region_write_bytes = std::max(t.max_region_write_bytes, heat.write_bytes);
  }
  return t;
}

void AccessHeatmap::ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const {
  if (!configured()) {
    return;
  }
  const HeatmapTotals t = Totals();
  metrics->SetGauge(prefix + ".heatmap.regions_read", t.regions_read);
  metrics->SetGauge(prefix + ".heatmap.regions_written", t.regions_written);
  metrics->SetGauge(prefix + ".heatmap.write_ops", t.write_ops);
  metrics->SetGauge(prefix + ".heatmap.discontiguous_writes", t.discontiguous_writes);
  metrics->SetGauge(prefix + ".heatmap.max_region_write_bytes", t.max_region_write_bytes);
  // Gauges are integers; publish the sequentiality evidence as permille.
  metrics->SetGauge(prefix + ".heatmap.contiguous_write_permille",
                    static_cast<uint64_t>(t.contiguous_write_fraction() * 1000.0 + 0.5));
}

}  // namespace nvmgc

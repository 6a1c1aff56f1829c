#include "src/nvm/access_heatmap.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace nvmgc {

uint32_t AccessHeatmap::AddArena(uint64_t base, uint64_t region_bytes, uint32_t regions) {
  Arena arena;
  arena.base = base;
  arena.end = base + region_bytes * regions;
  arena.region_bytes = region_bytes;
  arena.slot_offset = slots_.size();
  arenas_.push_back(arena);
  for (uint32_t i = 0; i < regions; ++i) {
    slots_.emplace_back();
  }
  return static_cast<uint32_t>(arena.slot_offset);
}

void AccessHeatmap::Charge(const AccessDescriptor& d) {
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
  const uint64_t slot_index =
      arena->slot_offset + (d.address - arena->base) / arena->region_bytes;
  Slot& slot = slots_[slot_index];
  if (d.op == AccessOp::kRead) {
    slot.read_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
    slot.read_ops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.write_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
  slot.write_ops.fetch_add(1, std::memory_order_relaxed);
  // A write continues the region's stream when it starts exactly where the
  // previous write into the region ended. The exchange is racy across threads
  // writing the same region concurrently, which is faithful: interleaved
  // streams from two writers *are* discontiguous at the device.
  const uint64_t prev_end =
      slot.last_write_end.exchange(d.address + d.bytes, std::memory_order_relaxed);
  if (prev_end != 0 && prev_end != d.address) {
    slot.discontiguous_writes.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<RegionHeat> AccessHeatmap::Snapshot() const {
  std::vector<RegionHeat> out;
  out.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    RegionHeat heat;
    heat.region = static_cast<uint32_t>(i);
    heat.read_bytes = s.read_bytes.load(std::memory_order_relaxed);
    heat.write_bytes = s.write_bytes.load(std::memory_order_relaxed);
    heat.read_ops = s.read_ops.load(std::memory_order_relaxed);
    heat.write_ops = s.write_ops.load(std::memory_order_relaxed);
    heat.discontiguous_writes = s.discontiguous_writes.load(std::memory_order_relaxed);
    out.push_back(heat);
  }
  return out;
}

HeatmapTotals AccessHeatmap::Totals() const {
  HeatmapTotals t;
  for (const Slot& s : slots_) {
    const uint64_t reads = s.read_ops.load(std::memory_order_relaxed);
    const uint64_t writes = s.write_ops.load(std::memory_order_relaxed);
    t.regions_read += reads > 0 ? 1 : 0;
    t.regions_written += writes > 0 ? 1 : 0;
    t.write_ops += writes;
    t.discontiguous_writes += s.discontiguous_writes.load(std::memory_order_relaxed);
    t.max_region_write_bytes = std::max(t.max_region_write_bytes,
                                        s.write_bytes.load(std::memory_order_relaxed));
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

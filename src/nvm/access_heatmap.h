// Per-region access heatmap for a simulated memory device.
//
// Divides a device's arena into fixed-size slots (one per heap region) and
// counts, per slot, the read/write bytes and the *discontiguous* writes — a
// write whose start address is not the end of the previous write into the
// same slot. The discontiguity count is the direct, spatial evidence for the
// paper's central claim: the vanilla collector scatters small random writes
// (forwarding installs, slot updates) across survivor regions, while the
// write cache turns each region's write-back into one contiguous stream.
// Optane behavior hinges on exactly this distinction — the device's 256-byte
// XPLine write amplification punishes discontiguous sub-line writes.

#ifndef NVMGC_SRC_NVM_ACCESS_HEATMAP_H_
#define NVMGC_SRC_NVM_ACCESS_HEATMAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nvm/access.h"
#include "src/nvm/device_shard.h"

namespace nvmgc {

class MetricsRegistry;

// Plain-value snapshot of one region slot (see AccessHeatmap::Snapshot).
struct RegionHeat {
  uint32_t region = 0;  // Slot index == region index within the arena.
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t discontiguous_writes = 0;

  // Fraction of writes that continued the previous write's stream. 1.0 for an
  // untouched or perfectly sequential region.
  double contiguous_write_fraction() const {
    if (write_ops == 0) {
      return 1.0;
    }
    return 1.0 - static_cast<double>(discontiguous_writes) / static_cast<double>(write_ops);
  }
};

// Aggregate over all slots (what ExportMetrics publishes as gauges).
struct HeatmapTotals {
  uint64_t regions_read = 0;     // Slots with at least one read.
  uint64_t regions_written = 0;  // Slots with at least one write.
  uint64_t write_ops = 0;
  uint64_t discontiguous_writes = 0;
  uint64_t max_region_write_bytes = 0;

  double contiguous_write_fraction() const {
    if (write_ops == 0) {
      return 1.0;
    }
    return 1.0 - static_cast<double>(discontiguous_writes) / static_cast<double>(write_ops);
  }
};

// Thread-safe (relaxed atomics — the heatmap feeds evidence, not invariants).
// Unconfigured heatmaps ignore every charge; addresses outside the configured
// arenas are ignored too (mutator handles and other host memory).
//
// A heatmap covers one or more disjoint arenas: a private device has one (its
// Vm's heap arena), a shared fleet device has one per tenant Vm. Slots are
// numbered across arenas in registration order, so `region` in RegionHeat is
// a global slot index. Arenas must be registered (at Vm/Heap construction)
// before their addresses see traffic; registration is not thread-safe against
// concurrent Charge on the *same* heatmap configuration step, matching how
// Vms are constructed.
//
// Layout. Read and write bytes and ops are counted per device shard
// (device_shard.h), in chunks of kChunkSlots consecutive slots that a shard
// allocates the first time it charges one of their slots, so a thread pays
// memory only for the slot ranges it touches and an exclusive owner adds
// without an RMW; discontiguous writes are counted there too, by the shard
// whose write found the stream ending elsewhere. Only the write stream itself
// is shared per slot: the end of the slot's last write, swapped by every
// write (one relaxed exchange), because interleaved writers must break each
// other's streams. Readers (Snapshot, Totals) sum the allocated chunks:
// O(slots + touched cells).
class AccessHeatmap {
 public:
  AccessHeatmap() = default;
  ~AccessHeatmap();

  AccessHeatmap(const AccessHeatmap&) = delete;
  AccessHeatmap& operator=(const AccessHeatmap&) = delete;

  // Appends an arena covering [base, base + region_bytes * regions) with one
  // slot per region, without touching existing ones; returns its first slot
  // index. Every Heap binds its arena this way, on a private or shared device.
  uint32_t AddArena(uint64_t base, uint64_t region_bytes, uint32_t regions);
  bool configured() const { return !arenas_.empty(); }
  uint32_t arena_count() const { return static_cast<uint32_t>(arenas_.size()); }
  uint32_t regions() const { return regions_; }

  // Counts `d` in the slot its address falls in, on `shard`'s cells.
  void Charge(const AccessDescriptor& d, DeviceShardRef shard);
  void Charge(const AccessDescriptor& d) { Charge(d, ThisThreadDeviceShard()); }

  // Copies out the per-region counters (index == slot == region index).
  std::vector<RegionHeat> Snapshot() const;
  HeatmapTotals Totals() const;

  // Publishes aggregate gauges under "<prefix>.heatmap.*": regions_read,
  // regions_written, write_ops, discontiguous_writes,
  // max_region_write_bytes, contiguous_write_permille.
  void ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const;

 private:
  static constexpr uint32_t kChunkSlots = 64;

  // One shard's counts for one slot.
  struct Cell {
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> read_ops{0};
    std::atomic<uint64_t> write_ops{0};
    // Writes of this shard that found the slot's stream ending elsewhere.
    std::atomic<uint64_t> discontiguous_writes{0};
  };
  struct alignas(kShardAlign) Chunk {
    Cell cells[kChunkSlots];
  };

  // The slot's write stream: the end address of its most recent write, by
  // any thread (0 = none yet). One cache line per slot: GC workers streaming
  // into neighbouring regions must not false-share it.
  struct alignas(64) Stream {
    std::atomic<uint64_t> last_write_end{0};
  };

  // One arena's slots; its arrays are sized once, at AddArena.
  struct Arena {
    uint64_t base = 0;
    uint64_t end = 0;
    uint64_t region_bytes = 0;
    uint32_t first_slot = 0;
    uint32_t regions = 0;
    uint32_t chunks = 0;  // Chunks per shard: regions / kChunkSlots, rounded up.
    std::unique_ptr<Stream[]> streams;
    // Chunk c of shard s: chunk_table[s * chunks + c] (nullptr until used).
    std::unique_ptr<std::atomic<Chunk*>[]> chunk_table;
  };

  // `shard`'s cell for `arena`'s slot `slot`, allocating its chunk on first
  // use.
  static Cell& CellFor(const Arena& arena, uint32_t slot, DeviceShardRef shard);

  std::vector<Arena> arenas_;
  uint32_t regions_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_ACCESS_HEATMAP_H_

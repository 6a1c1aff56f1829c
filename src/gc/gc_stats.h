// Per-collection and accumulated GC statistics.

#ifndef NVMGC_SRC_GC_GC_STATS_H_
#define NVMGC_SRC_GC_GC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

namespace nvmgc {

// Cycle kind (generational mode). Non-generational runs only perform minor
// collections over the all-young heap.
enum class GcKind : uint8_t {
  kMinor,  // Young generation only (eden + aged survivors).
  kMajor,  // Young + old regions; large-object/humongous spaces are marked in place.
};

inline const char* GcKindName(GcKind kind) {
  return kind == GcKind::kMajor ? "major" : "minor";
}

// One pause's record. Every field except start_ns and tenure_threshold_used
// is a per-pause amount that sums across workers and pauses, and has a stable
// dotted name in kCycleFields below.
struct GcCycleStats {
  uint64_t start_ns = 0;  // Simulated time at which the pause began.
  uint64_t pause_ns = 0;
  uint64_t read_phase_ns = 0;       // Copy-and-traverse (read-mostly) sub-phase.
  uint64_t writeback_phase_ns = 0;  // Write-only sub-phase (write cache only).

  // Generational split (is_major stays 0 outside generational mode).
  uint64_t is_major = 0;                 // 1 when this cycle was a major collection.
  uint64_t young_cset_bytes = 0;         // Young-region bytes in the collection set.
  uint64_t old_cset_bytes = 0;           // Old-region bytes in the cset (major only).
  uint64_t survivor_overflow_bytes = 0;  // Promoted early: DRAM survivor space full.
  uint64_t tenure_threshold_used = 0;    // Threshold in effect for this cycle.

  uint64_t objects_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t objects_promoted = 0;
  uint64_t bytes_promoted = 0;
  uint64_t refs_processed = 0;
  uint64_t steals = 0;

  // Write cache.
  uint64_t cache_bytes_staged = 0;      // Bytes copied through the DRAM cache.
  uint64_t cache_overflow_bytes = 0;    // Copied directly to NVM (cap hit).
  uint64_t regions_flushed_sync = 0;
  uint64_t regions_flushed_async = 0;
  uint64_t regions_steal_tainted = 0;

  // Header map.
  uint64_t header_map_installs = 0;   // Forwardings kept in DRAM.
  uint64_t header_map_overflows = 0;  // Fell back to NVM header CAS.
  uint64_t header_map_hits = 0;       // Lookups resolved from DRAM.

  // Fault injection & graceful degradation.
  uint64_t cache_fault_denials = 0;     // Pair allocations denied by the injector.
  uint64_t cache_fallback_workers = 0;  // Workers degraded to direct-to-NVM copying.
  uint64_t cache_fallback_bytes = 0;    // Bytes copied directly while degraded.
  uint64_t degraded_mode = 0;           // 1 when async/NT stores were disabled.
  uint64_t header_map_fault_probes = 0;  // HM probes charged under an active fault.

  // Device traffic deltas over the pause (heap device).
  uint64_t device_read_bytes = 0;
  uint64_t device_write_bytes = 0;
  // DRAM device traffic deltas over the pause (staging, header-map probes).
  uint64_t dram_read_bytes = 0;
  uint64_t dram_write_bytes = 0;

  // Prefetching.
  uint64_t prefetches_issued = 0;
  uint64_t prefetch_hits = 0;

  // Durability (all zero outside durability mode).
  uint64_t persist_flush_lines = 0;   // 64B lines CLWB'd during the pause.
  uint64_t persist_fences = 0;        // Store fences issued.
  uint64_t persist_ns = 0;            // Simulated time in flushes + fences.
  uint64_t persist_redo_entries = 0;  // In-place-update redo log entries.
  uint64_t persist_commit_bytes = 0;  // Commit record payload bytes written.

  GcKind kind() const { return is_major != 0 ? GcKind::kMajor : GcKind::kMinor; }

  // Adds every kCycleFields field of `other`; start_ns and
  // tenure_threshold_used are left as they are.
  GcCycleStats& operator+=(const GcCycleStats& other);
};

// The per-pause record's field list and stable dotted metric names: lifetime
// counters, bench JSON "pauses" values and incident "counters" all come from
// this table. Sorted by name, so serializers emit keys in std::map order.
struct CycleField {
  const char* name;
  uint64_t GcCycleStats::*field;
};

inline constexpr CycleField kCycleFields[] = {
    {"cache.bytes_staged", &GcCycleStats::cache_bytes_staged},
    {"cache.fallback_bytes", &GcCycleStats::cache_fallback_bytes},
    {"cache.fallback_workers", &GcCycleStats::cache_fallback_workers},
    {"cache.fault_denials", &GcCycleStats::cache_fault_denials},
    {"cache.overflow_bytes", &GcCycleStats::cache_overflow_bytes},
    {"cache.regions_flushed_async", &GcCycleStats::regions_flushed_async},
    {"cache.regions_flushed_sync", &GcCycleStats::regions_flushed_sync},
    {"cache.regions_steal_tainted", &GcCycleStats::regions_steal_tainted},
    {"device.dram.read_bytes", &GcCycleStats::dram_read_bytes},
    {"device.dram.write_bytes", &GcCycleStats::dram_write_bytes},
    {"device.heap.read_bytes", &GcCycleStats::device_read_bytes},
    {"device.heap.write_bytes", &GcCycleStats::device_write_bytes},
    {"gc.bytes_copied", &GcCycleStats::bytes_copied},
    {"gc.bytes_promoted", &GcCycleStats::bytes_promoted},
    {"gc.degraded_pauses", &GcCycleStats::degraded_mode},
    {"gc.major_pauses", &GcCycleStats::is_major},
    {"gc.objects_copied", &GcCycleStats::objects_copied},
    {"gc.objects_promoted", &GcCycleStats::objects_promoted},
    {"gc.pause_ns", &GcCycleStats::pause_ns},
    {"gc.read_phase_ns", &GcCycleStats::read_phase_ns},
    {"gc.refs_processed", &GcCycleStats::refs_processed},
    {"gc.steals", &GcCycleStats::steals},
    {"gc.writeback_phase_ns", &GcCycleStats::writeback_phase_ns},
    {"gen.old_cset_bytes", &GcCycleStats::old_cset_bytes},
    {"gen.survivor_overflow_bytes", &GcCycleStats::survivor_overflow_bytes},
    {"gen.young_cset_bytes", &GcCycleStats::young_cset_bytes},
    {"hm.fault_probes", &GcCycleStats::header_map_fault_probes},
    {"hm.hits", &GcCycleStats::header_map_hits},
    {"hm.installs", &GcCycleStats::header_map_installs},
    {"hm.overflows", &GcCycleStats::header_map_overflows},
    {"persist.commit_bytes", &GcCycleStats::persist_commit_bytes},
    {"persist.fences", &GcCycleStats::persist_fences},
    {"persist.flush_lines", &GcCycleStats::persist_flush_lines},
    {"persist.ns", &GcCycleStats::persist_ns},
    {"persist.redo_entries", &GcCycleStats::persist_redo_entries},
    {"prefetch.hits", &GcCycleStats::prefetch_hits},
    {"prefetch.issued", &GcCycleStats::prefetches_issued},
};

// A field added to GcCycleStats without a table entry fails here.
static_assert(sizeof(GcCycleStats) == (std::size(kCycleFields) + 2) * sizeof(uint64_t),
              "every summed GcCycleStats field needs a kCycleFields entry");

// Names strictly ascending (so unique) and no field listed twice.
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kCycleFields); ++i) {
        if (i > 0 && std::string_view(kCycleFields[i - 1].name) >= kCycleFields[i].name) {
          return false;
        }
        for (size_t j = 0; j < i; ++j) {
          if (kCycleFields[j].field == kCycleFields[i].field) return false;
        }
      }
      return true;
    }(),
    "kCycleFields must be sorted by name, one entry a field");

inline GcCycleStats& GcCycleStats::operator+=(const GcCycleStats& other) {
  for (const CycleField& f : kCycleFields) {
    this->*f.field += other.*f.field;
  }
  return *this;
}

class GcStats {
 public:
  void Add(const GcCycleStats& cycle) { cycles_.push_back(cycle); }

  const std::vector<GcCycleStats>& cycles() const { return cycles_; }
  size_t gc_count() const { return cycles_.size(); }

  uint64_t total_pause_ns() const {
    uint64_t total = 0;
    for (const auto& c : cycles_) {
      total += c.pause_ns;
    }
    return total;
  }

  GcCycleStats Totals() const {
    GcCycleStats t;
    for (const auto& c : cycles_) {
      t += c;
      // tenure_threshold_used is a per-cycle value, not a sum; keep the last.
      t.tenure_threshold_used = c.tenure_threshold_used;
    }
    return t;
  }

 private:
  std::vector<GcCycleStats> cycles_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_GC_GC_STATS_H_

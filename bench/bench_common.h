// Shared helpers for the figure/table reproduction benches.
//
// RunOnce / RunSingle consult the active BenchContext (bench_runner.h): when
// --json / --trace are set they run one observed repetition that harvests
// per-pause GC records and GC phase traces, and record every data point
// for the machine-readable artifact writers.

#ifndef NVMGC_BENCH_BENCH_COMMON_H_
#define NVMGC_BENCH_BENCH_COMMON_H_

#include <string>

#include "src/gc/gc_options.h"
#include "src/heap/heap.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {

// The evaluated GC configurations of Figure 5 / 13.
enum class GcVariant {
  kVanilla,
  kWriteCache,  // "+writecache"
  kAll,         // "+all": write cache + header map + NT stores + prefetch
  kAllAsync,    // "+all" with asynchronous region flushing (Figure 11)
};

const char* GcVariantName(GcVariant variant);
const char* DeviceKindShortName(DeviceKind kind);

// Standard simulated-JVM shape used by all macro benches: 64 MiB heap in
// 64 KiB regions, 16 MiB eden (the paper's 16 GiB heap / 4 GiB young space,
// scaled 1:256 so a full figure sweep runs in seconds of wall time). The
// active BenchContext's --heap-mb scales all region counts proportionally.
HeapConfig DefaultHeap(DeviceKind device, bool eden_on_dram = false);

GcOptions MakeGcOptions(GcVariant variant, uint32_t threads,
                        CollectorKind collector = CollectorKind::kG1);

// Scales a profile's allocation volume by BenchScale().
WorkloadProfile ScaledProfile(WorkloadProfile profile);

// Runs `profile` on a fresh VM with the given settings and returns the result
// averaged over BenchRepetitions() (distinct seeds) — the paper likewise
// averages five runs per data point.
WorkloadResult RunOnce(const WorkloadProfile& profile, DeviceKind device, GcVariant variant,
                       uint32_t threads, CollectorKind collector = CollectorKind::kG1,
                       bool eden_on_dram = false);

// Single unaveraged run with explicit options (building block for sweeps).
WorkloadResult RunSingle(const WorkloadProfile& profile, const HeapConfig& heap,
                         const GcOptions& gc);

// Repetitions per data point: the --repeat flag, default 2.
int BenchRepetitions();
void SetBenchRepetitions(int reps);

// Allocation-volume scale: the --scale flag, default 1.0.
double BenchScale();
void SetBenchScale(double scale);

}  // namespace nvmgc

#endif  // NVMGC_BENCH_BENCH_COMMON_H_

// Figure 13: GC scalability — accumulated GC time vs number of GC threads
// (1, 2, 4, 8, 20, 28, 56) for vanilla / +writecache / +all on every
// application.
//
// Expected shape (Section 5.6): vanilla is competitive below 8 threads but
// stops scaling (or regresses) beyond; +writecache scales to ~20; +all keeps
// scaling to 56 for most applications.
//
// Full sweep is 26 apps x 7 thread counts x 3 variants; to keep the default
// run short it executes one unaveraged run per point (RunSingle).

#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

const uint32_t kThreads[] = {1, 2, 4, 8, 20, 28, 56};

double GcSeconds(const WorkloadProfile& profile, GcVariant variant, uint32_t threads) {
  return RunSingle(profile, DefaultHeap(DeviceKind::kNvm),
                   MakeGcOptions(variant, threads))
      .gc_seconds();
}

int Main(BenchContext&) {
  std::printf("=== Figure 13: GC time vs GC threads (NVM heap) ===\n\n");
  int vanilla_knee = 0;
  int all_scales_past_20 = 0;
  int all_wins_at_56 = 0;
  int apps = 0;
  for (const auto& base_profile : AllApplicationProfiles()) {
    WorkloadProfile profile = base_profile;
    profile.total_allocation_bytes /= 2;  // Keep the 546-point sweep fast.
    std::printf("--- %s ---\n", profile.name.c_str());
    TablePrinter table({"threads", "vanilla (s)", "+writecache (s)", "+all (s)"});
    double vanilla_at[7];
    double all_at[7];
    for (size_t i = 0; i < std::size(kThreads); ++i) {
      const uint32_t t = kThreads[i];
      const double vanilla = GcSeconds(profile, GcVariant::kVanilla, t);
      const double wc = GcSeconds(profile, GcVariant::kWriteCache, t);
      const double all = GcSeconds(profile, GcVariant::kAll, t);
      vanilla_at[i] = vanilla;
      all_at[i] = all;
      table.AddRow({std::to_string(t), FormatDouble(vanilla, 3), FormatDouble(wc, 3),
                    FormatDouble(all, 3)});
    }
    table.Print();
    // Shape checks: vanilla stops improving (or regresses) past its ~8-thread
    // knee, while +all keeps profiting from extra threads all the way to 56.
    if (vanilla_at[3] < vanilla_at[6] * 1.10) {
      ++vanilla_knee;
    }
    if (all_at[6] < all_at[3] * 1.02) {
      ++all_scales_past_20;
    }
    if (all_at[6] < vanilla_at[6]) {
      ++all_wins_at_56;
    }
    ++apps;
    std::printf("\n");
  }
  std::printf("apps where vanilla stops scaling past 8 threads:   %d of %d\n", vanilla_knee,
              apps);
  std::printf("apps where +all at 56 threads beats +all at 8:     %d of %d\n",
              all_scales_past_20, apps);
  std::printf("apps where +all beats vanilla at 56 threads:       %d of %d\n", all_wins_at_56,
              apps);
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig13_scalability)

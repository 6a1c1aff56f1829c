// BenchRunner: the shared command-line front end for every bench binary.
//
// A bench registers one entry point with the NVMGC_BENCH_MAIN macro and
// receives a BenchContext carrying the uniform flag set:
//
//   --threads=N     override the bench's default GC thread count
//   --heap-mb=N     override the default simulated heap size (region counts
//                   scale proportionally; benches that build a HeapConfig by
//                   hand are unaffected)
//   --collector=K   g1 | ps
//   --json=PATH     write a machine-readable result file (schema
//                   "nvmgc.bench.v2": config + per-run results + lifetime
//                   metrics + per-pause GC records + histogram percentile
//                   digests + optional extra scalars)
//   --trace=PATH    write a merged Chrome-trace / Perfetto JSON file; each
//                   recorded run becomes one "process" named by its label,
//                   with NVM bandwidth counter tracks under the GC spans
//   --timeline      embed each observed run's per-pause bandwidth timeline
//                   (150 us read/write MB/s + interleave samples) in --json
//   --repeat=N      repetitions averaged per data point (default 2)
//   --scale=F       allocation-volume scale factor (default 1.0)
//   --flight-record=DIR  arm the GC flight recorder's anomaly dumps: each
//                   observed run writes nvmgc.incident.v1 files into a
//                   per-label subdirectory of DIR, plus one explicit
//                   end-of-run dump (see scripts/fr_analyze.py)
//   --fr-threshold-ns=N  absolute pause threshold for the recorder's
//                   anomaly trigger (default: trailing-p99 outlier only)
//
// bench_common's RunOnce / RunSingle consult the active context, so existing
// table-printing bench bodies pick up --json / --trace without any changes
// beyond using ctx.threads()/ctx.collector() for their defaults.

#ifndef NVMGC_BENCH_BENCH_RUNNER_H_
#define NVMGC_BENCH_BENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/gc/gc_options.h"
#include "src/obs/device_timeline.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {

// One recorded data point: an (averaged) workload run plus the observability
// artifacts harvested from its first repetition.
struct BenchRunRecord {
  std::string label;     // Unique-ish "<workload>/<variant>/<device>/tN" key.
  std::string workload;  // Profile name.
  std::map<std::string, std::string> config;  // variant/device/collector/...
  WorkloadResult result;                      // Averaged over `reps`.
  int reps = 1;
  // Captured from repetition 0 when --json is active:
  std::vector<GcCycleStats> pauses;  // GcStats::cycles(); ids are the indices.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> gauges;
  // Percentile digests of every registry histogram (schema v2).
  std::map<std::string, HistogramSummary> histograms;
  // Per-pause bandwidth samples, harvested only under --timeline (schema v2).
  std::vector<TimelineSample> timeline;
  // Bench-specific scalar results (e.g. cassandra p50_ms/p95_ms/p99_ms) that
  // don't fit WorkloadResult (schema v2).
  std::map<std::string, double> extra;
};

class BenchContext {
 public:
  // --- Flag accessors; the bench passes its paper-default value ---
  uint32_t threads(uint32_t default_threads) const {
    return threads_ > 0 ? threads_ : default_threads;
  }
  CollectorKind collector(CollectorKind default_collector) const {
    return has_collector_ ? collector_ : default_collector;
  }
  bool has_heap_mb() const { return heap_mb_ > 0; }
  uint32_t heap_mb() const { return heap_mb_; }

  const std::string& json_path() const { return json_path_; }
  const std::string& trace_path() const { return trace_path_; }
  // True when runs should be observed (per-pause metrics harvested).
  bool observing() const { return !json_path_.empty() || !trace_path_.empty(); }
  // True when GC phase tracing should be enabled on observed runs.
  bool tracing() const { return !trace_path_.empty(); }
  // True when per-pause bandwidth timelines should be embedded in the JSON
  // artifact (--timeline; adds a "timeline" array per run).
  bool timeline_enabled() const { return timeline_; }
  // Flight-recorder incident directory (--flight-record). Empty = anomaly
  // dumps disabled. bench_common gives each observed run a per-label
  // subdirectory underneath so incident names never collide.
  const std::string& flight_record_dir() const { return flight_record_dir_; }
  bool flight_recording() const { return !flight_record_dir_.empty(); }
  // Pause-threshold override for the recorder's anomaly trigger
  // (--fr-threshold-ns; 0 = keep the p99-outlier default).
  uint64_t fr_threshold_ns() const { return fr_threshold_ns_; }

  // --- Recording (called by bench_common) ---
  void RecordRun(BenchRunRecord record);
  // Appends one observed run's trace events as a new Chrome-trace "process"
  // named `process_name`.
  void AppendTrace(const GcTracer& tracer, const std::string& process_name);

  const std::vector<BenchRunRecord>& runs() const { return runs_; }

 private:
  friend int BenchMain(const char* name, int (*fn)(BenchContext&), int argc, char** argv);

  bool WriteJson(const std::string& bench_name) const;
  bool WriteTrace() const;

  uint32_t threads_ = 0;  // 0 = bench default.
  uint32_t heap_mb_ = 0;  // 0 = bench default.
  bool has_collector_ = false;
  CollectorKind collector_ = CollectorKind::kG1;
  std::string json_path_;
  std::string trace_path_;
  std::string flight_record_dir_;
  uint64_t fr_threshold_ns_ = 0;
  bool timeline_ = false;
  int repeat_ = 0;      // 0 = default.
  double scale_ = 0.0;  // 0 = default.

  std::vector<BenchRunRecord> runs_;
  std::string trace_events_;  // Accumulated Chrome-trace objects.
  uint32_t next_trace_pid_ = 1;
};

// The context of the BenchMain currently running, or nullptr outside one
// (e.g. when a bench body is driven from a test).
BenchContext* CurrentBenchContext();

using BenchFn = int (*)(BenchContext&);

// Parses the uniform flags, runs `fn` under an installed context, then writes
// the requested --json / --trace artifacts. Returns the bench's exit code, or
// nonzero on bad flags / artifact-write failure.
int BenchMain(const char* name, BenchFn fn, int argc, char** argv);

}  // namespace nvmgc

// Defines main() for a bench whose entry point is `int Main(BenchContext&)`
// in namespace nvmgc (anonymous namespaces included).
#define NVMGC_BENCH_MAIN(bench_name)                                   \
  int main(int argc, char** argv) {                                    \
    return ::nvmgc::BenchMain(#bench_name, ::nvmgc::Main, argc, argv); \
  }

#endif  // NVMGC_BENCH_BENCH_RUNNER_H_

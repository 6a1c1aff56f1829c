// perfbench driver: runs ONE repetition of one benchmark workload against the
// nvmgc library and prints its raw measurements as a single JSON line.
//
//   nvmgc_perfbench --workload churn|serve|tiered|fleet --seed N
//                   [--spans trace.json] [--run-id ID] [--sweep]
//
// Everything is driven through public APIs (Vm, SyntheticApp, CassandraService,
// FleetManager and its tenant drivers, Vm::metrics(), Vm::gc_stats(),
// MemoryDevice::counters()). Host time inside the collector is measured from
// outside: a benchmark-owned GcCoordinator returns zero deferral (so simulated
// time is untouched) and timestamps entry to and exit from every
// Vm::CollectNow. With --spans the driver also records host spans around the
// public calls it makes and writes them as Chrome-trace JSON at exit.
//
// With --sweep (serve only) the driver instead runs the fixed rate grid that
// max_kqps_at_slo is searched on, one fresh Vm per rate.
//
// Each repetition runs in its own process, so a failed NVMGC_CHECK (abort)
// costs only that repetition; run.py records it as a failed run. Correctness
// checks that do not abort (heap verification, served-request and task
// counts) are reported in "checks_failed".

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/fleet/fleet_manager.h"
#include "src/fleet/qos.h"
#include "src/fleet/tenant_workload.h"
#include "src/gc/gc_options.h"
#include "src/heap/heap_verifier.h"
#include "src/runtime/gc_coordinator.h"
#include "src/runtime/vm.h"
#include "src/util/histogram.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

// --- Workload sizes (fixed: host_s is measured at a fixed input size) ---
// churn: scala-stm-bench7 allocation volume x this factor (>= 100 pauses).
constexpr double kChurnScale = 7.0;
// tiered: page-rank profile allocation volume x this factor (>= 100 pauses).
// The young generation keeps its heap/4 default: smaller ones (8-12 MiB) need
// less volume but split the minor pauses into two near-equal modes, and the
// median pause then flips between them from seed to seed.
constexpr double kTieredScale = 10.0;
// serve: write phase then read phase at one rate below the knee. The write
// phase is the longer one so the median pause is a write-phase pause: read-
// phase pauses find almost nothing live and all last the same fixed time.
constexpr double kServeKqps = 80.0;
constexpr uint64_t kServeWriteRequests = 1000000;
constexpr uint64_t kServeReadRequests = 750000;
// serve --sweep: the fixed grid max_kqps_at_slo is searched on (ascending).
constexpr double kSweepKqps[] = {60, 70, 80, 90, 100, 110, 120, 130};
constexpr uint64_t kSweepWriteRequests = 50000;
constexpr uint64_t kSweepReadRequests = 150000;
// fleet: tenant volumes (the serving tenant's request count sets op samples).
constexpr uint64_t kFleetServingRequests = 80000;
constexpr uint64_t kFleetBatchTasks = 2400;
constexpr size_t kFleetBackgroundBytes = 960u * 1024 * 1024;
// Set-ups per repetition (the median is reported as setup_s).
constexpr int kSetupSamples = 5;

double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// splitmix64: derives independent component seeds from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// GC workers per Vm: at most nproc - 1 (one core stays with the control
// thread), capped at 3 so simulated results do not depend on the host's size.
uint32_t GcWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  const unsigned spare = n > 1 ? n - 1 : 1;
  return std::min(3u, spare);
}

// The standard simulated-JVM shape of the repository's macro benches: 64 MiB
// NVM heap in 64 KiB regions, 8 MiB eden, 24 MiB DRAM staging arena.
HeapConfig BenchHeap() {
  HeapConfig h;
  h.region_bytes = 64 * 1024;
  h.heap_regions = 1024;
  h.eden_regions = 128;
  h.dram_cache_regions = 384;
  h.tenure_age = 3;
  h.heap_device = DeviceKind::kNvm;
  return h;
}

// --- Host spans (traced runs only) ---

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  // Chrome-trace JSON ("X" complete events on one thread), loadable in
  // Perfetto. Every span carries its id, its parent's id and the run id.
  bool WriteChromeTrace(const std::string& path, const std::string& run_id) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"control\"}}");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"cat\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                   "\"run_id\":\"%s\"}}",
                   s.name.c_str(), layer.c_str(), static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   run_id.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Times Vm::CollectNow from outside: the Vm calls OnPauseRequested on entry
// and OnPauseFinished just before it returns. Defers nothing itself; in a
// fleet it forwards both calls to the FleetManager it displaced, so the
// fleet's pause scheduling is unchanged.
class TimingCoordinator : public GcCoordinator {
 public:
  TimingCoordinator(SpanLog* spans, GcCoordinator* forward) : spans_(spans), forward_(forward) {}

  uint64_t OnPauseRequested(uint32_t tenant, GcKind kind, uint64_t now_ns) override {
    const uint64_t defer = forward_ != nullptr ? forward_->OnPauseRequested(tenant, kind, now_ns) : 0;
    span_ = spans_->Begin("gc.Vm::CollectNow");
    start_ = Clock::now();
    return defer;
  }

  void OnPauseFinished(uint32_t tenant, GcKind kind, uint64_t start_ns, uint64_t end_ns,
                       uint64_t writeback_ns) override {
    if (forward_ != nullptr) {
      forward_->OnPauseFinished(tenant, kind, start_ns, end_ns, writeback_ns);
    }
    host_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count());
    spans_->End(span_);
  }

  uint64_t host_ns() const { return host_ns_; }

 private:
  SpanLog* spans_;
  GcCoordinator* forward_;
  Clock::time_point start_;
  int span_ = -1;
  uint64_t host_ns_ = 0;
};

// --- Result assembly ---

class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) { Raw(key, "\"" + Escape(v) + "\""); }
  void Raw(const std::string& key, const std::string& v) {
    out_ += (out_.empty() ? "" : ",") + ("\"" + key + "\":" + v);
  }
  std::string Object() const { return "{" + out_ + "}"; }

  static std::string Escape(const std::string& s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return o;
  }

 private:
  std::string out_;
};

struct RunResult {
  double setup_s = 0.0;
  double host_s = 0.0;
  uint64_t gc_host_ns = 0;
  std::vector<double> pauses_ms;
  std::optional<Histogram> ops;  // Request latencies (serve, fleet), ns.
  std::map<std::string, double> layers;
  std::vector<std::string> checks_failed;
};

void Check(RunResult* r, bool ok, const std::string& what) {
  if (!ok) r->checks_failed.push_back(what);
}

void VerifyHeap(RunResult* r, Vm* vm, const std::string& label, SpanLog* spans) {
  ScopedSpan span(spans, "verify.HeapVerifier");
  HeapVerifier verifier(&vm->heap());
  std::string error;
  Check(r, verifier.VerifyReachable(vm->RootSlots(), &error), label + " reachable: " + error);
  error.clear();
  Check(r, verifier.VerifyParsability(&error), label + " parsability: " + error);
  error.clear();
  Check(r, verifier.VerifyRemsetCompleteness(&error), label + " remset: " + error);
}

// State of one Vm when the timed part starts: per-layer counters cover only
// what happens after it (set-up may already collect, e.g. while filling a
// table).
struct TimedMark {
  Vm* vm;
  size_t cycles;
  uint64_t sim_ns;
  uint64_t gc_ns;
  DeviceCounters heap;
  DeviceCounters dram;
};

TimedMark Mark(Vm* vm) {
  return {vm, vm->gc_stats().gc_count(), vm->now_ns(), vm->gc_time_ns(),
          vm->heap_device().counters(), vm->dram_device().counters()};
}

// Simulated per-layer counters of a set of Vms (fleet: summed over tenants)
// over their timed parts.
void AddLayerCounters(RunResult* r, const std::vector<TimedMark>& marks) {
  GcStats timed;  // Every Vm's cycles of the timed part.
  uint64_t app_ns = 0, sim_ns = 0, accesses = 0, heap_writes = 0, heap_nt = 0;
  uint64_t alloc = 0, old_reclaims = 0, decisions = 0, retreats = 0, final_threads = 0;
  const MemoryDevice* counted_heap = nullptr;
  for (const TimedMark& mark : marks) {
    Vm* vm = mark.vm;
    const std::vector<GcCycleStats>& cycles = vm->gc_stats().cycles();
    for (size_t i = mark.cycles; i < cycles.size(); ++i) {
      timed.Add(cycles[i]);
      r->pauses_ms.push_back(NsToMs(cycles[i].pause_ns));
    }
    app_ns += vm->now_ns() - mark.sim_ns - (vm->gc_time_ns() - mark.gc_ns);
    sim_ns = std::max(sim_ns, vm->now_ns() - mark.sim_ns);
    // A fleet's tenants share one heap device: count it once.
    if (&vm->heap_device() != counted_heap) {
      const DeviceCounters h = vm->heap_device().counters() - mark.heap;
      accesses += h.read_ops + h.write_ops;
      heap_writes += h.write_bytes;
      heap_nt += h.nt_write_bytes;
      counted_heap = &vm->heap_device();
    }
    const DeviceCounters d = vm->dram_device().counters() - mark.dram;
    accesses += d.read_ops + d.write_ops;
    // Lifetime counts (set-up included): allocation volume and policy state.
    for (const SiteStats& s : vm->site_profiler().sites()) alloc += s.allocated_bytes;
    old_reclaims += vm->old_reclaim_count();
    decisions += vm->metrics().counter("policy.decisions");
    if (vm->policy() != nullptr) {
      retreats += vm->policy()->retreats();
      final_threads = std::max<uint64_t>(final_threads, vm->policy()->tuning().active_gc_threads);
    } else {
      final_threads = std::max<uint64_t>(final_threads, vm->options().gc.gc_threads);
    }
  }
  const GcCycleStats t = timed.Totals();
  const uint64_t gc_ns = t.pause_ns;
  std::map<std::string, double>& m = r->layers;
  m["sim.gc_s"] = NsToS(gc_ns);
  // Simulated run time of the timed part (fleet: the longest tenant).
  m["sim.total_s"] = NsToS(sim_ns);
  m["gc.read_phase_s"] = NsToS(t.read_phase_ns);
  m["gc.writeback_phase_s"] = NsToS(t.writeback_phase_ns);
  m["gc.pauses"] = static_cast<double>(r->pauses_ms.size());
  m["gc.major_pauses"] = static_cast<double>(t.is_major);
  m["gc.copied_mb"] = static_cast<double>(t.bytes_copied) / kMiB;
  m["gc.refs_processed"] = static_cast<double>(t.refs_processed);
  m["gc.steals"] = static_cast<double>(t.steals);
  m["core.cache_staged_frac"] =
      Frac(t.cache_bytes_staged, t.cache_bytes_staged + t.cache_overflow_bytes);
  const uint64_t flushed = t.regions_flushed_sync + t.regions_flushed_async;
  m["core.async_flush_frac"] = Frac(t.regions_flushed_async, flushed);
  m["core.steal_tainted_frac"] = Frac(t.regions_steal_tainted, flushed);
  m["core.hm_installs"] = static_cast<double>(t.header_map_installs);
  m["core.hm_overflow_frac"] =
      Frac(t.header_map_overflows, t.header_map_installs + t.header_map_overflows);
  m["nvm.gc_read_mb"] = static_cast<double>(t.device_read_bytes) / kMiB;
  m["nvm.gc_write_mb"] = static_cast<double>(t.device_write_bytes) / kMiB;
  m["nvm.gc_bw_mbps"] =
      gc_ns == 0 ? 0.0
                 : static_cast<double>(t.device_read_bytes + t.device_write_bytes) / kMiB /
                       NsToS(gc_ns);
  m["nvm.nt_write_frac"] = Frac(heap_nt, heap_writes);
  m["nvm.prefetch_hit_frac"] = Frac(t.prefetch_hits, t.prefetches_issued);
  m["nvm.accesses"] = static_cast<double>(accesses);
  m["heap.promoted_mb"] = static_cast<double>(t.bytes_promoted) / kMiB;
  m["heap.survivor_overflow_mb"] = static_cast<double>(t.survivor_overflow_bytes) / kMiB;
  m["heap.old_reclaims"] = static_cast<double>(old_reclaims);
  m["recovery.persist_s"] = NsToS(t.persist_ns);
  m["recovery.flush_lines"] = static_cast<double>(t.persist_flush_lines);
  m["recovery.fences"] = static_cast<double>(t.persist_fences);
  m["recovery.redo_entries"] = static_cast<double>(t.persist_redo_entries);
  m["recovery.commit_mb"] = static_cast<double>(t.persist_commit_bytes) / kMiB;
  m["runtime.app_sim_s"] = NsToS(app_ns);
  m["runtime.alloc_mb"] = static_cast<double>(alloc) / kMiB;
  m["policy.decisions"] = static_cast<double>(decisions);
  m["policy.retreats"] = static_cast<double>(retreats);
  m["policy.final_gc_threads"] = static_cast<double>(final_threads);
}

// Builds the workload's state kSetupSamples times (set-up is short and noisy,
// so a repetition reports the median) and keeps the last one. `make` returns
// a std::unique_ptr to the state; only construction is timed.
template <typename Make>
auto TimedSetup(RunResult* r, SpanLog* spans, const char* span_name, Make make) {
  std::vector<double> samples;
  decltype(make()) state;
  for (int i = 0; i < kSetupSamples; ++i) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, span_name);
      state = make();
    }
    samples.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  r->setup_s = samples[samples.size() / 2];
  return state;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SyntheticState {
  std::unique_ptr<Vm> vm;
  std::unique_ptr<SyntheticApp> app;
};

// churn and tiered: one SyntheticApp run on a fresh Vm.
void RunSynthetic(RunResult* r, SpanLog* spans, WorkloadProfile profile, double scale,
                  const GcOptions& gc, uint64_t seed) {
  profile.total_allocation_bytes =
      static_cast<size_t>(static_cast<double>(profile.total_allocation_bytes) * scale);
  profile.seed = DeriveSeed(seed, 1);
  auto state = TimedSetup(r, spans, "setup.Vm+SyntheticApp", [&] {
    auto s = std::make_unique<SyntheticState>();
    VmOptions options;
    options.heap = BenchHeap();
    options.gc = gc;
    s->vm = std::make_unique<Vm>(options);
    s->app = std::make_unique<SyntheticApp>(s->vm.get(), profile);
    return s;
  });
  Vm* vm = state->vm.get();
  TimingCoordinator timing(spans, nullptr);
  vm->set_gc_coordinator(&timing);

  const TimedMark mark = Mark(vm);
  const Clock::time_point start = Clock::now();
  WorkloadResult result;
  {
    ScopedSpan span(spans, "workloads.SyntheticApp::Run");
    result = state->app->Run();
  }
  r->host_s = SecondsSince(start);
  r->gc_host_ns = timing.host_ns();
  vm->set_gc_coordinator(nullptr);

  AddLayerCounters(r, {mark});
  Check(r, result.bytes_allocated >= profile.total_allocation_bytes, "allocation volume short");
  Check(r, result.gc_count == vm->gc_stats().gc_count(), "gc count mismatch");
  VerifyHeap(r, vm, profile.name, spans);
}

void RunChurn(RunResult* r, SpanLog* spans, uint64_t seed) {
  GcOptions gc = AllOptimizationsOptions(CollectorKind::kG1, GcWorkers());
  // The paper gates the header map at 8 GC threads; under the worker cap it
  // would never engage, so the gate is lowered to the worker count.
  gc.header_map_min_threads = GcWorkers();
  RunSynthetic(r, spans, RenaissanceProfile("scala-stm-bench7"), kChurnScale, gc, seed);
}

void RunTiered(RunResult* r, SpanLog* spans, uint64_t seed) {
  const GcOptions gc = GcOptionsBuilder(GenerationalGcOptions(CollectorKind::kG1, GcWorkers()))
                           .Durability()
                           .Build();
  WorkloadProfile profile;
  for (const WorkloadProfile& p : SparkProfiles()) {
    if (p.name == "page-rank") profile = p;
  }
  Check(r, profile.name == "page-rank", "page-rank profile missing");
  RunSynthetic(r, spans, profile, kTieredScale, gc, seed);
}

// Simulated time of the last request's due time in a RunPhase that started
// at `phase_start` (the same arithmetic CassandraService uses).
uint64_t LastDueNs(uint64_t phase_start, uint64_t requests, double kqps) {
  const double interarrival_ns = 1e6 / kqps;
  return phase_start + static_cast<uint64_t>(static_cast<double>(requests - 1) * interarrival_ns);
}

struct ServeState {
  std::unique_ptr<Vm> vm;
  std::unique_ptr<CassandraService> service;
};

std::unique_ptr<ServeState> MakeServe(uint64_t seed) {
  auto s = std::make_unique<ServeState>();
  VmOptions options;
  options.heap = BenchHeap();
  options.gc = AdaptiveOptions(CollectorKind::kG1, GcWorkers());
  s->vm = std::make_unique<Vm>(options);
  CassandraConfig config;
  config.seed = DeriveSeed(seed, 2);
  s->service = std::make_unique<CassandraService>(s->vm.get(), config);
  return s;
}

void RunServe(RunResult* r, SpanLog* spans, uint64_t seed) {
  auto state = TimedSetup(r, spans, "setup.Vm+CassandraService", [&] { return MakeServe(seed); });
  Vm* vm = state->vm.get();
  TimingCoordinator timing(spans, nullptr);
  vm->set_gc_coordinator(&timing);

  // The table fill may already have collected; only the timed phases count.
  const TimedMark mark = Mark(vm);
  const Clock::time_point start = Clock::now();
  uint64_t read_start = 0;
  {
    ScopedSpan span(spans, "workloads.CassandraService::RunPhase");
    state->service->RunPhase(kServeWriteRequests, kServeKqps, 1.0);
  }
  {
    ScopedSpan span(spans, "workloads.CassandraService::RunPhase");
    read_start = vm->now_ns();
    state->service->RunPhase(kServeReadRequests, kServeKqps, 0.0);
  }
  r->host_s = SecondsSince(start);
  r->gc_host_ns = timing.host_ns();
  vm->set_gc_coordinator(nullptr);

  AddLayerCounters(r, {mark});
  r->layers["serve.backlog_ms"] =
      NsToMs(vm->now_ns() - LastDueNs(read_start, kServeReadRequests, kServeKqps));
  const Histogram* ops = vm->metrics().histogram("cassandra.op_latency_ns");
  if (ops != nullptr) r->ops = *ops;
  Check(r, ops != nullptr && ops->count() == kServeWriteRequests + kServeReadRequests,
        "served request count mismatch");
  VerifyHeap(r, vm, "serve", spans);
}

// The rate grid for max_kqps_at_slo: one fresh Vm per rate, a short write
// phase at the nominal rate, then the read phase at the grid rate. Stops
// after the first rate whose read phase ends further behind schedule than
// the phase is long (a saturated queue; no higher rate can recover).
std::string RunSweep(uint64_t seed) {
  std::string points;
  for (double kqps : kSweepKqps) {
    auto state = MakeServe(seed);
    state->service->RunPhase(kSweepWriteRequests, kServeKqps, 1.0);
    const uint64_t read_start = state->vm->now_ns();
    const LatencyResult read = state->service->RunPhase(kSweepReadRequests, kqps, 0.0);
    const double backlog_ms =
        NsToMs(state->vm->now_ns() - LastDueNs(read_start, kSweepReadRequests, kqps));
    const double sched_ms = NsToMs(LastDueNs(0, kSweepReadRequests, kqps));
    Json p;
    p.Num("kqps", kqps);
    p.Num("p50_ms", read.p50_ms);
    p.Num("p99_ms", read.p99_ms);
    p.Num("requests", static_cast<double>(read.requests));
    p.Num("backlog_ms", backlog_ms);
    p.Num("sched_ms", sched_ms);
    points += (points.empty() ? "" : ",") + p.Object();
    if (backlog_ms > sched_ms) break;
  }
  return "[" + points + "]";
}

struct FleetState {
  std::unique_ptr<FleetManager> fleet;
  uint32_t ids[3] = {};  // serving, batch, background.
  ServingDriver* serving = nullptr;
  BatchDriver* batch = nullptr;
  BackgroundDriver* background = nullptr;
  ServingConfig sc;
  BatchConfig bc;
  BackgroundConfig gc_cfg;
};

std::unique_ptr<FleetState> MakeFleet(uint64_t seed) {
  auto s = std::make_unique<FleetState>();
  s->fleet = std::make_unique<FleetManager>(FleetOptions());  // Arbitration + pause coordination.
  VmOptions base;
  base.heap = BenchHeap();
  base.gc = AllOptimizationsOptions(CollectorKind::kG1, GcWorkers());
  FleetTenantSpec serving_spec;
  serving_spec.name = "serving";
  serving_spec.tier = QosTier::kServing;
  serving_spec.bandwidth_budget_mbps = 800.0;
  serving_spec.vm = base;
  // Provisioned so steady-state serving fits in eden: the serving tail comes
  // from device contention, not from its own pauses.
  serving_spec.vm.heap.eden_regions = 512;
  FleetTenantSpec batch_spec;
  batch_spec.name = "batch";
  batch_spec.tier = QosTier::kBatch;
  batch_spec.bandwidth_budget_mbps = 400.0;
  batch_spec.vm = base;
  FleetTenantSpec background_spec;
  background_spec.name = "background";
  background_spec.tier = QosTier::kBackground;
  background_spec.bandwidth_budget_mbps = 150.0;
  background_spec.vm = base;
  s->ids[0] = s->fleet->AddTenant(serving_spec);
  s->ids[1] = s->fleet->AddTenant(batch_spec);
  s->ids[2] = s->fleet->AddTenant(background_spec);

  s->sc.total_requests = kFleetServingRequests;
  s->sc.seed = DeriveSeed(seed, 3);
  auto serving = std::make_unique<ServingDriver>(&s->fleet->vm(s->ids[0]), s->sc);
  s->serving = serving.get();
  s->bc.total_tasks = kFleetBatchTasks;
  s->bc.seed = DeriveSeed(seed, 4);
  auto batch = std::make_unique<BatchDriver>(&s->fleet->vm(s->ids[1]), s->bc);
  s->batch = batch.get();
  s->gc_cfg.total_allocation_bytes = kFleetBackgroundBytes;
  s->gc_cfg.seed = DeriveSeed(seed, 5);
  auto background = std::make_unique<BackgroundDriver>(&s->fleet->vm(s->ids[2]), s->gc_cfg);
  s->background = background.get();
  s->fleet->SetDriver(s->ids[0], std::move(serving));
  s->fleet->SetDriver(s->ids[1], std::move(batch));
  s->fleet->SetDriver(s->ids[2], std::move(background));
  return s;
}

void RunFleet(RunResult* r, SpanLog* spans, uint64_t seed) {
  auto state = TimedSetup(r, spans, "setup.FleetManager+tenants", [&] { return MakeFleet(seed); });
  FleetManager* fleet = state->fleet.get();
  // Time every tenant's CollectNow, forwarding to the fleet's pause scheduler
  // (the coordinator AddTenant installed).
  GcCoordinator* scheduler = fleet->options().pause_coordination ? fleet : nullptr;
  std::vector<std::unique_ptr<TimingCoordinator>> timings;
  std::vector<TimedMark> marks;
  for (uint32_t id : state->ids) {
    timings.push_back(std::make_unique<TimingCoordinator>(spans, scheduler));
    fleet->vm(id).set_gc_coordinator(timings.back().get());
    marks.push_back(Mark(&fleet->vm(id)));
  }

  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "fleet.FleetManager::Run");
    fleet->Run();
  }
  r->host_s = SecondsSince(start);
  for (size_t i = 0; i < timings.size(); ++i) {
    r->gc_host_ns += timings[i]->host_ns();
    fleet->vm(state->ids[i]).set_gc_coordinator(scheduler);
  }

  AddLayerCounters(r, marks);
  uint64_t windows = 0;
  for (uint32_t id : state->ids) {
    const std::string tier = QosTierName(fleet->tenant_tier(id));
    const ArbiterTenantStats& st = fleet->arbiter().stats(id);
    windows += st.windows_throttled;
    r->layers["fleet.stall_ms." + tier] = NsToMs(st.total_stall_ns);
    r->layers["fleet.device_mb." + tier] =
        static_cast<double>(fleet->device().tenant_counters(static_cast<uint8_t>(id)).total_bytes()) /
        kMiB;
  }
  r->layers["fleet.windows_throttled"] = static_cast<double>(windows);
  r->layers["fleet.pauses_deferred"] = static_cast<double>(fleet->pauses_deferred());
  r->layers["batch_tasks_per_s"] = state->batch->TasksPerSecond();
  const Histogram* ops = fleet->vm(state->ids[0]).metrics().histogram("serving.op_latency_ns");
  if (ops != nullptr) r->ops = *ops;
  Check(r, state->serving->served() == state->sc.total_requests,
        "serving tenant request count mismatch");
  Check(r, ops != nullptr && ops->count() == state->sc.total_requests,
        "serving latency sample count mismatch");
  Check(r, state->batch->tasks_done() == state->bc.total_tasks, "batch task count mismatch");
  Check(r, state->background->allocated_bytes() >= state->gc_cfg.total_allocation_bytes,
        "background allocation volume short");
  for (uint32_t id : state->ids) {
    VerifyHeap(r, &fleet->vm(id), fleet->tenant_name(id), spans);
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

int Usage() {
  std::fprintf(stderr,
               "usage: nvmgc_perfbench --workload churn|serve|tiered|fleet --seed N "
               "[--spans PATH] [--run-id ID] [--sweep]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans_path, run_id = "run";
  uint64_t seed = 0;
  bool have_seed = false, sweep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--sweep") {
      sweep = true;
    } else if (i + 1 < argc && a == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (i + 1 < argc && a == "--spans") {
      spans_path = argv[++i];
    } else if (i + 1 < argc && a == "--run-id") {
      run_id = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();

  Json out;
  out.Str("workload", workload);
  out.Num("seed", static_cast<double>(seed));
  out.Num("gc_workers", GcWorkers());
  if (sweep) {
    if (workload != "serve") return Usage();
    out.Raw("sweep", RunSweep(seed));
    std::printf("%s\n", out.Object().c_str());
    return 0;
  }

  SpanLog spans(!spans_path.empty());
  RunResult r;
  if (workload == "churn") {
    RunChurn(&r, &spans, seed);
  } else if (workload == "serve") {
    RunServe(&r, &spans, seed);
  } else if (workload == "tiered") {
    RunTiered(&r, &spans, seed);
  } else if (workload == "fleet") {
    RunFleet(&r, &spans, seed);
  } else {
    return Usage();
  }
  if (!spans_path.empty() && !spans.WriteChromeTrace(spans_path, run_id)) {
    r.checks_failed.push_back("cannot write " + spans_path);
  }

  out.Num("setup_s", r.setup_s);
  out.Num("host_s", r.host_s);
  out.Num("gc_host_s", NsToS(r.gc_host_ns));
  out.Num("peak_rss_mb", PeakRssMb());
  r.layers["gc.host_ns_per_copied_kb"] =
      r.layers["gc.copied_mb"] > 0
          ? static_cast<double>(r.gc_host_ns) / (r.layers["gc.copied_mb"] * 1024.0)
          : 0.0;
  r.layers["nvm.host_ns_per_access"] =
      r.layers["nvm.accesses"] > 0 ? r.host_s * 1e9 / r.layers["nvm.accesses"] : 0.0;
  Json layers;
  for (const auto& [k, v] : r.layers) layers.Num(k, v);
  out.Raw("layers", layers.Object());
  std::string pauses;
  for (double p : r.pauses_ms) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.9g", pauses.empty() ? "" : ",", p);
    pauses += buf;
  }
  out.Raw("pauses_ms", "[" + pauses + "]");
  if (r.ops.has_value()) {
    // Percentile ladder of the request latencies; run.py applies the
    // "highest percentile with >= 10 samples beyond it" rule on the count.
    Json ops;
    ops.Num("count", static_cast<double>(r.ops->count()));
    for (const auto& [name, p] : std::vector<std::pair<const char*, double>>{
             {"50", 50.0}, {"90", 90.0}, {"99", 99.0}, {"99.9", 99.9}, {"99.99", 99.99}}) {
      ops.Num(name, NsToMs(r.ops->Percentile(p)));
    }
    out.Raw("ops_ms", ops.Object());
  }
  std::string checks;
  for (const std::string& c : r.checks_failed) {
    checks += (checks.empty() ? "\"" : ",\"") + Json::Escape(c) + "\"";
  }
  out.Raw("checks_failed", "[" + checks + "]");
  std::printf("%s\n", out.Object().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace nvmgc

int main(int argc, char** argv) { return nvmgc::Main(argc, argv); }

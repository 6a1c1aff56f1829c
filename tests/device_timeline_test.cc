// Tests for the per-pause NVM bandwidth timeline (src/obs/device_timeline.h)
// and the per-region access heatmap (src/nvm/access_heatmap.h): unit-level
// bucket draining, and the integration-level claims the instrumentation
// exists to demonstrate — the optimized collector's read phase is
// read-dominated and its write-back phase write-dominated on the NVM device,
// and the write cache turns scattered survivor writes into contiguous
// streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/nvm/access_heatmap.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/memory_device.h"
#include "src/obs/device_timeline.h"
#include "src/obs/trace.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

// ---------- DeviceTimeline unit tests ----------

TEST(DeviceTimelineTest, DrainsChargedBucketsIntoRates) {
  MemoryDevice device(MakeOptaneProfile());
  const uint64_t bucket_ns = device.ledger().bucket_ns();
  SimClock clock;

  // Charge reads into bucket 10 and writes into bucket 11 (resetting the
  // clock each time so each charge lands at a controlled timestamp).
  clock.SetTime(10 * bucket_ns + 1);
  device.Access(&clock, SequentialRead(0x1000, 60000));
  clock.SetTime(11 * bucket_ns + 1);
  device.Access(&clock, SequentialWrite(0x2000, 30000));

  DeviceTimeline timeline(&device);
  const size_t n = timeline.SamplePhase(/*pause_id=*/1, GcPhaseKind::kRead,
                                        10 * bucket_ns, 12 * bucket_ns,
                                        /*active_threads=*/4);
  ASSERT_EQ(n, 2u);
  ASSERT_EQ(timeline.samples().size(), 2u);

  const TimelineSample& read_bucket = timeline.samples()[0];
  EXPECT_EQ(read_bucket.pause_id, 1u);
  EXPECT_EQ(read_bucket.phase, GcPhaseKind::kRead);
  EXPECT_EQ(read_bucket.time_ns, 10 * bucket_ns);
  // 60000 bytes over a 150 us bucket = 400 MB/s.
  EXPECT_DOUBLE_EQ(read_bucket.read_mbps, 60000.0 * 1000.0 / bucket_ns);
  EXPECT_DOUBLE_EQ(read_bucket.write_mbps, 0.0);
  EXPECT_DOUBLE_EQ(read_bucket.interleave, 0.0);
  EXPECT_GT(read_bucket.model_mbps, 0.0);

  const TimelineSample& write_bucket = timeline.samples()[1];
  EXPECT_EQ(write_bucket.time_ns, 11 * bucket_ns);
  EXPECT_DOUBLE_EQ(write_bucket.write_mbps, 30000.0 * 1000.0 / bucket_ns);
  EXPECT_DOUBLE_EQ(write_bucket.interleave, 1.0);
  EXPECT_EQ(timeline.missing_buckets(), 0u);
}

TEST(DeviceTimelineTest, BucketStartInRangeRuleExcludesPartialFirstBucket) {
  MemoryDevice device(MakeOptaneProfile());
  const uint64_t bucket_ns = device.ledger().bucket_ns();
  SimClock clock;
  clock.SetTime(10 * bucket_ns + 1);
  device.Access(&clock, SequentialRead(0x1000, 4096));

  DeviceTimeline timeline(&device);
  // Phase starts mid-bucket-10: bucket 10's start is outside [start, end), so
  // the (mutator-contaminated) partial bucket must not be sampled.
  const size_t n = timeline.SamplePhase(1, GcPhaseKind::kRead,
                                        10 * bucket_ns + bucket_ns / 2,
                                        11 * bucket_ns, 1);
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(timeline.samples().empty());
}

TEST(DeviceTimelineTest, EvictedEpochsCountAsMissing) {
  MemoryDevice device(MakeOptaneProfile());
  const uint64_t bucket_ns = device.ledger().bucket_ns();
  SimClock clock;
  // Charge once far in the future so the ring slots for early epochs hold
  // nothing; sampling an early uncharged window yields only missing buckets.
  clock.SetTime(1000 * bucket_ns);
  device.Access(&clock, SequentialRead(0x1000, 4096));

  DeviceTimeline timeline(&device);
  const size_t n = timeline.SamplePhase(1, GcPhaseKind::kRead, 0, 3 * bucket_ns, 1);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(timeline.missing_buckets(), 3u);
}

// ---------- AccessHeatmap unit tests ----------

TEST(AccessHeatmapTest, TracksPerRegionBytesAndDiscontiguity) {
  AccessHeatmap heatmap;
  EXPECT_FALSE(heatmap.configured());
  heatmap.Charge(SequentialWrite(0x1000, 64));  // Ignored while unconfigured.

  const uint64_t base = 0x10000;
  const uint64_t region_bytes = 4096;
  heatmap.AddArena(base, region_bytes, /*regions=*/4);
  ASSERT_TRUE(heatmap.configured());
  EXPECT_EQ(heatmap.regions(), 4u);

  // Region 0: a contiguous stream of three writes.
  heatmap.Charge(SequentialWrite(base, 128));
  heatmap.Charge(SequentialWrite(base + 128, 128));
  heatmap.Charge(SequentialWrite(base + 256, 128));
  // Region 1: two scattered 8-byte writes (both discontiguous after the 1st).
  heatmap.Charge(RandomWrite(base + region_bytes + 512, 8));
  heatmap.Charge(RandomWrite(base + region_bytes + 64, 8));
  // Region 2: reads only.
  heatmap.Charge(SequentialRead(base + 2 * region_bytes, 256));
  // Outside the arena: ignored.
  heatmap.Charge(SequentialWrite(base + 4 * region_bytes, 64));
  heatmap.Charge(SequentialWrite(base - 8, 8));

  const std::vector<RegionHeat> snap = heatmap.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].write_bytes, 384u);
  EXPECT_EQ(snap[0].write_ops, 3u);
  EXPECT_EQ(snap[0].discontiguous_writes, 0u);
  EXPECT_DOUBLE_EQ(snap[0].contiguous_write_fraction(), 1.0);
  EXPECT_EQ(snap[1].write_ops, 2u);
  // The first write opens the stream (no predecessor); the second jumps.
  EXPECT_EQ(snap[1].discontiguous_writes, 1u);
  EXPECT_EQ(snap[2].read_bytes, 256u);
  EXPECT_EQ(snap[2].write_ops, 0u);
  EXPECT_EQ(snap[3].write_ops, 0u);

  const HeatmapTotals totals = heatmap.Totals();
  EXPECT_EQ(totals.regions_written, 2u);
  EXPECT_EQ(totals.regions_read, 1u);
  EXPECT_EQ(totals.write_ops, 5u);
  EXPECT_EQ(totals.discontiguous_writes, 1u);
  EXPECT_EQ(totals.max_region_write_bytes, 384u);
}

TEST(AccessHeatmapTest, ExportMetricsPublishesAggregateGauges) {
  AccessHeatmap heatmap;
  heatmap.AddArena(0x1000, 4096, 2);
  heatmap.Charge(SequentialWrite(0x1000, 64));
  heatmap.Charge(SequentialWrite(0x1000 + 256, 64));  // Jumps: discontiguous.
  MetricsRegistry metrics;
  heatmap.ExportMetrics(&metrics, "device.heap");
  EXPECT_EQ(metrics.gauges().at("device.heap.heatmap.regions_written"), 1u);
  EXPECT_EQ(metrics.gauges().at("device.heap.heatmap.write_ops"), 2u);
  EXPECT_EQ(metrics.gauges().at("device.heap.heatmap.discontiguous_writes"), 1u);
  EXPECT_EQ(metrics.gauges().at("device.heap.heatmap.contiguous_write_permille"), 500u);
}

// ---------- Integration: a real collector run ----------

VmOptions TimelineVm(const GcOptions& gc) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 256;
  o.heap.dram_cache_regions = 64;
  o.heap.eden_regions = 48;
  o.heap.tenure_age = 8;  // Keep survivors young: no promotion traffic.
  o.gc = gc;
  o.trace_gc = true;
  return o;
}

GcOptions OptimizedGc() {
  return GcOptionsBuilder(AllOptimizationsOptions(CollectorKind::kG1, 4))
      .HeaderMapMinThreads(2)
      .Build();
}

// Allocates a ~1.5 MiB live graph and runs two collections.
void RunLiveGraphWorkload(Vm* vm) {
  Mutator* m = vm->CreateMutator();
  const KlassId refs = vm->heap().klasses().RegisterRefArray("Object[]");
  const KlassId blob = vm->heap().klasses().RegisterByteArray("byte[]");
  constexpr size_t kNodes = 1536;
  GlobalRoot table(*vm, m->Allocate({refs, kNodes}));
  for (size_t i = 0; i < kNodes; ++i) {
    m->WriteRef(table.Get(), i, m->Allocate({blob, 1024}));
  }
  vm->CollectNow();
  vm->CollectNow();
}

// The acceptance-criterion test: under the optimized collector the NVM-side
// read phase must be read-dominated and the write-back phase write-dominated.
TEST(DeviceTimelineIntegrationTest, PhasesHaveTheExpectedInterleaveDirection) {
  Vm vm(TimelineVm(OptimizedGc()));
  RunLiveGraphWorkload(&vm);

  const DeviceTimeline& timeline = vm.timeline();
  ASSERT_FALSE(timeline.samples().empty());
  // A phase's final bucket may start in the last sliver before end_ns with no
  // traffic charged into it yet (sampling runs synchronously at pause end),
  // so allow up to one missing bucket per sampled phase: 2 phases x 2 pauses.
  EXPECT_LE(timeline.missing_buckets(), 4u);

  double read_phase_read = 0.0, read_phase_write = 0.0;
  double wb_phase_read = 0.0, wb_phase_write = 0.0;
  size_t read_samples = 0, wb_samples = 0;
  for (const TimelineSample& s : timeline.samples()) {
    EXPECT_GE(s.interleave, 0.0);
    EXPECT_LE(s.interleave, 1.0);
    EXPECT_GT(s.model_mbps, 0.0);
    if (s.phase == GcPhaseKind::kRead) {
      read_phase_read += s.read_mbps;
      read_phase_write += s.write_mbps;
      ++read_samples;
    } else {
      wb_phase_read += s.read_mbps;
      wb_phase_write += s.write_mbps;
      ++wb_samples;
    }
  }
  ASSERT_GT(read_samples, 0u);
  ASSERT_GT(wb_samples, 0u);
  // Staged copies land in DRAM, so NVM traffic during copy/traverse is
  // reads; the write-back streams whole regions out.
  EXPECT_GT(read_phase_read, read_phase_write);
  EXPECT_GT(wb_phase_write, wb_phase_read);

  // Every sample falls inside its pause's phase window.
  const auto& cycles = vm.gc_stats().cycles();
  for (const TimelineSample& s : timeline.samples()) {
    ASSERT_GE(s.pause_id, 1u);
    ASSERT_LE(s.pause_id, cycles.size());
    const GcCycleStats& c = cycles[s.pause_id - 1];
    const uint64_t read_end = c.start_ns + c.read_phase_ns;
    if (s.phase == GcPhaseKind::kRead) {
      EXPECT_GE(s.time_ns, c.start_ns);
      EXPECT_LT(s.time_ns, read_end);
    } else {
      EXPECT_GE(s.time_ns, read_end);
      EXPECT_LT(s.time_ns, c.start_ns + c.pause_ns);
    }
  }
}

TEST(DeviceTimelineIntegrationTest, TracerCarriesCounterTracks) {
  Vm vm(TimelineVm(OptimizedGc()));
  RunLiveGraphWorkload(&vm);

  size_t counters = 0;
  bool saw_read = false, saw_write = false, saw_interleave = false, saw_model = false;
  for (const TraceEvent& e : vm.tracer().SortedEvents()) {
    if (e.kind != TraceEventKind::kCounter) {
      continue;
    }
    ++counters;
    EXPECT_EQ(e.tid, vm.tracer().control_tid());
    const std::string name = e.name;
    saw_read |= name == "nvm.read_mbps";
    saw_write |= name == "nvm.write_mbps";
    saw_interleave |= name == "nvm.interleave";
    saw_model |= name == "nvm.model_mbps";
  }
  EXPECT_EQ(counters, vm.timeline().samples().size() * 4);
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_interleave);
  EXPECT_TRUE(saw_model);

  // Counter events serialize as Chrome-trace "ph":"C" with a numeric value.
  std::string chrome;
  vm.tracer().AppendChromeEvents(&chrome, /*pid=*/1, "device_timeline_test");
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.find("\"nvm.read_mbps\""), std::string::npos);
  EXPECT_NE(chrome.find("\"args\":{\"value\":"), std::string::npos);
}

// The heatmap must show the write cache's sequentialization effect: the
// vanilla collector scatters forwarding-pointer installs across NVM regions,
// while the optimized one only writes NVM through contiguous region flushes.
TEST(AccessHeatmapIntegrationTest, WriteCacheSequentializesNvmWrites) {
  Vm vanilla(TimelineVm(VanillaOptions(CollectorKind::kG1, 4)));
  RunLiveGraphWorkload(&vanilla);
  Vm optimized(TimelineVm(OptimizedGc()));
  RunLiveGraphWorkload(&optimized);

  const HeatmapTotals van = vanilla.heap_device().heatmap().Totals();
  const HeatmapTotals opt = optimized.heap_device().heatmap().Totals();
  ASSERT_GT(van.write_ops, 0u);
  ASSERT_GT(opt.write_ops, 0u);
  EXPECT_GT(opt.contiguous_write_fraction(), van.contiguous_write_fraction());

  // The aggregates surface through the registry after each pause.
  const auto& gauges = optimized.metrics().gauges();
  EXPECT_TRUE(gauges.count("device.heap.heatmap.discontiguous_writes"));
  EXPECT_TRUE(gauges.count("device.heap.heatmap.contiguous_write_permille"));
  EXPECT_TRUE(gauges.count("device.dram.heatmap.write_ops"));
}

}  // namespace
}  // namespace nvmgc

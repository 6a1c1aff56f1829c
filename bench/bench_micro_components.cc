// Google-benchmark micro suite for the library's hot components: the device
// cost model, header-map operations, task queues, and the histogram. These
// measure HOST-side overhead (how expensive the simulation machinery itself
// is), complementing the figure benches, which report simulated time.

#include <vector>

#include <benchmark/benchmark.h>

#include "src/core/header_map.h"
#include "src/gc/task_queue.h"
#include "src/nvm/memory_device.h"
#include "src/util/histogram.h"
#include "src/util/random.h"

namespace nvmgc {
namespace {

void BM_DeviceRandomRead(benchmark::State& state) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.Access(&clock, RandomRead(0x1000, 64)));
  }
}
BENCHMARK(BM_DeviceRandomRead);

void BM_DeviceSequentialWrite(benchmark::State& state) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  const uint32_t bytes = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.Access(&clock, SequentialWrite(0x1000, bytes)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_DeviceSequentialWrite)->Arg(64)->Arg(4096)->Arg(65536);

void BM_DeviceMixEstimate(benchmark::State& state) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  for (int i = 0; i < 1000; ++i) {
    dev.Access(&clock, RandomRead(0x1000, 64));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.CurrentTotalBandwidthMbps(clock.now_ns()));
  }
}
BENCHMARK(BM_DeviceMixEstimate);

// An Optane device with a 1024-region heap arena bound to its heatmap, as a
// Vm's heap device has: every access pays the heatmap, the ledger and the
// counters, and threads charging it contend as GC workers do.
constexpr uint64_t kArenaBase = uint64_t{1} << 32;
constexpr uint64_t kArenaRegionBytes = 64 * 1024;
constexpr uint32_t kArenaRegions = 1024;

MemoryDevice& ArenaDevice() {
  struct Arena {
    Arena() { dev.heatmap().AddArena(kArenaBase, kArenaRegionBytes, kArenaRegions); }
    MemoryDevice dev{MakeOptaneProfile()};
  };
  static Arena arena;
  return arena.dev;
}

// A seeded GC-like mix: scattered object reads and 8-byte slot writes, plus
// sequential copy reads and (half non-temporal) copy writes that stream
// through a region.
std::vector<AccessDescriptor> ArenaAccessMix(uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<AccessDescriptor> mix;
  mix.reserve(count);
  uint64_t stream = kArenaBase + rng.NextBelow(kArenaRegions) * kArenaRegionBytes;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t region = rng.NextBelow(kArenaRegions);
    const uint64_t scattered = kArenaBase + region * kArenaRegionBytes +
                               rng.NextBelow(kArenaRegionBytes / 8) * 8;
    const uint32_t copy_bytes = 64 * static_cast<uint32_t>(1 + rng.NextBelow(8));
    if ((stream + copy_bytes - kArenaBase) % kArenaRegionBytes < copy_bytes) {
      stream = kArenaBase + region * kArenaRegionBytes;  // Region full: next one.
    }
    const uint64_t kind = rng.NextBelow(20);
    if (kind < 12) {
      mix.push_back(RandomRead(scattered, 8 * static_cast<uint32_t>(1 + rng.NextBelow(8))));
    } else if (kind < 15) {
      mix.push_back(RandomWrite(scattered, 8));
    } else if (kind < 18) {
      mix.push_back(SequentialRead(scattered, copy_bytes));
    } else {
      mix.push_back(kind == 18 ? SequentialWrite(stream, copy_bytes)
                               : NonTemporalWrite(stream, copy_bytes));
      stream += copy_bytes;
    }
  }
  return mix;
}

void BM_DeviceAccessArena(benchmark::State& state) {
  MemoryDevice& dev = ArenaDevice();
  const std::vector<AccessDescriptor> mix =
      ArenaAccessMix(1234 + static_cast<uint64_t>(state.thread_index()), 4096);
  SimClock clock;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.Access(&clock, mix[i]));
    i = (i + 1) % mix.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DeviceAccessArena)->Threads(1)->Threads(3)->UseRealTime();

void BM_HeaderMapPut(benchmark::State& state) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024 * 1024, 16, &dram);
  SimClock clock;
  Address key = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Put(key, key + 1, &clock, nullptr));
    key += 8;
  }
}
BENCHMARK(BM_HeaderMapPut);

void BM_HeaderMapGetHit(benchmark::State& state) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024 * 1024, 16, &dram);
  SimClock clock;
  for (Address key = 8; key < 8 * 10000; key += 8) {
    map.Put(key, key + 1, &clock, nullptr);
  }
  Random rng(5);
  for (auto _ : state) {
    const Address key = 8 * (1 + rng.NextBelow(9999));
    benchmark::DoNotOptimize(map.Get(key, &clock, nullptr));
  }
}
BENCHMARK(BM_HeaderMapGetHit);

void BM_HeaderMapGetMiss(benchmark::State& state) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024 * 1024, 16, &dram);
  SimClock clock;
  Address key = 0x100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(key, &clock, nullptr));
    key += 8;
  }
}
BENCHMARK(BM_HeaderMapGetMiss);

void BM_TaskQueuePushPop(benchmark::State& state) {
  TaskQueue queue;
  Address slot = 0;
  for (auto _ : state) {
    queue.Push(0x1000);
    queue.Pop(&slot);
    benchmark::DoNotOptimize(slot);
  }
}
BENCHMARK(BM_TaskQueuePushPop);

void BM_TaskQueueStealHalf(benchmark::State& state) {
  TaskQueue queue;
  std::vector<Address> buffer;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 64; ++i) {
      queue.Push(static_cast<Address>(i));
    }
    buffer.clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(queue.StealHalf(&buffer));
    state.PauseTiming();
    Address slot;
    while (queue.Pop(&slot)) {
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_TaskQueueStealHalf);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Random rng(3);
  for (auto _ : state) {
    h.Record(rng.NextBelow(1'000'000'000));
  }
  benchmark::DoNotOptimize(h.Percentile(99));
}
BENCHMARK(BM_HistogramRecord);

void BM_RandomNext(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RandomNext);

}  // namespace
}  // namespace nvmgc

BENCHMARK_MAIN();

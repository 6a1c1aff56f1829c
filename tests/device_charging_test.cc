// Tests for contention-free cost charging: per-thread counter shards, the
// bandwidth ledger's pending accumulators and owner-only caches, the
// heatmap's per-shard counts, and the model's table and reciprocal cost
// arithmetic. Parallel charges must sum exactly, settled buckets must hold
// every charged byte, a thread's samplers must see its own unpublished bytes
// and every publish since its window was cached, and a single-thread access
// stream must cost exactly what it cost when every charge went straight to
// the shared ledger and every cost was a quotient.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/nvm/access.h"
#include "src/nvm/access_heatmap.h"
#include "src/nvm/bandwidth_ledger.h"
#include "src/nvm/bandwidth_model.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/device_shard.h"
#include "src/nvm/memory_device.h"
#include "src/nvm/sim_clock.h"

namespace nvmgc {
namespace {

constexpr uint64_t kTenant0Base = 0x10000000;
constexpr uint64_t kTenant1Base = 0x20000000;
constexpr uint64_t kTenantBytes = 0x1000000;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One pseudo-random access over the two tenant ranges.
AccessDescriptor RandomAccess(uint64_t r) {
  static constexpr uint32_t kSizes[] = {8, 16, 64, 256, 4096, 65536};
  AccessDescriptor d;
  d.address = (((r >> 20) & 1) != 0 ? kTenant1Base : kTenant0Base) + (r >> 21) % kTenantBytes;
  d.bytes = kSizes[(r >> 40) % 6];
  d.op = (r >> 48) % 8 < 5 ? AccessOp::kRead : AccessOp::kWrite;
  d.pattern = ((r >> 52) & 1) != 0 ? AccessPattern::kSequential : AccessPattern::kRandom;
  d.non_temporal = d.op == AccessOp::kWrite && ((r >> 53) & 1) != 0;
  d.prefetched = d.op == AccessOp::kRead && ((r >> 54) & 1) != 0;
  return d;
}

void BindTwoTenants(MemoryDevice* dev) {
  dev->BindTenantRange(0, kTenant0Base, kTenantBytes);
  dev->BindTenantRange(1, kTenant1Base, kTenantBytes);
}

void Tally(const AccessDescriptor& d, DeviceCounters* c) {
  if (d.op == AccessOp::kRead) {
    c->read_bytes += d.bytes;
    ++c->read_ops;
  } else {
    c->write_bytes += d.bytes;
    ++c->write_ops;
    c->nt_write_bytes += d.non_temporal ? d.bytes : 0;
  }
}

void Accumulate(const DeviceCounters& from, DeviceCounters* to) {
  to->read_bytes += from.read_bytes;
  to->write_bytes += from.write_bytes;
  to->nt_write_bytes += from.nt_write_bytes;
  to->read_ops += from.read_ops;
  to->write_ops += from.write_ops;
}

// Runs `threads` x `accesses` seeded accesses against `dev` concurrently and
// returns the per-tenant traffic each thread tallied itself. Clocks wrap
// within the first 60 ledger epochs so every bucket is still resident
// afterwards. With `settle_concurrently`, one more thread keeps settling and
// sampling the device until the chargers finish.
std::vector<DeviceCounters> ChargeInParallel(MemoryDevice* dev, int threads, int accesses,
                                             bool settle_concurrently = false) {
  std::vector<std::vector<DeviceCounters>> per_thread(threads,
                                                      std::vector<DeviceCounters>(2));
  std::vector<std::thread> pool;
  const uint64_t bucket_ns = dev->ledger().bucket_ns();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t seed = 1000 + t;
      SimClock clock;
      for (int i = 0; i < accesses; ++i) {
        const uint64_t r = SplitMix64(&seed);
        if (clock.now_ns() >= 60 * bucket_ns) {
          clock.SetTime((r % 8) * bucket_ns);
        }
        const AccessDescriptor d = RandomAccess(r);
        dev->Access(&clock, d);
        Tally(d, &per_thread[t][d.address >= kTenant1Base ? 1 : 0]);
      }
    });
  }
  std::atomic<bool> charging{true};
  std::thread settler;
  if (settle_concurrently) {
    settler = std::thread([&] {
      while (charging.load()) {
        dev->SettleCharges();
        dev->CurrentMix(30 * bucket_ns);
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  charging.store(false);
  if (settler.joinable()) {
    settler.join();
  }
  std::vector<DeviceCounters> expected(2);
  for (const auto& tenants : per_thread) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      Accumulate(tenants[tenant], &expected[tenant]);
    }
  }
  return expected;
}

void ExpectCountersEq(const DeviceCounters& got, const DeviceCounters& want) {
  EXPECT_EQ(got.read_bytes, want.read_bytes);
  EXPECT_EQ(got.write_bytes, want.write_bytes);
  EXPECT_EQ(got.nt_write_bytes, want.nt_write_bytes);
  EXPECT_EQ(got.read_ops, want.read_ops);
  EXPECT_EQ(got.write_ops, want.write_ops);
}

TEST(DeviceChargingTest, ParallelCountersSumToTenantsAndExactTotals) {
  MemoryDevice dev(MakeOptaneProfile());
  BindTwoTenants(&dev);
  const std::vector<DeviceCounters> expected = ChargeInParallel(&dev, 4, 100'000);

  DeviceCounters total;
  DeviceCounters tenant_sum;
  for (uint8_t t = 0; t < 2; ++t) {
    ExpectCountersEq(dev.tenant_counters(t), expected[t]);
    Accumulate(expected[t], &total);
    Accumulate(dev.tenant_counters(t), &tenant_sum);
  }
  ExpectCountersEq(dev.counters(), total);
  ExpectCountersEq(dev.counters(), tenant_sum);
  EXPECT_EQ(total.read_ops + total.write_ops, 400'000u);
}

TEST(DeviceChargingTest, SettledBucketsHoldEveryChargedByte) {
  MemoryDevice dev(MakeOptaneProfile());
  BindTwoTenants(&dev);
  ChargeInParallel(&dev, 4, 100'000);
  dev.SettleCharges();

  BandwidthLedger::BucketSample sum;
  for (uint64_t epoch = 0; epoch < static_cast<uint64_t>(BandwidthLedger::ring_size());
       ++epoch) {
    BandwidthLedger::BucketSample b;
    if (dev.ledger().ReadBucket(epoch, &b)) {
      sum.read_bytes += b.read_bytes;
      sum.write_bytes += b.write_bytes;
      sum.nt_bytes += b.nt_bytes;
    }
  }
  const DeviceCounters c = dev.counters();
  EXPECT_EQ(sum.read_bytes, c.read_bytes);
  EXPECT_EQ(sum.write_bytes, c.write_bytes);
  EXPECT_EQ(sum.nt_bytes, c.nt_write_bytes);
}

TEST(DeviceChargingTest, SettlingWhileThreadsChargeLosesNoBytes) {
  // A settle racing a thread's epoch change may credit a few bytes to that
  // thread's previous epoch, but every byte lands in some resident bucket.
  MemoryDevice dev(MakeOptaneProfile());
  BindTwoTenants(&dev);
  ChargeInParallel(&dev, 3, 50'000, /*settle_concurrently=*/true);

  uint64_t settled = 0;
  for (uint64_t epoch = 0; epoch < static_cast<uint64_t>(BandwidthLedger::ring_size());
       ++epoch) {
    BandwidthLedger::BucketSample b;
    if (dev.ledger().ReadBucket(epoch, &b)) {
      settled += b.total_bytes();
    }
  }
  EXPECT_EQ(settled, dev.counters().total_bytes());
}

TEST(DeviceChargingTest, SamplersSeeOwnUnpublishedBytes) {
  BandwidthLedger ledger(1000);
  constexpr int kCharges = 10;
  static_assert(kCharges < static_cast<int>(BandwidthLedger::kPublishEvery));
  for (int i = 0; i < kCharges; ++i) {
    ledger.Charge(500, SequentialRead(0, 300), /*tenant=*/0);
    ledger.Charge(600, SequentialWrite(0, 100), /*tenant=*/1);
  }
  // The charging thread sees its own pending bytes...
  const BandwidthLedger::Mix mix = ledger.SampleMix(700);
  EXPECT_EQ(mix.window_bytes, 4000u);
  EXPECT_NEAR(mix.write_fraction, 0.25, 1e-12);
  const BandwidthLedger::TenantOccupancy occ = ledger.SampleTenantOccupancy(700, 1);
  EXPECT_EQ(occ.own_bytes, 1000u);
  EXPECT_EQ(occ.total_bytes, 4000u);
  EXPECT_EQ(occ.active_tenants, 2u);

  // ...another thread sees them only once they are published.
  auto sample_elsewhere = [&] {
    BandwidthLedger::Mix seen;
    std::thread([&] { seen = ledger.SampleMix(700); }).join();
    return seen;
  };
  EXPECT_EQ(sample_elsewhere().window_bytes, 0u);
  ledger.Settle();
  EXPECT_EQ(sample_elsewhere().window_bytes, 4000u);
  // Settling does not change what the charging thread sees.
  EXPECT_EQ(ledger.SampleMix(700).window_bytes, 4000u);
  EXPECT_EQ(ledger.SampleTenantOccupancy(700, 1).own_bytes, 1000u);
}

TEST(DeviceChargingTest, ChargesPublishEveryFixedCount) {
  BandwidthLedger ledger(1000);
  for (uint32_t i = 0; i < BandwidthLedger::kPublishEvery; ++i) {
    ledger.Charge(500, SequentialWrite(0, 10));
  }
  BandwidthLedger::Mix seen;
  std::thread([&] { seen = ledger.SampleMix(700); }).join();
  EXPECT_EQ(seen.window_bytes, 10u * BandwidthLedger::kPublishEvery);
}

// Costs of a seeded single-thread stream over both tenant ranges. One access
// in eight runs on a second clock 128 buckets ahead, so the two clocks' epochs
// alternate and, as the clocks drift, alias in the ledger ring; idle gaps
// cross many buckets; the active-thread count steps every 1000 accesses.
std::vector<uint64_t> CostSequence(MemoryDevice* dev, uint64_t seed, int accesses) {
  SimClock clocks[2];
  clocks[1].SetTime(128 * dev->ledger().bucket_ns());
  std::vector<uint64_t> costs;
  costs.reserve(accesses);
  std::unique_ptr<ScopedDeviceActivity> activity;
  uint64_t state = seed;
  for (int i = 0; i < accesses; ++i) {
    if (i % 1000 == 0) {
      activity.reset();
      activity = std::make_unique<ScopedDeviceActivity>(dev, 1 + (i / 1000) % 8);
    }
    const uint64_t r = SplitMix64(&state);
    SimClock& clock = clocks[(r & 7) == 0 ? 1 : 0];
    if (((r >> 3) & 63) == 0) {
      clock.Advance((r >> 16) % 2'000'000);
    }
    costs.push_back(dev->Access(&clock, RandomAccess(r)));
  }
  return costs;
}

uint64_t Fnv1a(const std::vector<uint64_t>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t v : values) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  return h;
}

uint64_t Sum(const std::vector<uint64_t>& values) {
  uint64_t s = 0;
  for (uint64_t v : values) {
    s += v;
  }
  return s;
}

// Golden values captured from the model that published every charge straight
// into the shared ledger: per-thread accumulation must not change a single
// thread's costs by one nanosecond.
TEST(DeviceChargingTest, GoldenSingleThreadCostSequence) {
  MemoryDevice single(MakeOptaneProfile());
  const std::vector<uint64_t> single_costs = CostSequence(&single, 42, 10'000);
  EXPECT_EQ(Sum(single_costs), 267318065u);
  EXPECT_EQ(Fnv1a(single_costs), 0xe1246cf1d1b5e0c7ull);

  MemoryDevice shared(MakeOptaneProfile());
  BindTwoTenants(&shared);
  const std::vector<uint64_t> shared_costs = CostSequence(&shared, 43, 10'000);
  EXPECT_EQ(Sum(shared_costs), 436287804u);
  EXPECT_EQ(Fnv1a(shared_costs), 0x9431d1bc8bada7d8ull);
}

// Runs `body` on a new thread and waits for it.
template <typename Fn>
void OnNewThread(Fn body) {
  std::thread(body).join();
}

TEST(DeviceChargingTest, ReusedLeaseSeesBytesPublishedSinceItsOwnerCached) {
  BandwidthLedger ledger(1000);
  ledger.Charge(500, SequentialRead(0, 300));
  ledger.Settle();

  // A sampler caches the window, then exits and returns its shard.
  uint32_t first_shard = 0;
  OnNewThread([&] {
    first_shard = ThisThreadDeviceShard().index;
    EXPECT_EQ(ledger.SampleMix(700).window_bytes, 300u);
  });

  // A peer publishes more bytes into the same window...
  ledger.Charge(600, SequentialWrite(0, 100));
  ledger.Settle();

  // ...and the next thread, which leases the same shard and so inherits the
  // cached window, sees them.
  OnNewThread([&] {
    EXPECT_EQ(ThisThreadDeviceShard().index, first_shard);
    const BandwidthLedger::Mix mix = ledger.SampleMix(700);
    EXPECT_EQ(mix.window_bytes, 400u);
    EXPECT_NEAR(mix.write_fraction, 0.25, 1e-12);
  });
}

TEST(DeviceChargingTest, PeerPublishInvalidatesWarmWindowCache) {
  BandwidthLedger ledger(1000);
  std::atomic<int> stage{0};
  auto wait_for = [&](int s) {
    while (stage.load(std::memory_order_acquire) != s) {
      std::this_thread::yield();
    }
  };
  std::thread sampler([&] {
    // Own pending bytes, then a warm cache: sampled twice at one key.
    ledger.Charge(500, SequentialRead(0, 40));
    EXPECT_EQ(ledger.SampleMix(700).window_bytes, 40u);
    EXPECT_EQ(ledger.SampleMix(710).window_bytes, 40u);
    stage.store(1, std::memory_order_release);
    wait_for(2);
    // The peer's kPublishEvery-th charge published its bytes.
    const BandwidthLedger::Mix mix = ledger.SampleMix(720);
    EXPECT_EQ(mix.window_bytes, 40u + 10u * BandwidthLedger::kPublishEvery);
    EXPECT_EQ(ledger.SampleMix(730).window_bytes, mix.window_bytes);
  });
  wait_for(1);
  for (uint32_t i = 0; i < BandwidthLedger::kPublishEvery; ++i) {
    ledger.Charge(600, SequentialWrite(0, 10));
  }
  stage.store(2, std::memory_order_release);
  sampler.join();
}

// Per-region traffic one thread expects to have charged.
struct ExpectedHeat {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t discontiguous_writes = 0;
  uint64_t last_write_end = 0;
};

// `threads` threads charge seeded accesses over one configured arena through
// MemoryDevice::Access. Every thread reads any region but writes only the
// regions r with r % threads == its index, so each region's write stream,
// and with it the discontiguous count, is the same in every interleaving.
void ExpectHeatmapExactUnderConcurrency(int threads, int accesses) {
  constexpr uint64_t kBase = 0x40000000;
  constexpr uint64_t kRegionBytes = 4096;
  constexpr uint32_t kRegions = 1024;
  MemoryDevice dev(MakeOptaneProfile());
  dev.heatmap().AddArena(kBase, kRegionBytes, kRegions);

  std::vector<std::vector<ExpectedHeat>> per_thread(threads,
                                                    std::vector<ExpectedHeat>(kRegions));
  std::vector<DeviceCounters> tallies(threads);
  // Every thread leases its shard before any starts charging, so no lease is
  // returned and reused midway, and the threads sharing a shard overlap.
  std::atomic<int> leased{0};
  std::atomic<int> on_shared_shard{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (!ThisThreadDeviceShard().exclusive) {
        on_shared_shard.fetch_add(1);
      }
      leased.fetch_add(1);
      while (leased.load() < threads) {
        std::this_thread::yield();
      }
      std::vector<ExpectedHeat>& heat = per_thread[t];
      uint64_t seed = 7000 + t;
      SimClock clock;
      for (int i = 0; i < accesses; ++i) {
        const uint64_t r = SplitMix64(&seed);
        AccessDescriptor d;
        d.bytes = 8u << ((r >> 8) % 5);
        uint32_t region = static_cast<uint32_t>((r >> 16) % kRegions);
        if ((r & 3) == 0) {
          d.op = AccessOp::kWrite;
          region = region - region % threads + t;
          if (region >= kRegions) {
            region = t;
          }
          // Half of the writes continue the region's stream.
          const bool continues = ((r >> 4) & 1) != 0 && heat[region].last_write_end != 0 &&
                                 heat[region].last_write_end + d.bytes <=
                                     kBase + (region + 1) * kRegionBytes;
          d.address = continues ? heat[region].last_write_end
                                : kBase + region * kRegionBytes + (r >> 32) % (kRegionBytes - 64);
          ExpectedHeat& h = heat[region];
          h.write_bytes += d.bytes;
          ++h.write_ops;
          if (h.last_write_end != 0 && h.last_write_end != d.address) {
            ++h.discontiguous_writes;
          }
          h.last_write_end = d.address + d.bytes;
        } else {
          d.address = kBase + region * kRegionBytes + (r >> 32) % kRegionBytes;
          heat[region].read_bytes += d.bytes;
          ++heat[region].read_ops;
        }
        dev.Access(&clock, d);
        Tally(d, &tallies[t]);
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  // Shards 0 .. kDeviceShards - 2 are exclusive; the rest share the last.
  EXPECT_GE(on_shared_shard.load(), threads - static_cast<int>(kDeviceShards - 1));

  std::vector<ExpectedHeat> want(kRegions);
  DeviceCounters want_counters;
  for (int t = 0; t < threads; ++t) {
    Accumulate(tallies[t], &want_counters);
    for (uint32_t region = 0; region < kRegions; ++region) {
      const ExpectedHeat& h = per_thread[t][region];
      want[region].read_bytes += h.read_bytes;
      want[region].write_bytes += h.write_bytes;
      want[region].read_ops += h.read_ops;
      want[region].write_ops += h.write_ops;
      want[region].discontiguous_writes += h.discontiguous_writes;
    }
  }
  ExpectCountersEq(dev.counters(), want_counters);

  const std::vector<RegionHeat> snap = dev.heatmap().Snapshot();
  ASSERT_EQ(snap.size(), kRegions);
  HeatmapTotals want_totals;
  for (uint32_t region = 0; region < kRegions; ++region) {
    const ExpectedHeat& w = want[region];
    EXPECT_EQ(snap[region].region, region);
    EXPECT_EQ(snap[region].read_bytes, w.read_bytes) << "region " << region;
    EXPECT_EQ(snap[region].write_bytes, w.write_bytes) << "region " << region;
    EXPECT_EQ(snap[region].read_ops, w.read_ops) << "region " << region;
    EXPECT_EQ(snap[region].write_ops, w.write_ops) << "region " << region;
    EXPECT_EQ(snap[region].discontiguous_writes, w.discontiguous_writes) << "region " << region;
    want_totals.regions_read += w.read_ops > 0 ? 1 : 0;
    want_totals.regions_written += w.write_ops > 0 ? 1 : 0;
    want_totals.write_ops += w.write_ops;
    want_totals.discontiguous_writes += w.discontiguous_writes;
    want_totals.max_region_write_bytes = std::max(want_totals.max_region_write_bytes,
                                                  w.write_bytes);
  }
  const HeatmapTotals totals = dev.heatmap().Totals();
  EXPECT_EQ(totals.regions_read, want_totals.regions_read);
  EXPECT_EQ(totals.regions_written, want_totals.regions_written);
  EXPECT_EQ(totals.write_ops, want_totals.write_ops);
  EXPECT_EQ(totals.discontiguous_writes, want_totals.discontiguous_writes);
  EXPECT_EQ(totals.max_region_write_bytes, want_totals.max_region_write_bytes);
}

TEST(DeviceChargingTest, HeatmapCountsExactlyWithExclusiveShards) {
  ExpectHeatmapExactUnderConcurrency(4, 50'000);
}

TEST(DeviceChargingTest, HeatmapCountsExactlyWithSharedShards) {
  // More threads than kDeviceShards: the surplus shares one shard.
  static_assert(40 > kDeviceShards);
  ExpectHeatmapExactUnderConcurrency(40, 20'000);
}

// ---------- Cost arithmetic: tables and reciprocal form ----------
//
// The reference below evaluates the model in its defining quotient form:
// every ceiling from its formula, and the access's bandwidth term as bytes
// over the thread's share. The sweep
// draws ~1M mixes x op x pattern x prefetch x threads 1-16; a reciprocal
// cost that is merely rounded ulps away (e.g. 0.5 ns off on a pure
// non-temporal DRAM window) fails it, which the golden sequences miss.

double RefReadCeiling(const DeviceProfile& p, uint32_t threads) {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double knee = static_cast<double>(p.read_saturation_threads);
  const double ramp = std::min<double>(t, knee) / knee;
  return p.peak_read_bw_mbps * ramp;
}

double RefWriteCeiling(const DeviceProfile& p, uint32_t threads, double nt_share) {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double peak = p.peak_write_bw_mbps * (1.0 - nt_share) + p.peak_write_nt_bw_mbps * nt_share;
  const double knee = static_cast<double>(p.write_saturation_threads);
  const double ramp = std::min<double>(t, knee) / knee;
  double ceiling = peak * ramp;
  if (t > knee) {
    const double over = static_cast<double>(t) - knee;
    ceiling *= std::max(0.25, 1.0 - p.write_contention_decline * over);
  }
  return ceiling;
}

double RefTotalMbps(const DeviceProfile& p, const MixState& mix) {
  const double w = std::clamp(mix.write_fraction, 0.0, 1.0);
  const double nt_share = w > 1e-9 ? std::clamp(mix.nt_write_fraction / w, 0.0, 1.0) : 0.0;
  const double per_byte = (1.0 - w) / RefReadCeiling(p, mix.active_threads) +
                          w / RefWriteCeiling(p, mix.active_threads, nt_share);
  const double base = 1.0 / per_byte;
  const double nt = std::clamp(mix.nt_write_fraction, 0.0, w);
  const double regular_w = std::max(0.0, w - nt);
  const double effective_w = regular_w + nt * p.nt_interference_discount;
  const double mix_term = 4.0 * effective_w * std::max(0.0, 1.0 - w);
  return base * (1.0 / (1.0 + p.mix_interference * mix_term * mix_term));
}

double LatencyNs(const DeviceProfile& p, const AccessDescriptor& d) {
  if (d.pattern == AccessPattern::kSequential) {
    return p.sequential_line_ns * static_cast<double>((d.bytes + 63) / 64);
  }
  double latency = d.op == AccessOp::kRead ? static_cast<double>(p.random_read_latency_ns)
                                           : static_cast<double>(p.random_write_latency_ns);
  if (d.prefetched) {
    latency *= 1.0 - p.prefetch_hide_fraction;
  }
  return latency;
}

uint64_t RefCostNs(const DeviceProfile& p, const MixState& mix, const AccessDescriptor& d,
                   double tenant_share) {
  const double pattern = d.pattern == AccessPattern::kSequential ? 1.0
                         : d.op == AccessOp::kRead               ? p.random_read_bw_fraction
                                                                 : p.random_write_bw_fraction;
  double share = RefTotalMbps(p, mix) / static_cast<double>(mix.active_threads) * pattern;
  if (tenant_share != 1.0) {
    share *= tenant_share;
  }
  share = std::max(1.0, share);
  const double bw_ns = static_cast<double>(d.bytes) * 1000.0 / share;
  return static_cast<uint64_t>(LatencyNs(p, d) + bw_ns + 0.5);
}

TEST(CostArithmeticTest, ThreadTablesEqualClosedForm) {
  for (const DeviceProfile& p : {MakeDramProfile(), MakeOptaneProfile()}) {
    const BandwidthModel model(p);
    for (uint32_t t = 0; t <= BandwidthModel::kThreadTableSize + 8; ++t) {
      EXPECT_EQ(model.ReadCeilingMbps(t), RefReadCeiling(p, t)) << p.name << " threads " << t;
      for (double nt : {0.0, 0.3, 0.75, 1.0}) {
        EXPECT_EQ(model.WriteCeilingMbps(t, nt), RefWriteCeiling(p, t, nt))
            << p.name << " threads " << t << " nt " << nt;
      }
      for (double w : {0.0, 0.2, 0.5, 1.0}) {
        const MixState mix{w, w / 2, std::max(1u, t)};
        EXPECT_EQ(model.TotalBandwidthMbps(mix), RefTotalMbps(p, mix))
            << p.name << " threads " << t << " w " << w;
      }
    }
  }
}

TEST(CostArithmeticTest, ReciprocalCostEqualsDivisionForm) {
  // Mixes are byte-count ratios, as the ledger forms them, so exact values
  // (pure phases, w == nt, halves) come up as often as they do in a run.
  static constexpr uint32_t kSizes[] = {8, 16, 24, 48, 64, 256, 4096, 65536};
  uint64_t compared = 0;
  for (const DeviceProfile& p : {MakeDramProfile(), MakeOptaneProfile()}) {
    const BandwidthModel model(p);
    uint64_t seed = 2024;
    for (int m = 0; m < 4096; ++m) {
      const uint64_t r = SplitMix64(&seed);
      const uint64_t scale = uint64_t{1} << (r % 24);
      const uint64_t reads = (r >> 8) % 5 == 0 ? 0 : SplitMix64(&seed) % scale;
      const uint64_t writes = (r >> 12) % 5 == 0 ? 0 : SplitMix64(&seed) % scale;
      const uint64_t nt = (r >> 16) % 3 == 0 ? writes : (r >> 18) % 2 == 0 ? 0
                                                      : SplitMix64(&seed) % (writes + 1);
      MixState mix;
      if (reads + writes > 0) {
        mix.write_fraction = static_cast<double>(writes) / static_cast<double>(reads + writes);
        mix.nt_write_fraction = static_cast<double>(nt) / static_cast<double>(reads + writes);
      }
      for (uint32_t threads = 1; threads <= 16; ++threads) {
        mix.active_threads = threads;
        for (AccessOp op : {AccessOp::kRead, AccessOp::kWrite}) {
          for (AccessPattern pattern : {AccessPattern::kRandom, AccessPattern::kSequential}) {
            for (bool prefetched : {false, true}) {
              AccessDescriptor d;
              const uint64_t b = SplitMix64(&seed);
              d.bytes = (b & 1) != 0 ? kSizes[(b >> 1) % 8]
                                     : 1 + static_cast<uint32_t>((b >> 4) % (1u << 20));
              d.op = op;
              d.pattern = pattern;
              d.prefetched = prefetched;
              // One access in eight is on a shared device.
              const double tenant_share =
                  (b >> 40) % 8 == 0 ? static_cast<double>((b >> 44) % 1000 + 1) / 1000.0 : 1.0;
              ASSERT_EQ(model.AccessCostNs(mix, d, tenant_share), RefCostNs(p, mix, d, tenant_share))
                  << p.name << " reads " << reads << " writes " << writes << " nt " << nt
                  << " threads " << threads << " bytes " << d.bytes << " share " << tenant_share;
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 1'000'000u);
}

}  // namespace
}  // namespace nvmgc

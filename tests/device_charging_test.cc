// Tests for contention-free cost charging: per-thread counter shards and the
// bandwidth ledger's pending accumulators. Parallel charges must sum exactly,
// settled buckets must hold every charged byte, a thread's samplers must see
// its own unpublished bytes, and a single-thread access stream must cost
// exactly what it cost when every charge went straight to the shared ledger.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/nvm/access.h"
#include "src/nvm/bandwidth_ledger.h"
#include "src/nvm/device_profile.h"
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

}  // namespace
}  // namespace nvmgc

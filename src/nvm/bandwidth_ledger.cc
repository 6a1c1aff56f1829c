#include "src/nvm/bandwidth_ledger.h"

#include <thread>

namespace nvmgc {

BandwidthLedger::BandwidthLedger(uint64_t bucket_ns) : bucket_ns_(bucket_ns) {}

BandwidthLedger::Bucket* BandwidthLedger::BucketFor(uint64_t epoch) const {
  Bucket& b = ring_[epoch % kRingSize];
  uint64_t seen = b.epoch.load(std::memory_order_acquire);
  while (seen != epoch) {
    if (seen == kClaiming) {
      std::this_thread::yield();  // Another publisher is resetting the slot.
      seen = b.epoch.load(std::memory_order_acquire);
      continue;
    }
    // Claim/reset the slot for this epoch. Publishers of the same epoch wait
    // out the reset, so no bytes are dropped; a publisher of an aliasing
    // epoch (kRingSize buckets away) that raced past the claim adds its bytes
    // to the new epoch, acceptable for a mix estimator.
    if (b.epoch.compare_exchange_weak(seen, kClaiming, std::memory_order_acquire)) {
      for (std::atomic<uint64_t>& bytes : b.bytes) {
        bytes.store(0, std::memory_order_relaxed);
      }
      b.epoch.store(epoch, std::memory_order_release);
      break;
    }
  }
  return &b;
}

BandwidthLedger::ChargePoint BandwidthLedger::PointFor(uint64_t now_ns) const {
  const DeviceShardRef shard = ThisThreadDeviceShard();
  if (!shard.exclusive) {
    return ChargePoint{shard, now_ns / bucket_ns_};
  }
  Pending& p = pending_[shard.index];
  // One unsigned compare covers both ends of [epoch_start, + bucket_ns).
  if (now_ns - p.epoch_start >= bucket_ns_) {
    p.cached_epoch = now_ns / bucket_ns_;
    p.epoch_start = p.cached_epoch * bucket_ns_;
  }
  return ChargePoint{shard, p.cached_epoch};
}

void BandwidthLedger::Charge(const ChargePoint& at, const AccessDescriptor& d, uint8_t tenant) {
  Pending& p = pending_[at.shard.index];
  if (p.epoch.load(std::memory_order_relaxed) != at.epoch) {
    Publish(&p);
    p.epoch.store(at.epoch, std::memory_order_relaxed);
  }
  if (d.op == AccessOp::kRead) {
    ShardAdd(p.charged[kRead], d.bytes, at.shard);
  } else {
    ShardAdd(p.charged[kWrite], d.bytes, at.shard);
    if (d.non_temporal) {
      ShardAdd(p.charged[kNonTemporal], d.bytes, at.shard);
    }
  }
  ShardAdd(p.charged[kTenant0 + tenant % kMaxTenants], d.bytes, at.shard);
  // Release: a publisher that reads this count (acquire) sees the bytes.
  const uint64_t charges = p.charges.load(std::memory_order_relaxed) + 1;
  p.charges.store(charges, std::memory_order_release);
  if (charges >= kPublishEvery) {
    Publish(&p);
  }
}

void BandwidthLedger::Publish(Pending* p) const {
  if (p->charges.load(std::memory_order_relaxed) == 0) {
    return;
  }
  while (p->publishing.exchange(true, std::memory_order_acquire)) {
    std::this_thread::yield();  // Another thread is settling this shard.
  }
  if (p->charges.exchange(0, std::memory_order_acquire) != 0) {
    // Claim the bucket even for zero-byte charges, as a direct charge would.
    Bucket* b = BucketFor(p->epoch.load(std::memory_order_relaxed));
    for (uint32_t c = 0; c < kCounters; ++c) {
      const uint64_t charged = p->charged[c].load(std::memory_order_relaxed);
      const uint64_t published = p->published[c].load(std::memory_order_relaxed);
      if (charged != published) {
        b->bytes[c].fetch_add(charged - published, std::memory_order_relaxed);
        // Release: a sampler that loads this (acquire) then reads `charged`
        // at least as large, so its pending difference never underflows.
        p->published[c].store(charged, std::memory_order_release);
      }
    }
    // After the bytes: a sampler that sees this generation sees them too.
    generation_.fetch_add(1, std::memory_order_release);
  }
  p->publishing.store(false, std::memory_order_release);
}

void BandwidthLedger::Settle() const {
  for (Pending& p : pending_) {
    if (p.charges.load(std::memory_order_relaxed) != 0) {
      Publish(&p);
    }
  }
}

const BandwidthLedger::Bucket* BandwidthLedger::WindowSlot(uint64_t epoch, uint64_t own_epoch,
                                                           bool* add_own) const {
  *add_own = false;
  if (own_epoch != kNoEpoch && own_epoch % kRingSize == epoch % kRingSize) {
    if (own_epoch != epoch) {
      return nullptr;
    }
    *add_own = true;
  }
  const Bucket& b = ring_[epoch % kRingSize];
  return b.epoch.load(std::memory_order_relaxed) == epoch ? &b : nullptr;
}

BandwidthLedger::TenantOccupancy BandwidthLedger::SampleTenantOccupancy(const ChargePoint& at,
                                                                        uint8_t tenant) const {
  const Pending& own = pending_[at.shard.index];
  const uint64_t own_epoch = PendingEpoch(own);
  uint64_t per_tenant[kMaxTenants] = {};
  for (uint64_t i = 0; i < kWindowBuckets && i <= at.epoch; ++i) {
    bool add_own = false;
    const Bucket* b = WindowSlot(at.epoch - i, own_epoch, &add_own);
    for (uint32_t t = 0; t < kMaxTenants; ++t) {
      if (b != nullptr) {
        per_tenant[t] += b->bytes[kTenant0 + t].load(std::memory_order_relaxed);
      }
      if (add_own) {
        per_tenant[t] += PendingBytes(own, kTenant0 + t);
      }
    }
  }
  TenantOccupancy occ;
  occ.active_tenants = 0;
  for (uint32_t t = 0; t < kMaxTenants; ++t) {
    occ.total_bytes += per_tenant[t];
    if (per_tenant[t] > 0) {
      ++occ.active_tenants;
    }
  }
  occ.own_bytes = per_tenant[tenant % kMaxTenants];
  if (occ.own_bytes == 0) {
    // The sampling tenant is about to issue traffic: it is active even when
    // its window history is empty.
    ++occ.active_tenants;
  }
  if (occ.active_tenants == 0) {
    occ.active_tenants = 1;
  }
  return occ;
}

bool BandwidthLedger::ReadBucket(uint64_t epoch, BucketSample* out) const {
  Settle();
  const Bucket& b = ring_[epoch % kRingSize];
  if (b.epoch.load(std::memory_order_relaxed) != epoch) {
    return false;
  }
  out->read_bytes = b.bytes[kRead].load(std::memory_order_relaxed);
  out->write_bytes = b.bytes[kWrite].load(std::memory_order_relaxed);
  out->nt_bytes = b.bytes[kNonTemporal].load(std::memory_order_relaxed);
  return true;
}

BandwidthLedger::WindowBytes BandwidthLedger::PublishedWindow(uint64_t epoch,
                                                              uint64_t own_epoch) const {
  WindowBytes sum;
  for (uint64_t i = 0; i < kWindowBuckets && i <= epoch; ++i) {
    bool add_own = false;
    if (const Bucket* b = WindowSlot(epoch - i, own_epoch, &add_own)) {
      sum.reads += b->bytes[kRead].load(std::memory_order_relaxed);
      sum.writes += b->bytes[kWrite].load(std::memory_order_relaxed);
      sum.nt += b->bytes[kNonTemporal].load(std::memory_order_relaxed);
    }
  }
  return sum;
}

BandwidthLedger::WindowBytes BandwidthLedger::PublishedWindow(const ChargePoint& at,
                                                              uint64_t own_epoch) const {
  if (!at.shard.exclusive) {
    return PublishedWindow(at.epoch, own_epoch);
  }
  Pending& own = pending_[at.shard.index];
  // Read the generation before the ring: a publish this sampler misses
  // bumps it afterwards and so invalidates the cached window.
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (own.window_epoch != at.epoch || own.window_own_epoch != own_epoch ||
      own.window_generation != generation) {
    own.window = PublishedWindow(at.epoch, own_epoch);
    own.window_epoch = at.epoch;
    own.window_own_epoch = own_epoch;
    own.window_generation = generation;
  }
  return own.window;
}

BandwidthRecorder::BandwidthRecorder(uint64_t bucket_ns, size_t max_buckets)
    : bucket_ns_(bucket_ns), cells_(max_buckets) {}

void BandwidthRecorder::Start(uint64_t now_ns) {
  start_ns_ = now_ns;
  for (auto& cell : cells_) {
    cell.read_bytes.store(0, std::memory_order_relaxed);
    cell.write_bytes.store(0, std::memory_order_relaxed);
  }
}

void BandwidthRecorder::Charge(uint64_t now_ns, const AccessDescriptor& d) {
  if (now_ns < start_ns_) {
    return;
  }
  const uint64_t idx = (now_ns - start_ns_) / bucket_ns_;
  if (idx >= cells_.size()) {
    return;  // Past the recording horizon; drop.
  }
  if (d.op == AccessOp::kRead) {
    cells_[idx].read_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
  } else {
    cells_[idx].write_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
  }
}

std::vector<BandwidthSample> BandwidthRecorder::Series() const {
  std::vector<BandwidthSample> out;
  // MB/s = bytes / bucket_seconds / 1e6.
  const double to_mbps = 1e9 / static_cast<double>(bucket_ns_) / 1e6;
  size_t last_nonzero = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].read_bytes.load(std::memory_order_relaxed) != 0 ||
        cells_[i].write_bytes.load(std::memory_order_relaxed) != 0) {
      last_nonzero = i + 1;
    }
  }
  out.reserve(last_nonzero);
  for (size_t i = 0; i < last_nonzero; ++i) {
    BandwidthSample s;
    s.time_ns = i * bucket_ns_;
    s.read_mbps =
        static_cast<double>(cells_[i].read_bytes.load(std::memory_order_relaxed)) * to_mbps;
    s.write_mbps =
        static_cast<double>(cells_[i].write_bytes.load(std::memory_order_relaxed)) * to_mbps;
    out.push_back(s);
  }
  return out;
}

}  // namespace nvmgc

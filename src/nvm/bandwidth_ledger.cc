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
      b.read_bytes.store(0, std::memory_order_relaxed);
      b.write_bytes.store(0, std::memory_order_relaxed);
      b.nt_bytes.store(0, std::memory_order_relaxed);
      for (auto& t : b.tenant_bytes) {
        t.store(0, std::memory_order_relaxed);
      }
      b.epoch.store(epoch, std::memory_order_release);
      break;
    }
  }
  return &b;
}

void BandwidthLedger::Charge(uint64_t now_ns, const AccessDescriptor& d, uint8_t tenant) {
  Pending& p = pending_[ThisThreadDeviceShard()];
  const uint64_t epoch = now_ns / bucket_ns_;
  if (p.epoch.load(std::memory_order_relaxed) != epoch) {
    Publish(&p);
    p.epoch.store(epoch, std::memory_order_relaxed);
  }
  if (d.op == AccessOp::kRead) {
    p.read_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
  } else {
    p.write_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
    if (d.non_temporal) {
      p.nt_bytes.fetch_add(d.bytes, std::memory_order_relaxed);
    }
  }
  p.tenant_bytes[tenant % kMaxTenants].fetch_add(d.bytes, std::memory_order_relaxed);
  const uint64_t charges = p.charges.load(std::memory_order_relaxed) + 1;
  p.charges.store(charges, std::memory_order_relaxed);
  if (charges >= kPublishEvery) {
    Publish(&p);
  }
}

void BandwidthLedger::Publish(Pending* p) const {
  if (p->charges.load(std::memory_order_relaxed) == 0 ||
      p->charges.exchange(0, std::memory_order_relaxed) == 0) {
    return;
  }
  // Claim the bucket even for zero-byte charges, as a direct charge would.
  Bucket* b = BucketFor(p->epoch.load(std::memory_order_relaxed));
  auto move = [](std::atomic<uint64_t>& from, std::atomic<uint64_t>& to) {
    if (const uint64_t bytes = from.exchange(0, std::memory_order_relaxed); bytes != 0) {
      to.fetch_add(bytes, std::memory_order_relaxed);
    }
  };
  move(p->read_bytes, b->read_bytes);
  move(p->write_bytes, b->write_bytes);
  move(p->nt_bytes, b->nt_bytes);
  for (uint32_t t = 0; t < kMaxTenants; ++t) {
    move(p->tenant_bytes[t], b->tenant_bytes[t]);
  }
}

void BandwidthLedger::Settle() const {
  for (Pending& p : pending_) {
    Publish(&p);
  }
}

const BandwidthLedger::Pending* BandwidthLedger::OwnPending() const {
  const Pending& p = pending_[ThisThreadDeviceShard()];
  return p.charges.load(std::memory_order_relaxed) == 0 ? nullptr : &p;
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

BandwidthLedger::TenantOccupancy BandwidthLedger::SampleTenantOccupancy(
    uint64_t now_ns, uint8_t tenant, int window_buckets) const {
  const uint64_t current = now_ns / bucket_ns_;
  const Pending* own = OwnPending();
  const uint64_t own_epoch = own != nullptr ? own->epoch.load(std::memory_order_relaxed) : kNoEpoch;
  uint64_t per_tenant[kMaxTenants] = {};
  for (int i = 0; i < window_buckets; ++i) {
    if (current < static_cast<uint64_t>(i)) {
      break;
    }
    bool add_own = false;
    const Bucket* b = WindowSlot(current - static_cast<uint64_t>(i), own_epoch, &add_own);
    for (uint32_t t = 0; t < kMaxTenants; ++t) {
      if (b != nullptr) {
        per_tenant[t] += b->tenant_bytes[t].load(std::memory_order_relaxed);
      }
      if (add_own) {
        per_tenant[t] += own->tenant_bytes[t].load(std::memory_order_relaxed);
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
  out->read_bytes = b.read_bytes.load(std::memory_order_relaxed);
  out->write_bytes = b.write_bytes.load(std::memory_order_relaxed);
  out->nt_bytes = b.nt_bytes.load(std::memory_order_relaxed);
  return true;
}

BandwidthLedger::Mix BandwidthLedger::SampleMix(uint64_t now_ns, int window_buckets) const {
  const uint64_t current = now_ns / bucket_ns_;
  const Pending* own = OwnPending();
  const uint64_t own_epoch = own != nullptr ? own->epoch.load(std::memory_order_relaxed) : kNoEpoch;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t nt = 0;
  for (int i = 0; i < window_buckets; ++i) {
    if (current < static_cast<uint64_t>(i)) {
      break;
    }
    bool add_own = false;
    const Bucket* b = WindowSlot(current - static_cast<uint64_t>(i), own_epoch, &add_own);
    if (b != nullptr) {
      reads += b->read_bytes.load(std::memory_order_relaxed);
      writes += b->write_bytes.load(std::memory_order_relaxed);
      nt += b->nt_bytes.load(std::memory_order_relaxed);
    }
    if (add_own) {
      reads += own->read_bytes.load(std::memory_order_relaxed);
      writes += own->write_bytes.load(std::memory_order_relaxed);
      nt += own->nt_bytes.load(std::memory_order_relaxed);
    }
  }
  Mix mix;
  const uint64_t total = reads + writes;
  mix.window_bytes = total;
  if (total > 0) {
    mix.write_fraction = static_cast<double>(writes) / static_cast<double>(total);
    mix.nt_write_fraction = static_cast<double>(nt) / static_cast<double>(total);
  }
  return mix;
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

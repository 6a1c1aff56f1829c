#include "src/nvm/bandwidth_model.h"

#include <algorithm>
#include <cmath>

namespace nvmgc {

BandwidthModel::BandwidthModel(const DeviceProfile& profile) : profile_(profile) {
  for (uint32_t t = 0; t < kThreadTableSize; ++t) {
    read_ceiling_[t] = profile_.peak_read_bw_mbps * ReadRamp(t);
    write_ramp_[t] = WriteRamp(t);
    write_decline_[t] = WriteDecline(t);
  }
  for (AccessOp op : {AccessOp::kRead, AccessOp::kWrite}) {
    for (AccessPattern pattern : {AccessPattern::kRandom, AccessPattern::kSequential}) {
      inverse_pattern_[static_cast<int>(op)][static_cast<int>(pattern)] =
          1.0 / PatternFraction(op, pattern);
    }
    const double latency = static_cast<double>(
        op == AccessOp::kRead ? profile_.random_read_latency_ns : profile_.random_write_latency_ns);
    random_latency_ns_[static_cast<int>(op)][0] = latency;
    random_latency_ns_[static_cast<int>(op)][1] = latency * (1.0 - profile_.prefetch_hide_fraction);
  }
}

double BandwidthModel::ReadCeilingMbps(uint32_t threads) const {
  if (threads < kThreadTableSize) {
    return read_ceiling_[threads];
  }
  return profile_.peak_read_bw_mbps * ReadRamp(threads);
}

double BandwidthModel::ReadRamp(uint32_t threads) const {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double knee = static_cast<double>(profile_.read_saturation_threads);
  return std::min<double>(t, knee) / knee;
}

double BandwidthModel::WriteRamp(uint32_t threads) const {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double knee = static_cast<double>(profile_.write_saturation_threads);
  return std::min<double>(t, knee) / knee;
}

double BandwidthModel::WriteDecline(uint32_t threads) const {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double knee = static_cast<double>(profile_.write_saturation_threads);
  if (t > knee) {
    // Beyond the knee additional writers degrade on-DIMM write combining.
    const double over = static_cast<double>(t) - knee;
    return std::max(0.25, 1.0 - profile_.write_contention_decline * over);
  }
  return 1.0;  // Multiplying by 1.0 is exact: below the knee there is no decline.
}

double BandwidthModel::WriteCeilingMbps(uint32_t threads, double nt_share) const {
  const double peak = profile_.peak_write_bw_mbps * (1.0 - nt_share) +
                      profile_.peak_write_nt_bw_mbps * nt_share;
  if (threads < kThreadTableSize) {
    return peak * write_ramp_[threads] * write_decline_[threads];
  }
  return peak * WriteRamp(threads) * WriteDecline(threads);
}

double BandwidthModel::MixSlowdown(double write_fraction, double nt_write_fraction) const {
  // Only the *mixing* of writes into reads is penalized: the term vanishes at
  // pure-read (w == 0) and pure-write (w == 1) phases, which is exactly why
  // the paper splits copy-and-traverse into read-mostly and write-only
  // sub-phases. Non-temporal write bytes count with a discount because they
  // bypass the cache hierarchy and the DIMM read-modify-write path.
  const double regular_w = std::max(0.0, write_fraction - nt_write_fraction);
  const double effective_w = regular_w + nt_write_fraction * profile_.nt_interference_discount;
  const double mix_term = 4.0 * effective_w * std::max(0.0, 1.0 - write_fraction);
  // Quadratic shape: a small residual write share costs little, but the
  // collapse deepens rapidly as reads and writes approach parity — matching
  // the measured Optane bandwidth-vs-mix curves, which fall off a cliff
  // between ~10% and ~50% writes.
  return 1.0 + profile_.mix_interference * mix_term * mix_term;
}

double BandwidthModel::PerByte(double w, double nt_write_fraction, uint32_t threads) const {
  // Skipping the division when no write is non-temporal is exact: 0 / w == 0.
  const double nt_share_of_writes = w > 1e-9 && nt_write_fraction != 0.0
                                        ? std::clamp(nt_write_fraction / w, 0.0, 1.0)
                                        : 0.0;
  // Harmonic blend: time to move a byte is the mix-weighted time per direction.
  return (1.0 - w) / ReadCeilingMbps(threads) +
         w / WriteCeilingMbps(threads, nt_share_of_writes);
}

double BandwidthModel::TotalBandwidthMbps(const MixState& mix) const {
  const double w = std::clamp(mix.write_fraction, 0.0, 1.0);
  const double base = 1.0 / PerByte(w, mix.nt_write_fraction, mix.active_threads);
  return base * (1.0 / MixSlowdown(w, std::clamp(mix.nt_write_fraction, 0.0, w)));
}

double BandwidthModel::UsPerByte(const MixState& mix, AccessOp op, AccessPattern pattern) const {
  const double w = std::clamp(mix.write_fraction, 0.0, 1.0);
  const double us = PerByte(w, mix.nt_write_fraction, mix.active_threads) *
                    MixSlowdown(w, std::clamp(mix.nt_write_fraction, 0.0, w)) *
                    static_cast<double>(mix.active_threads) *
                    inverse_pattern_[static_cast<int>(op)][static_cast<int>(pattern)];
  return std::min(1.0, us);
}

double BandwidthModel::LatencyNs(const AccessDescriptor& d) const {
  if (d.pattern == AccessPattern::kRandom) {
    return random_latency_ns_[static_cast<int>(d.op)][d.prefetched ? 1 : 0];
  }
  const uint32_t lines = (d.bytes + 63) / 64;
  return profile_.sequential_line_ns * static_cast<double>(lines);
}

uint64_t BandwidthModel::AccessCostNs(const MixState& mix, const AccessDescriptor& d,
                                      double tenant_share) const {
  const double latency_ns = LatencyNs(d);
  // 1 MB/s == 1e6 bytes / 1e9 ns, so ns = bytes * 1000 / MBps.
  const double bytes_x1000 = static_cast<double>(d.bytes) * 1000.0;
  if (tenant_share == 1.0) {
    const double ns = latency_ns + bytes_x1000 * UsPerByte(mix, d.op, d.pattern) + 0.5;
    // The two forms take 11 roundings between them plus two sums each, so
    // they differ by under 2^-49 of `ns`: farther than 2^-40 of `ns` from an
    // integer, both truncate to the same one.
    const int64_t truncated = static_cast<int64_t>(ns);  // Costs stay far below 2^63 ns.
    const double whole = static_cast<double>(truncated);
    const double slack = ns * 0x1p-40;
    if (ns - whole > slack && whole + 1.0 - ns > slack) {
      return static_cast<uint64_t>(truncated);
    }
  }
  double share_mbps = TotalBandwidthMbps(mix) / static_cast<double>(mix.active_threads) *
                      PatternFraction(d.op, d.pattern) * tenant_share;
  share_mbps = std::max(1.0, share_mbps);
  return static_cast<uint64_t>(latency_ns + bytes_x1000 / share_mbps + 0.5);
}

double BandwidthModel::TenantShareFraction(double own_fraction, uint32_t active_tenants) const {
  if (active_tenants <= 1) {
    return 1.0;
  }
  const double t = static_cast<double>(active_tenants);
  const double f = std::clamp(own_fraction, 0.0, 1.0);
  const double share = std::min(1.0, std::max(f, 1.0 / t));
  return share / (1.0 + profile_.tenant_interference * (t - 1.0));
}

double BandwidthModel::PatternFraction(AccessOp op, AccessPattern pattern) const {
  if (pattern == AccessPattern::kSequential) {
    return 1.0;
  }
  return op == AccessOp::kRead ? profile_.random_read_bw_fraction
                               : profile_.random_write_bw_fraction;
}

}  // namespace nvmgc

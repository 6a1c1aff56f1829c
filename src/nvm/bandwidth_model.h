// Analytical bandwidth model for a simulated memory device.
//
// The model computes the total bandwidth a device can sustain given the recent
// access mix. It encodes the three Optane phenomena the paper's design builds
// on:
//   1. asymmetric ceilings  (peak read >> peak write),
//   2. interference         (mixing writes into a read stream collapses the
//                            total well below the harmonic blend),
//   3. early write-side thread saturation (and mild decline beyond the knee).
// Non-temporal stores use a higher write ceiling and contribute less to the
// interference term, which is what makes the write cache's sequential
// write-back and asynchronous flushing profitable.

#ifndef NVMGC_SRC_NVM_BANDWIDTH_MODEL_H_
#define NVMGC_SRC_NVM_BANDWIDTH_MODEL_H_

#include <cstdint>

#include "src/nvm/access.h"
#include "src/nvm/device_profile.h"

namespace nvmgc {

// Snapshot of the recent traffic mix on a device (fractions of bytes).
struct MixState {
  double write_fraction = 0.0;     // All writes / total.
  double nt_write_fraction = 0.0;  // Non-temporal writes / total.
  uint32_t active_threads = 1;
};

class BandwidthModel {
 public:
  // Thread counts below this read their ceiling terms from tables built at
  // construction; larger counts evaluate the same formula directly.
  static constexpr uint32_t kThreadTableSize = 64;

  explicit BandwidthModel(const DeviceProfile& profile);

  // Total sustainable bandwidth (MB/s) for the given mix.
  double TotalBandwidthMbps(const MixState& mix) const;

  // Nanoseconds charged for access `d` at `mix` when the accessing tenant may
  // claim `tenant_share` of the device (1.0 on an unshared device): the
  // latency term plus d.bytes over this thread's bandwidth share,
  //   TotalBandwidthMbps(mix) / active_threads * PatternFraction * tenant_share
  // floored at 1 MB/s, rounded to the nearest ns.
  //
  // With tenant_share == 1.0 the cost is first taken in reciprocal form
  // (bytes times microseconds per byte), which needs four divisions fewer.
  // That differs from the quotient by a few ulps, which can move the rounded
  // result only when the sum lies within that much of a rounding boundary;
  // there, and for any other tenant_share, the quotient is evaluated, so the
  // result always equals the quotient form's.
  uint64_t AccessCostNs(const MixState& mix, const AccessDescriptor& d,
                        double tenant_share) const;

  // Read-direction ceiling at `threads` concurrent readers (MB/s).
  double ReadCeilingMbps(uint32_t threads) const;

  // Write-direction ceiling at `threads` concurrent writers (MB/s);
  // `nt_share` in [0,1] is the fraction of write bytes using streaming stores.
  double WriteCeilingMbps(uint32_t threads, double nt_share) const;

  // Multiplier (0,1] applied to a single access's bandwidth share based on its
  // own spatial pattern.
  double PatternFraction(AccessOp op, AccessPattern pattern) const;

  // Fraction of the device total one tenant can claim when `active_tenants`
  // tenants have traffic in the recent ledger window. The documented curve
  // (tests assert it exactly):
  //
  //   share(f, T) = 1.0                                         for T <= 1
  //   share(f, T) = min(1, max(f, 1/T)) / (1 + kappa * (T - 1)) for T >= 2
  //
  // where f is the tenant's byte fraction of the window and kappa is
  // DeviceProfile::tenant_interference. The max(f, 1/T) floor guarantees an
  // idle-ish tenant still gets an equal share the moment it issues traffic
  // (the device schedules per-request, not per-history); the 1/(1+kappa(T-1))
  // factor is the efficiency the device loses to interleaving the streams —
  // the co-location penalty measured on real Optane (see PAPERS.md: HPC-NVM
  // characterization; Optane system evaluation).
  double TenantShareFraction(double own_fraction, uint32_t active_tenants) const;

  const DeviceProfile& profile() const { return profile_; }

 private:
  // 1 + mix_interference * m^2 for the given write mix: the reciprocal of the
  // interference multiplier (0,1] that TotalBandwidthMbps applies.
  double MixSlowdown(double write_fraction, double nt_write_fraction) const;
  // The ceilings' thread terms: ramp to the knee, then (writes) decline.
  double ReadRamp(uint32_t threads) const;
  double WriteRamp(uint32_t threads) const;
  double WriteDecline(uint32_t threads) const;
  // Harmonic time per byte (1 / MB/s) of a w-write mix at `threads`.
  double PerByte(double w, double nt_write_fraction, uint32_t threads) const;
  // Microseconds per byte at an unshared thread's share: the reciprocal of
  // the share AccessCostNs divides by, capped at 1 us (the 1 MB/s floor).
  double UsPerByte(const MixState& mix, AccessOp op, AccessPattern pattern) const;
  // The latency term of AccessCostNs.
  double LatencyNs(const AccessDescriptor& d) const;

  DeviceProfile profile_;
  // Indexed by thread count: ReadCeilingMbps, WriteRamp and WriteDecline.
  double read_ceiling_[kThreadTableSize];
  double write_ramp_[kThreadTableSize];
  double write_decline_[kThreadTableSize];
  // 1 / PatternFraction, indexed by [op][pattern].
  double inverse_pattern_[2][2];
  // Random-access latency, indexed by [op][prefetched].
  double random_latency_ns_[2][2];
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_BANDWIDTH_MODEL_H_

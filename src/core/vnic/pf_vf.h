// PF/VF manager: the SR-IOV-style control plane of the vNIC front-end.
//
// The physical function (this manager) owns every virtual function a tenant
// NF sees. Each VF bundles the per-tenant datapath state — RX descriptor
// ring, completion queue, policed doorbell (ring.h) — plus quotas and abuse
// accounting. Matched ingress frames route through the owning VF before the
// bounded VPP queue (snic_device.cc): no posted descriptor means the frame
// drops at the edge, a full completion queue means the tenant is squatting,
// and a VPP that refuses admission leaves the descriptor in place so the
// ring visibly stops draining — ring-full is how VPP backpressure reaches
// the tenant, and per-VF quotas are the admission policy.
//
// Abuse detection is cumulative and deterministic: each hostile move
// (doorbell floods, CQ squatting, malformed/stale descriptors, quota churn)
// increments a per-kind strike counter, and the first crossing of the VF's
// strike threshold latches the verdict and fires the abuse callback exactly
// once. The callback layer (bench/tests) routes that to
// mgmt::Supervisor::ReportCrash(kVnicAbuse); the Supervisor's restart
// callback then calls RebindVf (which resets the VF), and repeat offenders
// end in QuarantineVf — at which point the VF's traffic drops at the edge.
// The core library deliberately does not link mgmt, so the coupling stays a
// callback.
//
// Determinism: all state advances on simulated cycles via AdvanceClockTo;
// VFs live in ordered maps (see the snic_lint no-unordered-iteration rule);
// the only randomness is the fault plane's own seeded streams, and every
// fault site is scoped to the owning NF id, so faults aimed at one tenant
// structurally cannot perturb another tenant's VF.

#ifndef SNIC_CORE_VNIC_PF_VF_H_
#define SNIC_CORE_VNIC_PF_VF_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "src/common/status.h"
#include "src/core/vnic/descriptor.h"
#include "src/core/vnic/ring.h"
#include "src/core/vpp.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"

namespace snic::core::vnic {

// Per-VF resource quotas and abuse thresholds.
struct VfQuota {
  uint32_t ring_slots = 32;
  uint32_t cq_slots = 32;
  // Upper bound on bytes of buffer space posted (and not yet delivered)
  // at once; the admission policy of the overload plane at the device edge.
  uint64_t posted_bytes_limit = 256 * 1024;
  DoorbellPolicy doorbell;
  // Strikes of one abuse kind before the VF is flagged (latched per kind
  // until the next reset).
  uint32_t abuse_threshold = 64;
};

// The hostile moves the front-end can attribute (docs/ROBUSTNESS.md attack
// taxonomy). Values are stable: they ride in trace args and JSON verdicts.
enum class VfAbuse : uint8_t {
  kDoorbellFlood = 0,   // policer bounces
  kCqSquat = 1,         // deliveries dropped against a full completion queue
  kBadDescriptor = 2,   // malformed descriptor or stale/replayed ring index
  kQuotaChurn = 3,      // posted-byte quota rejections
};
inline constexpr int kNumVfAbuseKinds = 4;

// Manager-level per-VF counters (ring/CQ/doorbell internals keep their own
// stats structs).
struct VfStats {
  uint64_t posts_accepted = 0;
  uint64_t post_rejected_decode = 0;
  uint64_t post_rejected_stale = 0;
  uint64_t post_rejected_full = 0;
  uint64_t post_rejected_quota = 0;
  uint64_t doorbell_rings = 0;
  uint64_t doorbell_rejected = 0;
  uint64_t delivered = 0;
  uint64_t dropped_no_descriptor = 0;
  uint64_t dropped_oversize = 0;
  uint64_t dropped_cq_full = 0;
  uint64_t dropped_vpp = 0;  // VPP backpressure; descriptor retained
  uint64_t dropped_quarantined = 0;
  uint64_t harvested = 0;
  uint64_t resets = 0;
  uint64_t abuse_flags = 0;
  uint64_t strikes[kNumVfAbuseKinds] = {0, 0, 0, 0};
  uint64_t max_delivery_wait_cycles = 0;
};

class PfVfManager {
 public:
  // (vf_id, kind) on the first threshold crossing of `kind` since the last
  // reset. Invoked from inside the tenant/device call that struck; keep it
  // cheap and non-reentrant (report, don't reset from within).
  using AbuseCallback = std::function<void(uint32_t, VfAbuse)>;

  // Binds obs::DefaultRegistry() (each VF's `vnic.*{vf=...}` series are
  // created there by CreateVf) and, when one is installed,
  // obs::CurrentTraceRing() for the vnic.* span instants.
  PfVfManager();
  PfVfManager(const PfVfManager&) = delete;
  PfVfManager& operator=(const PfVfManager&) = delete;

  // --- PF control plane ---------------------------------------------------
  // Creates a VF for `nf_id` delivering into `vpp` (not owned; must outlive
  // the VF or be rebound). One VF per NF: a second create for a live NF id
  // fails with kAlreadyOwned.
  Result<uint32_t> CreateVf(uint64_t nf_id, VirtualPacketPipeline* vpp,
                            const VfQuota& quota);
  // Points an existing VF at a restarted NF (new id, new VPP) and resets
  // it: clears rings, refills the doorbell, releases churn reservations,
  // and unlatches abuse verdicts. The Supervisor's restart path.
  Status RebindVf(uint32_t vf_id, uint64_t new_nf_id,
                  VirtualPacketPipeline* new_vpp);
  // Stops serving the VF: every delivery drops at the edge (counted).
  // Tenant-side calls fail with kPermissionDenied. RebindVf's reset does not
  // lift it.
  Status QuarantineVf(uint32_t vf_id);

  // --- Tenant-side API (MMIO surface) -------------------------------------
  // Decodes and posts a block of encoded descriptors. Strict: the first
  // malformed descriptor rejects the rest of the block.
  Status PostDescriptors(uint32_t vf_id, std::span<const uint8_t> raw);
  // One doorbell write. False when the policer (or quarantine) bounced it.
  bool RingDoorbell(uint32_t vf_id);
  // Harvests the oldest completion; kNotFound when none pending.
  Result<CompletionQueue::Completion> Harvest(uint32_t vf_id);

  // --- Device-side API ----------------------------------------------------
  // Routes one matched ingress frame through the VF (snic_device.cc).
  Status DeliverToVf(uint32_t vf_id, net::Packet packet);
  Result<uint32_t> VfForNf(uint64_t nf_id) const;

  void AdvanceClockTo(uint64_t cycle);
  uint64_t now() const { return now_; }

  // --- Introspection ------------------------------------------------------
  size_t vf_count() const { return vfs_.size(); }
  bool IsQuarantined(uint32_t vf_id) const;
  uint64_t NfOf(uint32_t vf_id) const;  // 0 when unknown
  const VfStats& StatsOf(uint32_t vf_id) const;
  uint32_t RingOccupancy(uint32_t vf_id) const;
  uint32_t CqPending(uint32_t vf_id) const;

  void SetAbuseCallback(AbuseCallback callback);

 private:
  struct Vf {
    uint64_t nf_id = 0;
    VirtualPacketPipeline* vpp = nullptr;
    VfQuota quota;
    RxDescriptorRing ring;
    CompletionQueue cq;
    Doorbell doorbell;
    uint64_t posted_bytes = 0;
    uint64_t churn_penalty_bytes = 0;  // kVnicQuotaChurn phantom reservation
    bool quarantined = false;
    bool abuse_latched[kNumVfAbuseKinds] = {false, false, false, false};
    VfStats stats;

    // Metric handles, labelled {vf=<id>}.
    obs::Counter* m_posted;
    obs::Counter* m_post_rejected;
    obs::Counter* m_rings;
    obs::Counter* m_rings_rejected;
    obs::Counter* m_delivered;
    obs::Counter* m_drops_no_desc;
    obs::Counter* m_drops_cq_full;
    obs::Counter* m_drops_vpp;
    obs::Counter* m_drops_quarantined;
    obs::Counter* m_harvested;
    obs::Counter* m_resets;
    obs::Counter* m_abuse;

    Vf(const VfQuota& q, obs::MetricRegistry& registry, uint32_t vf_id);
  };

  Vf* Find(uint32_t vf_id);
  const Vf* Find(uint32_t vf_id) const;
  void Strike(uint32_t vf_id, Vf& vf, VfAbuse kind);

  std::map<uint32_t, std::unique_ptr<Vf>> vfs_;
  std::map<uint64_t, uint32_t> nf_to_vf_;
  uint32_t next_vf_id_ = 1;
  uint64_t now_ = 0;
  AbuseCallback abuse_callback_;
  obs::MetricRegistry* registry_;
  obs::TraceRing* ring_;
  // Interned span/arg ids (set while ring_ is non-null).
  uint16_t span_post_ = 0;
  uint16_t span_doorbell_ = 0;
  uint16_t span_deliver_ = 0;
  uint16_t span_harvest_ = 0;
  uint16_t span_reset_ = 0;
  uint16_t span_abuse_ = 0;
  uint16_t arg_vf_ = 0;
  uint16_t arg_residency_ = 0;
  uint16_t arg_cause_ = 0;
};

}  // namespace snic::core::vnic

#endif  // SNIC_CORE_VNIC_PF_VF_H_

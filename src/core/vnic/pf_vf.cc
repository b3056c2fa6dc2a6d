#include "src/core/vnic/pf_vf.h"

#include <string>

#include "src/fault/fault.h"
#include "src/obs/span_names.h"

namespace snic::core::vnic {

namespace {
// Placeholder stats returned for unknown VF ids so the const accessors stay
// total (callers are expected to hold valid ids; tests use this leniency).
const VfStats kEmptyVfStats;
}  // namespace

PfVfManager::Vf::Vf(const VfQuota& q, obs::MetricRegistry& registry,
                     uint32_t vf_id)
    : quota(q), ring(q.ring_slots), cq(q.cq_slots), doorbell(q.doorbell) {
  const std::string id = std::to_string(vf_id);
  m_posted = &registry.GetCounter("vnic.posted", {{"vf", id}});
  m_post_rejected = &registry.GetCounter("vnic.post_rejected", {{"vf", id}});
  m_rings = &registry.GetCounter("vnic.doorbell.rings", {{"vf", id}});
  m_rings_rejected =
      &registry.GetCounter("vnic.doorbell.rejected", {{"vf", id}});
  m_delivered = &registry.GetCounter("vnic.delivered", {{"vf", id}});
  m_drops_no_desc = &registry.GetCounter(
      "vnic.drops", {{"vf", id}, {"reason", "no_descriptor"}});
  m_drops_cq_full = &registry.GetCounter(
      "vnic.drops", {{"vf", id}, {"reason", "cq_full"}});
  m_drops_vpp = &registry.GetCounter(
      "vnic.drops", {{"vf", id}, {"reason", "vpp_backpressure"}});
  m_drops_quarantined = &registry.GetCounter(
      "vnic.drops", {{"vf", id}, {"reason", "quarantined"}});
  m_harvested = &registry.GetCounter("vnic.harvested", {{"vf", id}});
  m_resets = &registry.GetCounter("vnic.vf.resets", {{"vf", id}});
  m_abuse = &registry.GetCounter("vnic.abuse.flagged", {{"vf", id}});
}

PfVfManager::PfVfManager()
    : registry_(&obs::DefaultRegistry()), ring_(obs::CurrentTraceRing()) {
  if (ring_ != nullptr) {
    span_post_ = ring_->Intern(obs::spans::kVnicDescPost);
    span_doorbell_ = ring_->Intern(obs::spans::kVnicDoorbellRing);
    span_deliver_ = ring_->Intern(obs::spans::kVnicDeliver);
    span_harvest_ = ring_->Intern(obs::spans::kVnicHarvest);
    span_reset_ = ring_->Intern(obs::spans::kVnicVfReset);
    span_abuse_ = ring_->Intern(obs::spans::kVnicAbuseFlagged);
    arg_vf_ = ring_->Intern(obs::spans::kArgVf);
    arg_residency_ = ring_->Intern(obs::spans::kArgResidency);
    arg_cause_ = ring_->Intern(obs::spans::kArgCause);
  }
}

PfVfManager::Vf* PfVfManager::Find(uint32_t vf_id) {
  const auto it = vfs_.find(vf_id);
  return it == vfs_.end() ? nullptr : it->second.get();
}

const PfVfManager::Vf* PfVfManager::Find(uint32_t vf_id) const {
  const auto it = vfs_.find(vf_id);
  return it == vfs_.end() ? nullptr : it->second.get();
}

Result<uint32_t> PfVfManager::CreateVf(uint64_t nf_id,
                                       VirtualPacketPipeline* vpp,
                                       const VfQuota& quota) {
  if (vpp == nullptr) {
    return InvalidArgument("vf: null pipeline");
  }
  if (nf_to_vf_.count(nf_id) != 0) {
    return AlreadyOwned("vf: NF already has a virtual function");
  }
  const uint32_t vf_id = next_vf_id_++;
  auto vf = std::make_unique<Vf>(quota, *registry_, vf_id);
  vf->nf_id = nf_id;
  vf->vpp = vpp;
  vfs_.emplace(vf_id, std::move(vf));
  nf_to_vf_[nf_id] = vf_id;
  return vf_id;
}

Status PfVfManager::RebindVf(uint32_t vf_id, uint64_t new_nf_id,
                             VirtualPacketPipeline* new_vpp) {
  Vf* vf = Find(vf_id);
  if (vf == nullptr) {
    return NotFound("vf: unknown id");
  }
  if (new_vpp == nullptr) {
    return InvalidArgument("vf: null pipeline");
  }
  const auto taken = nf_to_vf_.find(new_nf_id);
  if (taken != nf_to_vf_.end() && taken->second != vf_id) {
    return AlreadyOwned("vf: NF already has a virtual function");
  }
  nf_to_vf_.erase(vf->nf_id);
  vf->nf_id = new_nf_id;
  vf->vpp = new_vpp;
  nf_to_vf_[new_nf_id] = vf_id;
  // The reset: rings restart, the doorbell refills, churn reservations are
  // released and abuse verdicts unlatch.
  vf->ring.Reset();
  vf->cq.Reset();
  vf->doorbell.Reset();
  vf->posted_bytes = 0;
  vf->churn_penalty_bytes = 0;
  for (bool& latched : vf->abuse_latched) {
    latched = false;
  }
  for (uint64_t& strikes : vf->stats.strikes) {
    strikes = 0;
  }
  ++vf->stats.resets;
  vf->m_resets->Inc();
  if (ring_ != nullptr) {
    ring_->EmitInstant(span_reset_, now_, static_cast<uint32_t>(new_nf_id),
                       /*tid=*/0, /*span=*/0, vf_id, arg_vf_);
  }
  return OkStatus();
}

Status PfVfManager::QuarantineVf(uint32_t vf_id) {
  Vf* vf = Find(vf_id);
  if (vf == nullptr) {
    return NotFound("vf: unknown id");
  }
  vf->quarantined = true;
  return OkStatus();
}

void PfVfManager::Strike(uint32_t vf_id, Vf& vf, VfAbuse kind) {
  const int index = static_cast<int>(kind);
  ++vf.stats.strikes[index];
  if (vf.abuse_latched[index] ||
      vf.stats.strikes[index] < vf.quota.abuse_threshold) {
    return;
  }
  vf.abuse_latched[index] = true;
  ++vf.stats.abuse_flags;
  vf.m_abuse->Inc();
  if (ring_ != nullptr) {
    ring_->EmitInstant(span_abuse_, now_, static_cast<uint32_t>(vf.nf_id),
                       /*tid=*/0, /*span=*/0, static_cast<uint64_t>(index),
                       arg_cause_);
  }
  if (abuse_callback_) {
    abuse_callback_(vf_id, kind);
  }
}

Status PfVfManager::PostDescriptors(uint32_t vf_id,
                                    std::span<const uint8_t> raw) {
  Vf* vf = Find(vf_id);
  if (vf == nullptr) {
    return NotFound("vf: unknown id");
  }
  if (vf->quarantined) {
    return PermissionDenied("vf: quarantined");
  }
  // Hostile-tenant fault payloads, all scoped to the owning NF: corrupt one
  // byte of the posted image, or charge a phantom full-quota reservation.
  std::vector<uint8_t> corrupted;
  if (!raw.empty() &&
      SNIC_FAULT_FIRES(fault::sites::kVnicDescCorrupt, vf->nf_id)) {
    corrupted.assign(raw.begin(), raw.end());
    corrupted[vf->stats.posts_accepted % corrupted.size()] ^= 0x40;
    raw = corrupted;
  }
  if (SNIC_FAULT_FIRES(fault::sites::kVnicQuotaChurn, vf->nf_id)) {
    vf->churn_penalty_bytes = vf->quota.posted_bytes_limit;
  }
  std::vector<RxDescriptor> decoded;
  DescriptorStreamDecoder decoder;
  Status status = decoder.Fill(raw, &decoded);
  if (status.ok()) {
    status = decoder.Finish();
  }
  if (!status.ok()) {
    ++vf->stats.post_rejected_decode;
    vf->m_post_rejected->Inc();
    Strike(vf_id, *vf, VfAbuse::kBadDescriptor);
    return status;
  }
  if (!decoded.empty() &&
      SNIC_FAULT_FIRES(fault::sites::kVnicDescStale, vf->nf_id)) {
    // Replay an already-consumed slot index.
    decoded.front().ring_index = static_cast<uint16_t>(
        (vf->ring.ExpectedIndex() + vf->ring.capacity() - 1) %
        vf->ring.capacity());
  }
  uint64_t accepted = 0;
  for (const RxDescriptor& descriptor : decoded) {
    if (vf->posted_bytes + vf->churn_penalty_bytes + descriptor.buffer_len >
        vf->quota.posted_bytes_limit) {
      ++vf->stats.post_rejected_quota;
      vf->m_post_rejected->Inc();
      Strike(vf_id, *vf, VfAbuse::kQuotaChurn);
      return ResourceExhausted("vf: posted-byte quota exhausted");
    }
    const Status posted = vf->ring.Post(descriptor, now_);
    if (!posted.ok()) {
      if (posted.code() == ErrorCode::kInvalidArgument) {
        ++vf->stats.post_rejected_stale;
        vf->m_post_rejected->Inc();
        Strike(vf_id, *vf, VfAbuse::kBadDescriptor);
      } else {
        ++vf->stats.post_rejected_full;
        vf->m_post_rejected->Inc();
      }
      return posted;
    }
    vf->posted_bytes += descriptor.buffer_len;
    ++vf->stats.posts_accepted;
    ++accepted;
    vf->m_posted->Inc();
  }
  if (ring_ != nullptr && accepted > 0) {
    ring_->EmitInstant(span_post_, now_, static_cast<uint32_t>(vf->nf_id),
                       /*tid=*/0, /*span=*/0, vf_id, arg_vf_);
  }
  return OkStatus();
}

bool PfVfManager::RingDoorbell(uint32_t vf_id) {
  Vf* vf = Find(vf_id);
  if (vf == nullptr || vf->quarantined) {
    return false;
  }
  vf->doorbell.AdvanceTo(now_);
  if (SNIC_FAULT_FIRES(fault::sites::kVnicDoorbellFlood, vf->nf_id)) {
    vf->doorbell.Drain();
  }
  if (!vf->doorbell.Ring()) {
    ++vf->stats.doorbell_rejected;
    vf->m_rings_rejected->Inc();
    Strike(vf_id, *vf, VfAbuse::kDoorbellFlood);
    return false;
  }
  ++vf->stats.doorbell_rings;
  vf->m_rings->Inc();
  if (ring_ != nullptr) {
    ring_->EmitInstant(span_doorbell_, now_, static_cast<uint32_t>(vf->nf_id),
                       /*tid=*/0, /*span=*/0, vf_id, arg_vf_);
  }
  return true;
}

Result<CompletionQueue::Completion> PfVfManager::Harvest(uint32_t vf_id) {
  Vf* vf = Find(vf_id);
  if (vf == nullptr) {
    return Status(NotFound("vf: unknown id"));
  }
  if (vf->quarantined) {
    return Status(PermissionDenied("vf: quarantined"));
  }
  if (SNIC_FAULT_FIRES(fault::sites::kVnicCqSquat, vf->nf_id)) {
    // The squatting tenant: the harvest never happens, completions pile up.
    return Status(Unavailable("injected harvest skip"));
  }
  auto completion = vf->cq.Harvest();
  if (!completion.ok()) {
    return completion;
  }
  ++vf->stats.harvested;
  vf->m_harvested->Inc();
  if (ring_ != nullptr) {
    ring_->EmitInstant(span_harvest_, now_, static_cast<uint32_t>(vf->nf_id),
                       /*tid=*/0, completion.value().span_id, vf_id, arg_vf_);
  }
  return completion;
}

Status PfVfManager::DeliverToVf(uint32_t vf_id, net::Packet packet) {
  Vf* vf = Find(vf_id);
  if (vf == nullptr) {
    return NotFound("vf: unknown id");
  }
  if (vf->quarantined) {
    ++vf->stats.dropped_quarantined;
    vf->m_drops_quarantined->Inc();
    return Unavailable("vf: quarantined");
  }
  const auto posted = vf->ring.Peek();
  if (!posted.ok()) {
    ++vf->stats.dropped_no_descriptor;
    vf->m_drops_no_desc->Inc();
    return ResourceExhausted("vf: no posted descriptor");
  }
  if (packet.size() > posted.value().descriptor.buffer_len) {
    // The frame does not fit the posted buffer; the descriptor is kept for
    // the next (smaller) frame rather than burned.
    ++vf->stats.dropped_oversize;
    return InvalidArgument("vf: frame exceeds posted buffer");
  }
  if (vf->cq.Full()) {
    ++vf->stats.dropped_cq_full;
    vf->m_drops_cq_full->Inc();
    Strike(vf_id, *vf, VfAbuse::kCqSquat);
    return ResourceExhausted("vf: completion queue full");
  }
  const uint16_t frame_bytes = static_cast<uint16_t>(packet.size());
  const uint64_t span_id = packet.span_id();
  const Status enqueued = vf->vpp->EnqueueRx(std::move(packet));
  if (!enqueued.ok()) {
    // VPP backpressure (or an injected ingress fault): leave the descriptor
    // posted so the ring stops draining — that is the backpressure signal.
    ++vf->stats.dropped_vpp;
    vf->m_drops_vpp->Inc();
    return enqueued;
  }
  const auto consumed = vf->ring.Consume();
  const uint64_t wait =
      now_ >= consumed.value().post_cycle ? now_ - consumed.value().post_cycle
                                          : 0;
  if (wait > vf->stats.max_delivery_wait_cycles) {
    vf->stats.max_delivery_wait_cycles = wait;
  }
  const uint64_t len = consumed.value().descriptor.buffer_len;
  vf->posted_bytes = vf->posted_bytes >= len ? vf->posted_bytes - len : 0;
  CompletionQueue::Completion completion;
  completion.ring_index = consumed.value().descriptor.ring_index;
  completion.bytes = frame_bytes;
  completion.cycle = now_;
  completion.wait_cycles = wait;
  completion.span_id = span_id;
  SNIC_CHECK_OK(vf->cq.Push(completion));  // Full() was checked above
  ++vf->stats.delivered;
  vf->m_delivered->Inc();
  if (ring_ != nullptr) {
    ring_->EmitInstant(span_deliver_, now_, static_cast<uint32_t>(vf->nf_id),
                       /*tid=*/0, span_id, wait, arg_residency_);
  }
  return OkStatus();
}

Result<uint32_t> PfVfManager::VfForNf(uint64_t nf_id) const {
  const auto it = nf_to_vf_.find(nf_id);
  if (it == nf_to_vf_.end()) {
    return Status(NotFound("vf: NF has no virtual function"));
  }
  return it->second;
}

void PfVfManager::AdvanceClockTo(uint64_t cycle) {
  if (cycle <= now_) {
    return;
  }
  now_ = cycle;
  for (auto& [vf_id, vf] : vfs_) {
    vf->doorbell.AdvanceTo(now_);
  }
}

bool PfVfManager::IsQuarantined(uint32_t vf_id) const {
  const Vf* vf = Find(vf_id);
  return vf != nullptr && vf->quarantined;
}

uint64_t PfVfManager::NfOf(uint32_t vf_id) const {
  const Vf* vf = Find(vf_id);
  return vf == nullptr ? 0 : vf->nf_id;
}

const VfStats& PfVfManager::StatsOf(uint32_t vf_id) const {
  const Vf* vf = Find(vf_id);
  return vf == nullptr ? kEmptyVfStats : vf->stats;
}

uint32_t PfVfManager::RingOccupancy(uint32_t vf_id) const {
  const Vf* vf = Find(vf_id);
  return vf == nullptr ? 0 : vf->ring.posted();
}

uint32_t PfVfManager::CqPending(uint32_t vf_id) const {
  const Vf* vf = Find(vf_id);
  return vf == nullptr ? 0 : vf->cq.pending();
}

void PfVfManager::SetAbuseCallback(AbuseCallback callback) {
  abuse_callback_ = std::move(callback);
}

}  // namespace snic::core::vnic

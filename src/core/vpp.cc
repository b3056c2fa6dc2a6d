#include "src/core/vpp.h"

#include <algorithm>
#include <string>

#include "src/fault/fault.h"
#include "src/obs/span_names.h"

namespace {

// The scheduler unit's locked TLB: one entry per buffer (PB, PDB, ODB), the
// Table 4 sizing.
constexpr size_t kVppTlbEntries = 3;

// vpp.rx.rejected cause codes (arg word, key "cause").
constexpr uint64_t kRejectFault = 0;      // injected ingress drop
constexpr uint64_t kRejectAdmission = 1;  // policer / token bucket
constexpr uint64_t kRejectFull = 2;       // buffer reservation full

}  // namespace

namespace snic::core {

VirtualPacketPipeline::VirtualPacketPipeline(uint64_t nf_id,
                                             const VppConfig& config)
    : nf_id_(nf_id),
      config_(config),
      admission_(config.overload.admission_burst_frames,
                 config.overload.admission_frames_per_refill,
                 config.overload.admission_refill_cycles),
      scheduler_tlb_(kVppTlbEntries),
      ring_(obs::CurrentTraceRing()),
      obs_registry_(&obs::DefaultRegistry()) {
  const std::string nf = std::to_string(nf_id_);
  obs::MetricRegistry& registry = *obs_registry_;
  obs_rx_depth_ = &registry.GetGauge("vpp.rx_queue_depth", {{"nf", nf}});
  obs_drops_full_rx_ =
      &registry.GetCounter("vpp.drops.full", {{"nf", nf}, {"path", "rx"}});
  obs_drops_full_tx_ =
      &registry.GetCounter("vpp.drops.full", {{"nf", nf}, {"path", "tx"}});
  obs_drops_admission_ =
      &registry.GetCounter("vpp.drops.admission", {{"nf", nf}});
  obs_drops_early_ = &registry.GetCounter("vpp.drops.early", {{"nf", nf}});
  obs_shed_rx_ = &registry.GetCounter("overload.shed.deadline",
                                      {{"nf", nf}, {"path", "rx"}});
  obs_shed_tx_ = &registry.GetCounter("overload.shed.deadline",
                                      {{"nf", nf}, {"path", "tx"}});
  obs_shed_bytes_ = &registry.GetCounter("overload.shed.bytes", {{"nf", nf}});
  UpdateRxDepthObs();
  if (ring_ != nullptr) {
    ring_rx_enq_ = ring_->Intern(obs::spans::kVppRxEnqueue);
    ring_rx_deq_ = ring_->Intern(obs::spans::kVppRxDequeue);
    ring_tx_enq_ = ring_->Intern(obs::spans::kVppTxEnqueue);
    ring_tx_deq_ = ring_->Intern(obs::spans::kVppTxDequeue);
    ring_rx_rejected_ = ring_->Intern(obs::spans::kVppRxRejected);
    ring_shed_ = ring_->Intern(obs::spans::kVppDeadlineShed);
    ring_arg_depth_ = ring_->Intern(obs::spans::kArgDepth);
    ring_arg_residency_ = ring_->Intern(obs::spans::kArgResidency);
    ring_arg_cause_ = ring_->Intern(obs::spans::kArgCause);
    ring_->SetProcessName(RingPid(), "nf" + nf);
    ring_->SetThreadName(RingPid(), 0, "rx");
    ring_->SetThreadName(RingPid(), 1, "tx");
  }
}

void VirtualPacketPipeline::AdvanceClockTo(uint64_t cycle) {
  if (cycle > now_) {
    now_ = cycle;
    admission_.AdvanceTo(cycle);
  }
}

bool VirtualPacketPipeline::Matches(const net::ParsedPacket& parsed) const {
  for (const net::SwitchRule& rule : config_.rules) {
    if (rule.Matches(parsed)) {
      return true;
    }
  }
  return false;
}

uint32_t VirtualPacketPipeline::RxCapacityFrames() const {
  if (config_.overload.rx_queue_capacity_frames > 0) {
    return config_.overload.rx_queue_capacity_frames;
  }
  // One 64 B descriptor per buffered frame out of the PDB reservation.
  const uint64_t derived = config_.descriptor_buffer_bytes / 64;
  return derived > 0 ? static_cast<uint32_t>(derived) : 1;
}

uint32_t VirtualPacketPipeline::TxCapacityFrames() const {
  if (config_.overload.tx_queue_capacity_frames > 0) {
    return config_.overload.tx_queue_capacity_frames;
  }
  const uint64_t derived = config_.output_descriptor_bytes / 64;
  return derived > 0 ? static_cast<uint32_t>(derived) : 1;
}

bool VirtualPacketPipeline::CanAdmitRx(uint64_t bytes) const {
  if (rx_queue_.size() >= RxCapacityFrames()) {
    return false;
  }
  if (rx_buffered_bytes_ + bytes > config_.rx_buffer_bytes) {
    return false;
  }
  return admission_.HasToken();
}

bool VirtualPacketPipeline::DeadlineExpired(uint64_t enqueue_cycle) const {
  return config_.overload.deadline_cycles > 0 &&
         now_ > enqueue_cycle + config_.overload.deadline_cycles;
}

void VirtualPacketPipeline::UpdateRxDepthObs() {
  obs_rx_depth_->Set(static_cast<double>(rx_queue_.size()));
}

void VirtualPacketPipeline::ShedRxFront() {
  const QueuedFrame& stale = rx_queue_.front();
  const uint64_t bytes = stale.packet.size();
  rx_buffered_bytes_ -= bytes;
  ++stats_.rx_shed_deadline;
  stats_.shed_bytes += bytes;
  obs_shed_rx_->Inc();
  obs_shed_bytes_->Inc(bytes);
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_shed_, now_, RingPid(), /*tid=*/0,
                       stale.packet.span_id(), now_ - stale.enqueue_cycle,
                       ring_arg_residency_);
  }
  rx_queue_.pop_front();
}

void VirtualPacketPipeline::EmitRingRejected(uint64_t span, uint64_t cause) {
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_rx_rejected_, now_, RingPid(), /*tid=*/0, span,
                       cause, ring_arg_cause_);
  }
}

bool VirtualPacketPipeline::MakeRoomByEarlyDrop(uint64_t incoming_bytes) {
  // Deterministic victim selection: the largest queued frame, breaking size
  // ties toward the latest arrival so older frames survive. Only frames
  // strictly larger than the incoming one are eligible — an incoming frame
  // never evicts its equals or betters.
  auto over_capacity = [this, incoming_bytes]() {
    return rx_queue_.size() >= RxCapacityFrames() ||
           rx_buffered_bytes_ + incoming_bytes > config_.rx_buffer_bytes;
  };
  while (over_capacity()) {
    size_t victim = rx_queue_.size();
    uint64_t victim_bytes = incoming_bytes;
    for (size_t i = 0; i < rx_queue_.size(); ++i) {
      if (rx_queue_[i].packet.size() >= victim_bytes) {
        // >= walks ties forward to the latest arrival.
        if (rx_queue_[i].packet.size() == incoming_bytes) {
          continue;  // equal priority: not an eligible victim
        }
        victim = i;
        victim_bytes = rx_queue_[i].packet.size();
      }
    }
    if (victim == rx_queue_.size()) {
      return false;  // nothing lower-priority than the incoming frame
    }
    rx_buffered_bytes_ -= victim_bytes;
    ++stats_.rx_dropped_early;
    obs_drops_early_->Inc();
    rx_queue_.erase(rx_queue_.begin() + static_cast<ptrdiff_t>(victim));
  }
  return true;
}

Status VirtualPacketPipeline::EnqueueRx(net::Packet packet) {
  // Mint the causal span id at ingress — before any admission decision, so
  // even rejected frames are reconstructable. (nf_id << 32 | seq) keeps one
  // tenant's ids independent of every other tenant's traffic.
  if (ring_ != nullptr && packet.span_id() == 0) {
    packet.set_span_id((nf_id_ << 32) | ++span_seq_);
  }
  if (SNIC_FAULT_FIRES(fault::sites::kVppRxDrop, nf_id_)) {
    ++stats_.rx_dropped_fault;
    EmitRingRejected(packet.span_id(), kRejectFault);
    return Unavailable("injected ingress drop");
  }
  if (!packet.empty() &&
      SNIC_FAULT_FIRES(fault::sites::kVppRxCorrupt, nf_id_)) {
    // Flip one bit at a position derived from this VPP's own RX history so
    // the corruption is deterministic per-pipeline.
    packet.mutable_bytes()[stats_.rx_packets % packet.size()] ^= 0x01;
    ++stats_.rx_corrupt_fault;
  }
  // Ingress admission: the per-NF token bucket polices arrival rate before
  // any buffer space is committed. The fault site models a policer brown-out
  // rejecting frames the bucket would have admitted.
  if (SNIC_FAULT_FIRES(fault::sites::kVppRxAdmissionReject, nf_id_)) {
    ++stats_.rx_dropped_admission;
    obs_drops_admission_->Inc();
    EmitRingRejected(packet.span_id(), kRejectAdmission);
    return ResourceExhausted("injected admission reject");
  }
  if (!admission_.HasToken()) {
    ++stats_.rx_dropped_admission;
    obs_drops_admission_->Inc();
    EmitRingRejected(packet.span_id(), kRejectAdmission);
    return ResourceExhausted("admission token bucket empty");
  }
  const bool over_capacity =
      rx_queue_.size() >= RxCapacityFrames() ||
      rx_buffered_bytes_ + packet.size() > config_.rx_buffer_bytes;
  if (over_capacity) {
    const bool admitted =
        config_.overload.drop_policy == DropPolicy::kPriorityEarlyDrop &&
        MakeRoomByEarlyDrop(packet.size());
    if (!admitted) {
      ++stats_.rx_dropped_full;
      obs_drops_full_rx_->Inc();
      EmitRingRejected(packet.span_id(), kRejectFull);
      return ResourceExhausted("RX buffer reservation full");
    }
  }
  (void)admission_.TryConsume();  // HasToken held above; tokens pay per admit
  stats_.rx_bytes += packet.size();
  ++stats_.rx_packets;
  rx_buffered_bytes_ += packet.size();
  rx_queue_.push_back(QueuedFrame{std::move(packet), now_});
  stats_.rx_peak_frames =
      std::max<uint64_t>(stats_.rx_peak_frames, rx_queue_.size());
  stats_.rx_peak_bytes = std::max(stats_.rx_peak_bytes, rx_buffered_bytes_);
  UpdateRxDepthObs();
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_rx_enq_, now_, RingPid(), /*tid=*/0,
                       rx_queue_.back().packet.span_id(), rx_queue_.size(),
                       ring_arg_depth_);
  }
  return OkStatus();
}

Result<net::Packet> VirtualPacketPipeline::DequeueRx() {
  for (;;) {
    if (rx_queue_.empty()) {
      return NotFound("RX queue empty");
    }
    // Stage-boundary deadline check: stale frames are shed, not delivered.
    if (DeadlineExpired(rx_queue_.front().enqueue_cycle)) {
      ShedRxFront();
      UpdateRxDepthObs();
      continue;
    }
    const uint64_t queued_at = rx_queue_.front().enqueue_cycle;
    net::Packet packet = std::move(rx_queue_.front().packet);
    rx_buffered_bytes_ -= packet.size();
    rx_queue_.pop_front();
    UpdateRxDepthObs();
    if (ring_ != nullptr) {
      ring_->EmitInstant(ring_rx_deq_, now_, RingPid(), /*tid=*/0,
                         packet.span_id(), now_ - queued_at,
                         ring_arg_residency_);
    }
    return packet;
  }
}

Status VirtualPacketPipeline::EnqueueTx(net::Packet packet) {
  // TX reservation: the ODB bounds outstanding descriptors (64 B each).
  if (tx_queue_.size() >= TxCapacityFrames()) {
    ++stats_.tx_dropped_full;
    obs_drops_full_tx_->Inc();
    return ResourceExhausted("TX descriptor reservation full");
  }
  stats_.tx_bytes += packet.size();
  ++stats_.tx_packets;
  tx_queue_.push_back(QueuedFrame{std::move(packet), now_});
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_tx_enq_, now_, RingPid(), /*tid=*/1,
                       tx_queue_.back().packet.span_id(), tx_queue_.size(),
                       ring_arg_depth_);
  }
  return OkStatus();
}

const net::Packet* VirtualPacketPipeline::PeekTx() {
  while (!tx_queue_.empty() &&
         DeadlineExpired(tx_queue_.front().enqueue_cycle)) {
    const uint64_t bytes = tx_queue_.front().packet.size();
    ++stats_.tx_shed_deadline;
    stats_.shed_bytes += bytes;
    obs_shed_tx_->Inc();
    obs_shed_bytes_->Inc(bytes);
    if (ring_ != nullptr) {
      ring_->EmitInstant(ring_shed_, now_, RingPid(), /*tid=*/1,
                         tx_queue_.front().packet.span_id(),
                         now_ - tx_queue_.front().enqueue_cycle,
                         ring_arg_residency_);
    }
    tx_queue_.pop_front();
  }
  return tx_queue_.empty() ? nullptr : &tx_queue_.front().packet;
}

Result<net::Packet> VirtualPacketPipeline::DequeueTx() {
  if (PeekTx() == nullptr) {
    return NotFound("TX queue empty");
  }
  const uint64_t queued_at = tx_queue_.front().enqueue_cycle;
  net::Packet packet = std::move(tx_queue_.front().packet);
  tx_queue_.pop_front();
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_tx_deq_, now_, RingPid(), /*tid=*/1,
                       packet.span_id(), now_ - queued_at,
                       ring_arg_residency_);
  }
  return packet;
}

void VirtualPacketPipeline::ReleaseObs() {
  obs_registry_->Release({obs_drops_full_rx_, obs_drops_full_tx_,
                          obs_drops_admission_, obs_drops_early_,
                          obs_shed_rx_, obs_shed_tx_, obs_shed_bytes_},
                         {obs_rx_depth_});
}

}  // namespace snic::core

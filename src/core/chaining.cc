#include "src/core/chaining.h"

#include <algorithm>

#include "src/fault/fault.h"
#include "src/obs/span_names.h"

namespace snic::core {

ChainLink::ChainLink(SnicDevice* device, const ChainLinkConfig& config)
    : device_(device), config_(config), ring_(obs::CurrentTraceRing()) {
  if (ring_ != nullptr) {
    ring_hop_ = ring_->Intern(obs::spans::kChainHop);
    ring_stall_ = ring_->Intern(obs::spans::kChainStall);
    ring_arg_peer_ = ring_->Intern(obs::spans::kArgPeer);
  }
}

void ChainLink::Tick() {
  ++stats_.ticks;
  VirtualPacketPipeline* producer = device_->Vpp(config_.producer_nf);
  VirtualPacketPipeline* consumer = device_->Vpp(config_.consumer_nf);
  if (producer == nullptr || consumer == nullptr) {
    return;  // an endpoint died; the manager will reap this link
  }
  // Credit grant for this tick. A scheduled fault at the grant site models
  // the trusted transfer engine withholding a tick's credits: the producer
  // stalls deterministically even though the consumer has room.
  uint32_t credits = config_.frames_per_tick;
  if (SNIC_FAULT_FIRES(fault::sites::kChainCreditGrant, config_.consumer_nf)) {
    ++stats_.credit_faults;
    credits = 0;
  }
  for (uint32_t i = 0; i < credits; ++i) {
    // PeekTx sheds stale frames, then exposes the next live head.
    const net::Packet* head = producer->PeekTx();
    if (head == nullptr) {
      // Fixed per-tick work regardless of backlog: nothing more to move.
      return;
    }
    if (!consumer->CanAdmitRx(head->size())) {
      // Credit denied: the frame stays put in the producer's bounded TX
      // reservation. No shared state grows.
      ++stats_.frames_stalled;
      if (ring_ != nullptr) {
        ring_->EmitInstant(ring_stall_, device_->now(),
                           static_cast<uint32_t>(config_.producer_nf),
                           /*tid=*/1, head->span_id(), config_.consumer_nf,
                           ring_arg_peer_);
      }
      break;
    }
    const uint64_t hop_span = head->span_id();
    auto frame = producer->DequeueTx();
    if (!frame.ok()) {
      return;
    }
    // By-value copy through trusted hardware into the consumer's private
    // RX reservation. A fault that rejects an admitted frame is counted in
    // the consumer's own VPP stats; the consumer observes only its own
    // queue, as with wire traffic.
    if (consumer->EnqueueRx(std::move(frame).value()).ok()) {
      ++stats_.frames_moved;
      if (ring_ != nullptr) {
        ring_->EmitInstant(ring_hop_, device_->now(),
                           static_cast<uint32_t>(config_.consumer_nf),
                           /*tid=*/0, hop_span, config_.producer_nf,
                           ring_arg_peer_);
      }
    }
  }
  // Ending the tick with fresh producer TX still queued means the link ran
  // out of usable credits.
  if (producer->PeekTx() != nullptr) {
    ++stats_.stall_ticks;
  }
}

Result<size_t> ChainManager::CreateLink(const ChainLinkConfig& config) {
  if (config.producer_nf == config.consumer_nf) {
    return InvalidArgument("self-links are not allowed");
  }
  if (config.frames_per_tick == 0) {
    return InvalidArgument("frames_per_tick must be positive");
  }
  if (!device_->IsLive(config.producer_nf)) {
    return NotFound("producer function is not live");
  }
  if (!device_->IsLive(config.consumer_nf)) {
    return NotFound("consumer function is not live");
  }
  if (device_->Vpp(config.producer_nf) == nullptr ||
      device_->Vpp(config.consumer_nf) == nullptr) {
    return FailedPrecondition("both chain endpoints need a VPP");
  }
  SNIC_CHECK_OK(device_->SetTxChained(config.producer_nf, true));
  links_.emplace_back(device_, config);
  return links_.size() - 1;
}

void ChainManager::RemoveLinksFor(uint64_t nf_id) {
  const auto touches = [nf_id](const ChainLink& link) {
    return link.config().producer_nf == nf_id ||
           link.config().consumer_nf == nf_id;
  };
  std::vector<uint64_t> producers;
  for (const ChainLink& link : links_) {
    if (touches(link)) {
      producers.push_back(link.config().producer_nf);
    }
  }
  links_.erase(std::remove_if(links_.begin(), links_.end(), touches),
               links_.end());
  // A producer left with no outgoing link drains to the wire again. One
  // already torn down has no record left to clear.
  for (const uint64_t producer : producers) {
    const bool still_linked =
        std::any_of(links_.begin(), links_.end(), [&](const ChainLink& link) {
          return link.config().producer_nf == producer;
        });
    if (!still_linked) {
      (void)device_->SetTxChained(producer, false);
    }
  }
}

void ChainManager::TickAll() {
  for (ChainLink& link : links_) {
    link.Tick();
  }
}

}  // namespace snic::core

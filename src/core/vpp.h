// Virtual packet pipeline (§4.4).
//
// A VPP bundles the hardware that moves one function's packets between the
// wire and its private RAM: reserved buffer space in the physical RX/TX
// ports, a packet-scheduler unit with locked TLB entries (so its DMA can
// only touch the owner's memory), and the switch rules that steer incoming
// frames. Rules may match 5-tuples, destination MACs (SR-IOV style) and
// VXLAN VNIs. Buffer sizes default to the LiquidIO values the paper uses to
// size VPP TLBs: PB 2 MB, PDB 128 KB, ODB 1 MB.
//
// Overload control (docs/ROBUSTNESS.md, "Overload control"): both queues
// are bounded in frames as well as bytes (the PDB/ODB descriptor
// reservations), ingress runs through a per-NF token bucket refilled over
// simulated cycles, a full queue applies an explicit drop policy (tail drop
// or deterministic priority-aware early drop), and frames are stamped with
// their ingress cycle so stale ones are shed at each stage boundary once
// past their cycle deadline. All of it is per-VPP state driven only by
// AdvanceClockTo, so one tenant's overload cannot perturb another's
// pipeline — the property the scenario runner's bystander-identity
// verdicts byte-verify (tests/scenario_test.cc runs the overload ladder).

#ifndef SNIC_CORE_VPP_H_
#define SNIC_CORE_VPP_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/overload.h"
#include "src/net/packet.h"
#include "src/net/switching.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/sim/tlb.h"

namespace snic::core {

struct VppConfig {
  uint64_t rx_buffer_bytes = 2 * 1024 * 1024;       // PB
  uint64_t descriptor_buffer_bytes = 128 * 1024;    // PDB
  uint64_t output_descriptor_bytes = 1024 * 1024;   // ODB
  std::vector<net::SwitchRule> rules;
  OverloadPolicy overload;
};

struct VppStats {
  uint64_t rx_packets = 0;
  uint64_t rx_dropped_full = 0;       // queue at frame/byte capacity
  uint64_t rx_dropped_admission = 0;  // token bucket empty (or injected)
  uint64_t rx_dropped_early = 0;      // early-drop evictions of queued frames
  uint64_t rx_dropped_fault = 0;   // injected ingress drops (fault plane)
  uint64_t rx_corrupt_fault = 0;   // injected single-bit ingress corruptions
  uint64_t rx_shed_deadline = 0;   // stale frames shed at RX dequeue
  uint64_t tx_packets = 0;
  uint64_t tx_dropped_full = 0;    // TX descriptor reservation full
  uint64_t tx_shed_deadline = 0;   // stale frames shed at TX dequeue
  uint64_t shed_bytes = 0;         // bytes across both shed paths
  uint64_t rx_bytes = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_peak_frames = 0;     // high-water marks for the bounded queue
  uint64_t rx_peak_bytes = 0;
};

// One function's pipeline instance. Its constructor binds the per-NF
// overload series (`vpp.rx_queue_depth`, `vpp.drops.*`, `overload.shed.*`)
// in obs::DefaultRegistry() and, when obs::CurrentTraceRing() is installed,
// interns the vpp.* span names and registers this NF's lane there
// (docs/OBSERVABILITY.md "Binary tracing & spans"); from then on every frame
// entering EnqueueRx gets a causal span id and each queue transition is one
// fixed-size record.
class VirtualPacketPipeline {
 public:
  VirtualPacketPipeline(uint64_t nf_id, const VppConfig& config);

  uint64_t nf_id() const { return nf_id_; }
  const VppConfig& config() const { return config_; }

  // Advances the pipeline's simulated clock (monotone): refills the
  // admission bucket and ages buffered frames toward their deadlines. The
  // device fans SnicDevice::AdvanceClockTo out to every live VPP.
  void AdvanceClockTo(uint64_t cycle);
  uint64_t now() const { return now_; }

  // True when one of this VPP's switch rules matches the frame.
  bool Matches(const net::ParsedPacket& parsed) const;

  // RX path: the packet input module deposits a frame. Admission order:
  // fault sites, then the token bucket, then the frame/byte capacity check
  // under the configured drop policy. Every rejection is counted.
  [[nodiscard]] Status EnqueueRx(net::Packet packet);

  // The function polls for its next packet, oldest first. Frames past
  // their deadline are shed (counted) rather than returned.
  Result<net::Packet> DequeueRx();
  bool RxPending() const { return !rx_queue_.empty(); }

  // TX path: the function hands a processed frame to the output module.
  [[nodiscard]] Status EnqueueTx(net::Packet packet);
  Result<net::Packet> DequeueTx();  // wire side; sheds stale frames first
  bool TxPending() const { return !tx_queue_.empty(); }
  // Sheds stale TX heads, then exposes the next frame without dequeuing it
  // (the chain engine's credit check); nullptr when nothing fresh remains.
  const net::Packet* PeekTx();

  // Conservative credit check for backpressure: true when a frame of
  // `bytes` would currently be admitted (capacity and token availability;
  // fault injection excluded). Does not consume a token.
  bool CanAdmitRx(uint64_t bytes) const;

  const VppStats& stats() const { return stats_; }
  uint64_t RxQueuedFrames() const { return rx_queue_.size(); }
  uint64_t RxQueuedBytes() const { return rx_buffered_bytes_; }
  uint32_t RxCapacityFrames() const;
  uint32_t TxCapacityFrames() const;

  // Gives back the per-NF series the constructor bound
  // (MetricRegistry::Release). The device calls it once, at nf_teardown,
  // just before it destroys the pipeline.
  void ReleaseObs();

  // The scheduler unit's locked TLB (priced in Table 4).
  sim::LockedTlb& scheduler_tlb() { return scheduler_tlb_; }

 private:
  struct QueuedFrame {
    net::Packet packet;
    uint64_t enqueue_cycle;
  };

  bool DeadlineExpired(uint64_t enqueue_cycle) const;
  // Applies the early-drop policy: evicts queued lower-priority (larger)
  // frames until `incoming_bytes` fits or no eligible victim remains.
  // Returns true when the incoming frame now fits.
  bool MakeRoomByEarlyDrop(uint64_t incoming_bytes);
  void ShedRxFront();
  void UpdateRxDepthObs();
  uint32_t RingPid() const { return static_cast<uint32_t>(nf_id_); }
  // One vpp.rx.rejected instant; `cause` is the admission-reject reason code.
  void EmitRingRejected(uint64_t span, uint64_t cause);

  uint64_t nf_id_;
  VppConfig config_;
  uint64_t now_ = 0;
  std::deque<QueuedFrame> rx_queue_;
  std::deque<QueuedFrame> tx_queue_;
  uint64_t rx_buffered_bytes_ = 0;
  TokenBucket admission_;
  sim::LockedTlb scheduler_tlb_;
  VppStats stats_;

  // Bound at construction: the ring is obs::CurrentTraceRing() (null when
  // untraced), the series live in obs::DefaultRegistry().
  obs::TraceRing* ring_;
  uint64_t span_seq_ = 0;  // low word of minted span ids, per-VPP
  uint16_t ring_rx_enq_ = 0;
  uint16_t ring_rx_deq_ = 0;
  uint16_t ring_tx_enq_ = 0;
  uint16_t ring_tx_deq_ = 0;
  uint16_t ring_rx_rejected_ = 0;
  uint16_t ring_shed_ = 0;
  uint16_t ring_arg_depth_ = 0;
  uint16_t ring_arg_residency_ = 0;
  uint16_t ring_arg_cause_ = 0;

  obs::MetricRegistry* obs_registry_;
  obs::Gauge* obs_rx_depth_;
  obs::Counter* obs_drops_full_rx_;
  obs::Counter* obs_drops_full_tx_;
  obs::Counter* obs_drops_admission_;
  obs::Counter* obs_drops_early_;
  obs::Counter* obs_shed_rx_;
  obs::Counter* obs_shed_tx_;
  obs::Counter* obs_shed_bytes_;
};

}  // namespace snic::core

#endif  // SNIC_CORE_VPP_H_

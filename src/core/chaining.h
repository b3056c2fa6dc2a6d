// Function chaining via cross-VPP message transfer (§4.8 extension).
//
// S-NIC's strict single-owner semantics prohibit shared memory between
// functions, but the paper sketches an extension: "an extended version of
// S-NIC could have NFs exchange data via localhost networking, such that
// S-NIC hardware would transfer messages directly between the side-channel-
// isolated VPPs owned by different NFs ... this approach would restrict the
// information leakage between two communicating VPPs to just the
// information that is revealed via overt traffic timings and packet
// content."
//
// This module implements that management hardware. A chain link is created
// by the NIC OS *before* launch-time measurement (so it is attestable as
// part of both functions' configurations), connects exactly one producer
// VPP to one consumer VPP, copies frames producer-TX -> consumer-RX with no
// shared memory (the copy is by value through trusted hardware), and is
// rate-clocked: the link moves at most `frames_per_tick` frames on each
// hardware tick regardless of queue occupancy, so a consumer cannot infer
// the producer's backlog — only the overt frames themselves.

#ifndef SNIC_CORE_CHAINING_H_
#define SNIC_CORE_CHAINING_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/core/snic_device.h"

namespace snic::core {

struct ChainLinkConfig {
  uint64_t producer_nf = 0;
  uint64_t consumer_nf = 0;
  // Frames moved per hardware tick (the overt-channel rate bound).
  uint32_t frames_per_tick = 4;
};

struct ChainLinkStats {
  uint64_t frames_moved = 0;
  uint64_t frames_stalled = 0;  // head-of-line frames denied credit
  uint64_t stall_ticks = 0;     // ticks that ended with fresh TX backlogged
  uint64_t credit_faults = 0;   // ticks whose credit grant a fault withheld
  uint64_t ticks = 0;
};

// Trusted cross-VPP transfer engine. Owned by the device-level chain
// manager; functions cannot see or influence it beyond their own VPP
// queues. Records chain.hop / chain.stall instants on the
// obs::CurrentTraceRing() installed at its construction, so a frame's span
// id stays observable across the hop.
class ChainLink {
 public:
  ChainLink(SnicDevice* device, const ChainLinkConfig& config);

  // One hardware tick: grants up to frames_per_tick credits and moves that
  // many frames producer-TX -> consumer-RX. A frame the consumer cannot
  // admit stalls in the producer's TX reservation (credit-based
  // backpressure: nothing is lost between the endpoints, and both queues
  // stay bounded because the producer's own TX reservation is). Per-tick
  // work is fixed regardless of backlog, preserving the overt-channel rate
  // bound.
  void Tick();

  const ChainLinkConfig& config() const { return config_; }
  const ChainLinkStats& stats() const { return stats_; }

 private:
  SnicDevice* device_;
  ChainLinkConfig config_;
  ChainLinkStats stats_;

  obs::TraceRing* ring_;
  uint16_t ring_hop_ = 0;
  uint16_t ring_stall_ = 0;
  uint16_t ring_arg_peer_ = 0;
};

// The device-level chain manager: validates and owns links.
class ChainManager {
 public:
  explicit ChainManager(SnicDevice* device) : device_(device) {}

  // Creates a link. Fails unless both functions are live, distinct, and
  // both have VPPs. A producer may feed several consumers and vice versa
  // (fan-out/fan-in chains), but self-links are rejected. The producer's TX
  // then leaves only through its links (SnicDevice::SetTxChained).
  Result<size_t> CreateLink(const ChainLinkConfig& config);

  // Removes every link touching `nf_id` (teardown path; the NIC OS calls
  // this before NfTeardown so no link outlives its endpoints). A producer
  // left with no outgoing link drains to the wire again.
  void RemoveLinksFor(uint64_t nf_id);

  // Advances every link by one tick, in creation order.
  void TickAll();

  size_t link_count() const { return links_.size(); }
  const ChainLink& link(size_t index) const { return links_[index]; }

 private:
  SnicDevice* device_;
  std::vector<ChainLink> links_;
};

}  // namespace snic::core

#endif  // SNIC_CORE_CHAINING_H_

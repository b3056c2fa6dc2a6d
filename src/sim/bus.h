// Internal IO bus with pluggable arbitration (§4.5).
//
// Every DRAM-bound request from a core or accelerator crosses the internal
// bus. On commodity NICs requests contend freely (FCFS) — the source of the
// Agilio denial-of-service attack in §3.3 and of timing side channels. S-NIC
// inserts trusted arbiters; the evaluated prototype uses *temporal
// partitioning* [Wang et al., HPCA'14]: time is divided into fixed epochs,
// each owned by one security domain; only the owner may issue requests, and
// issue stops `dead_time` cycles before the epoch ends so in-flight
// operations drain. This removes contention-based information flow at a
// bounded throughput cost (<5% for four domains, per the paper).
//
// Two frontends share one set of grant functions (bus_detail below):
//  - BusArbiter and its virtual subclasses — the pluggable-policy interface
//    used by the NIC OS, the ablation bench, and ReferenceReplay.
//  - InlineBus — the devirtualized frontend on the replay hot path: a
//    policy switch over the same inline math, plus a per-domain rotation
//    memo for temporal partitioning so arbitration over a run of accesses
//    is incremental adds instead of a 64-bit divide per grant.
// Both produce identical grants and stats for identical request streams;
// tests/sim_differential_test.cc holds them together. Neither publishes
// metrics: the replay engines publish their full-run counts once per
// replay (src/sim/replay.cc).

#ifndef SNIC_SIM_BUS_H_
#define SNIC_SIM_BUS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/fault/fault.h"

namespace snic::sim {

struct BusStats {
  uint64_t requests = 0;
  uint64_t total_wait_cycles = 0;   // arbitration wait (grant - arrival)
  uint64_t total_busy_cycles = 0;   // cycles the bus spent transferring

  double MeanWait() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(total_wait_cycles) /
                               static_cast<double>(requests);
  }
};

// Pure grant arithmetic, shared verbatim by the virtual arbiters and
// InlineBus so the two frontends cannot drift.
namespace bus_detail {

// FCFS: a single busy-until register.
inline uint64_t FcfsGrant(uint64_t issue, uint32_t transfer_cycles,
                          uint64_t* busy_until) {
  const uint64_t grant = std::max(issue, *busy_until);
  *busy_until = grant + transfer_cycles;
  return grant;
}

// Round-robin: a back-to-back request from the same domain yields to the
// others for one slot each (approximates a rotating grant without a full
// event queue).
inline uint64_t RoundRobinGrant(uint64_t issue, uint32_t transfer_cycles,
                                uint32_t num_domains, uint32_t domain,
                                uint64_t* busy_until, uint32_t* last_domain,
                                uint64_t* domain_ready) {
  uint64_t earliest = std::max(issue, *busy_until);
  if (domain == *last_domain && *busy_until > issue) {
    earliest = std::max(earliest, domain_ready[domain]);
  }
  const uint64_t grant = earliest;
  *busy_until = grant + transfer_cycles;
  *last_domain = domain;
  // After serving this domain, its next turn is one rotation away if others
  // are contending.
  domain_ready[domain] = grant + static_cast<uint64_t>(transfer_cycles) *
                                     num_domains;
  return grant;
}

// Temporal partitioning: earliest cycle >= `cycle` inside an issue window
// of `domain`. Requires epoch > dead_time and epoch - dead_time >=
// transfer_cycles (checked by both frontends' constructors) — under that
// invariant any cycle inside the issue window also fits its transfer before
// the epoch ends, so no explicit fit check is needed here.
inline uint64_t TemporalNextIssueSlot(uint64_t cycle, uint64_t epoch,
                                      uint64_t rotation, uint64_t issue_len,
                                      uint32_t domain) {
  const uint64_t rotation_start = (cycle / rotation) * rotation;
  const uint64_t domain_start = rotation_start + domain * epoch;
  if (cycle < domain_start) {
    return domain_start;
  }
  if (cycle < domain_start + issue_len) {
    return cycle;
  }
  // Move to this domain's slot in the next rotation.
  return rotation_start + rotation + domain * epoch;
}

// Same slot computation, but with the containing rotation's start memoized
// per domain: `*rotation_start` must satisfy `*rotation_start <= cycle` and
// be a multiple of `rotation` (monotone request streams keep it fresh, so
// the common case is zero or one increment instead of a divide).
inline uint64_t TemporalNextIssueSlotMemo(uint64_t cycle, uint64_t epoch,
                                          uint64_t rotation,
                                          uint64_t issue_len, uint32_t domain,
                                          uint64_t* rotation_start) {
  uint64_t rs = *rotation_start;
  if (cycle - rs >= rotation) {
    if (cycle - rs >= 8 * rotation) {
      rs = (cycle / rotation) * rotation;  // long idle gap: one divide
    } else {
      do {
        rs += rotation;
      } while (cycle - rs >= rotation);
    }
    *rotation_start = rs;
  }
  const uint64_t domain_start = rs + domain * epoch;
  if (cycle < domain_start) {
    return domain_start;
  }
  if (cycle < domain_start + issue_len) {
    return cycle;
  }
  return rs + rotation + domain * epoch;
}

}  // namespace bus_detail

// Arbiter interface: maps (request arrival time, domain) to a grant time.
// Implementations keep whatever schedule state they need; requests must be
// presented in non-decreasing arrival order per domain (the replay engine
// guarantees global order).
class BusArbiter {
 public:
  virtual ~BusArbiter() = default;

  // Returns the cycle at which the request may begin its bus transfer.
  virtual uint64_t Grant(uint64_t arrival_cycle, uint32_t domain) = 0;

  // Cycles one transfer occupies the bus.
  virtual uint32_t transfer_cycles() const = 0;

  const BusStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BusStats(); }

 protected:
  void RecordGrant(uint64_t arrival, uint64_t grant) {
    ++stats_.requests;
    stats_.total_wait_cycles += grant - arrival;
    stats_.total_busy_cycles += transfer_cycles();
  }

  BusStats stats_;
};

// First-come-first-served: a single busy-until register. Models commodity
// NICs; request timing leaks cross-domain information.
class FcfsArbiter : public BusArbiter {
 public:
  explicit FcfsArbiter(uint32_t transfer_cycles)
      : transfer_cycles_(transfer_cycles) {}

  uint64_t Grant(uint64_t arrival_cycle, uint32_t domain) override;
  uint32_t transfer_cycles() const override { return transfer_cycles_; }

 private:
  uint32_t transfer_cycles_;
  uint64_t busy_until_ = 0;
};

// Round-robin between domains with per-domain queues: fair bandwidth but
// still leaky (a domain observes delay when another domain is active).
class RoundRobinArbiter : public BusArbiter {
 public:
  RoundRobinArbiter(uint32_t transfer_cycles, uint32_t num_domains);

  uint64_t Grant(uint64_t arrival_cycle, uint32_t domain) override;
  uint32_t transfer_cycles() const override { return transfer_cycles_; }

 private:
  uint32_t transfer_cycles_;
  uint32_t num_domains_;
  uint64_t busy_until_ = 0;
  uint32_t last_domain_ = 0;
  std::vector<uint64_t> domain_ready_;  // earliest next grant per domain
};

// Temporal partitioning: fixed epochs round-robin over domains; issue only
// in the first (epoch - dead_time) cycles of the owner's epoch. A domain's
// grant schedule is a pure function of the wall clock and its own request
// stream — zero cross-domain information flow.
class TemporalPartitionArbiter : public BusArbiter {
 public:
  struct Config {
    uint32_t transfer_cycles = 8;
    uint32_t num_domains = 4;
    uint32_t epoch_cycles = 96;
    uint32_t dead_time_cycles = 12;  // tail where no new op may issue
  };

  explicit TemporalPartitionArbiter(const Config& config);

  uint64_t Grant(uint64_t arrival_cycle, uint32_t domain) override;
  uint32_t transfer_cycles() const override {
    return config_.transfer_cycles;
  }

  const Config& config() const { return config_; }

  // Earliest cycle >= `cycle` that lies in an issue window of `domain`.
  uint64_t NextIssueSlot(uint64_t cycle, uint32_t domain) const;

 private:
  Config config_;
  std::vector<uint64_t> domain_busy_until_;  // per-domain pipeline head
};

// Factory covering the policies compared in the ablation bench.
enum class BusPolicy {
  kFcfs,
  kRoundRobin,
  kTemporalPartition,
};

std::unique_ptr<BusArbiter> MakeArbiter(BusPolicy policy,
                                        uint32_t transfer_cycles,
                                        uint32_t num_domains,
                                        uint32_t epoch_cycles = 96,
                                        uint32_t dead_time_cycles = 12);

// Devirtualized arbiter for the replay hot path: same policies, same grant
// schedule, same stats as the MakeArbiter() family, but
// Grant() is a non-virtual inline switch and the temporal policy amortizes
// window arithmetic across a run of requests via a per-domain rotation
// memo. Requests must be presented in the same (globally ordered) way the
// replay engine produces them.
class InlineBus {
 public:
  InlineBus(BusPolicy policy, uint32_t transfer_cycles, uint32_t num_domains,
            uint32_t epoch_cycles, uint32_t dead_time_cycles)
      : policy_(policy),
        transfer_cycles_(transfer_cycles),
        num_domains_(num_domains),
        epoch_(epoch_cycles),
        rotation_(static_cast<uint64_t>(epoch_cycles) * num_domains),
        issue_len_(epoch_cycles - dead_time_cycles) {
    SNIC_CHECK(num_domains_ > 0);
    if (policy_ == BusPolicy::kTemporalPartition) {
      SNIC_CHECK(epoch_cycles > dead_time_cycles);
      SNIC_CHECK(epoch_cycles - dead_time_cycles >= transfer_cycles);
    }
    domain_ready_.assign(num_domains_, 0);
    domain_busy_until_.assign(num_domains_, 0);
    rotation_start_.assign(num_domains_, 0);
  }

  uint64_t Grant(uint64_t arrival_cycle, uint32_t domain) {
    SNIC_CHECK(domain < num_domains_ || policy_ == BusPolicy::kFcfs);
    // Same fault site, same position in the grant pipeline, as the virtual
    // arbiters: an injected bus timeout stalls the request before
    // arbitration and shows up in the domain's own stats.
    const uint64_t issue =
        arrival_cycle + SNIC_FAULT_STALL(fault::sites::kBusTimeout, domain);
    uint64_t grant;
    switch (policy_) {
      case BusPolicy::kFcfs:
        grant = bus_detail::FcfsGrant(issue, transfer_cycles_, &busy_until_);
        break;
      case BusPolicy::kRoundRobin:
        grant = bus_detail::RoundRobinGrant(
            issue, transfer_cycles_, num_domains_, domain, &busy_until_,
            &last_domain_, domain_ready_.data());
        break;
      case BusPolicy::kTemporalPartition:
      default: {
        const uint64_t earliest =
            std::max(issue, domain_busy_until_[domain]);
        grant = bus_detail::TemporalNextIssueSlotMemo(
            earliest, epoch_, rotation_, issue_len_, domain,
            &rotation_start_[domain]);
        domain_busy_until_[domain] = grant + transfer_cycles_;
        break;
      }
    }
    ++stats_.requests;
    stats_.total_wait_cycles += grant - arrival_cycle;
    stats_.total_busy_cycles += transfer_cycles_;
    return grant;
  }

  uint32_t transfer_cycles() const { return transfer_cycles_; }
  const BusStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BusStats(); }

 private:
  BusPolicy policy_;
  uint32_t transfer_cycles_;
  uint32_t num_domains_;
  uint64_t epoch_;
  uint64_t rotation_;
  uint64_t issue_len_;
  uint64_t busy_until_ = 0;            // FCFS / round-robin
  uint32_t last_domain_ = 0;           // round-robin
  std::vector<uint64_t> domain_ready_;       // round-robin
  std::vector<uint64_t> domain_busy_until_;  // temporal
  std::vector<uint64_t> rotation_start_;     // temporal window memo
  BusStats stats_;
};

}  // namespace snic::sim

#endif  // SNIC_SIM_BUS_H_

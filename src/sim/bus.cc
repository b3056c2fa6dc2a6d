#include "src/sim/bus.h"

#include <algorithm>

#include "src/fault/fault.h"

namespace snic::sim {

uint64_t FcfsArbiter::Grant(uint64_t arrival_cycle, uint32_t domain) {
  // An injected bus timeout stalls the request before arbitration; the extra
  // wait shows up in the domain's own stats, like a real stalled transfer.
  const uint64_t issue =
      arrival_cycle + SNIC_FAULT_STALL(fault::sites::kBusTimeout, domain);
  const uint64_t grant =
      bus_detail::FcfsGrant(issue, transfer_cycles_, &busy_until_);
  RecordGrant(arrival_cycle, grant);
  return grant;
}

RoundRobinArbiter::RoundRobinArbiter(uint32_t transfer_cycles,
                                     uint32_t num_domains)
    : transfer_cycles_(transfer_cycles), num_domains_(num_domains) {
  SNIC_CHECK(num_domains_ > 0);
  domain_ready_.assign(num_domains_, 0);
}

uint64_t RoundRobinArbiter::Grant(uint64_t arrival_cycle, uint32_t domain) {
  SNIC_CHECK(domain < num_domains_);
  const uint64_t issue =
      arrival_cycle + SNIC_FAULT_STALL(fault::sites::kBusTimeout, domain);
  const uint64_t grant = bus_detail::RoundRobinGrant(
      issue, transfer_cycles_, num_domains_, domain, &busy_until_,
      &last_domain_, domain_ready_.data());
  RecordGrant(arrival_cycle, grant);
  return grant;
}

TemporalPartitionArbiter::TemporalPartitionArbiter(const Config& config)
    : config_(config) {
  SNIC_CHECK(config_.num_domains > 0);
  SNIC_CHECK(config_.epoch_cycles > config_.dead_time_cycles);
  SNIC_CHECK(config_.epoch_cycles - config_.dead_time_cycles >=
             config_.transfer_cycles);
  domain_busy_until_.assign(config_.num_domains, 0);
}

uint64_t TemporalPartitionArbiter::NextIssueSlot(uint64_t cycle,
                                                 uint32_t domain) const {
  const uint64_t epoch = config_.epoch_cycles;
  return bus_detail::TemporalNextIssueSlot(
      cycle, epoch, epoch * config_.num_domains,
      epoch - config_.dead_time_cycles, domain);
}

uint64_t TemporalPartitionArbiter::Grant(uint64_t arrival_cycle,
                                         uint32_t domain) {
  SNIC_CHECK(domain < config_.num_domains);
  const uint64_t issue =
      arrival_cycle + SNIC_FAULT_STALL(fault::sites::kBusTimeout, domain);
  // Serialize within the domain (one outstanding transfer), then snap to the
  // domain's next issue window. Other domains' traffic never appears in this
  // computation — that is the security property (and an injected stall in
  // one domain still cannot shift another domain's schedule).
  const uint64_t earliest = std::max(issue, domain_busy_until_[domain]);
  const uint64_t grant = NextIssueSlot(earliest, domain);
  domain_busy_until_[domain] = grant + config_.transfer_cycles;
  RecordGrant(arrival_cycle, grant);
  return grant;
}

std::unique_ptr<BusArbiter> MakeArbiter(BusPolicy policy,
                                        uint32_t transfer_cycles,
                                        uint32_t num_domains,
                                        uint32_t epoch_cycles,
                                        uint32_t dead_time_cycles) {
  switch (policy) {
    case BusPolicy::kFcfs:
      return std::make_unique<FcfsArbiter>(transfer_cycles);
    case BusPolicy::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(transfer_cycles, num_domains);
    case BusPolicy::kTemporalPartition: {
      TemporalPartitionArbiter::Config config;
      config.transfer_cycles = transfer_cycles;
      config.num_domains = num_domains;
      config.epoch_cycles = epoch_cycles;
      config.dead_time_cycles = dead_time_cycles;
      return std::make_unique<TemporalPartitionArbiter>(config);
    }
  }
  SNIC_CHECK(false);
  return nullptr;
}

}  // namespace snic::sim

// Stateful firewall NF (§5.1).
//
// Drops packets by scanning an ordered rule list (643 rules, the
// SafeBricks/Emerging-Threats configuration); recently matched flows are
// cached in a hash map bounded to 200,000 entries (the Open vSwitch cached-
// flow limit the paper cites).

#ifndef SNIC_NF_FIREWALL_H_
#define SNIC_NF_FIREWALL_H_

#include <cstdint>
#include <vector>

#include "src/net/switching.h"
#include "src/nf/flow_hash_map.h"
#include "src/nf/network_function.h"

namespace snic::nf {

struct FirewallRule {
  net::SwitchRule match;
  bool allow = false;
};

struct FirewallConfig {
  size_t num_rules = 643;
  size_t cache_max_entries = 200'000;
  uint64_t seed = 7;
};

class Firewall : public NetworkFunction {
 public:
  explicit Firewall(const FirewallConfig& config = {});

  // Explicit rules instead of the generated set (tests).
  Firewall(std::vector<FirewallRule> rules, size_t cache_max_entries);

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  size_t rule_count() const { return rules_.size(); }

  // Deterministic ruleset with Emerging-Threats-like structure: CIDR
  // prefixes over common service ports, 70% of them allow rules, and a
  // final default-allow rule.
  static std::vector<FirewallRule> GenerateRules(size_t count, uint64_t seed);

 protected:
  Verdict HandlePacket(net::Packet& packet) override;
  ImageSections Image() const override { return {0.87, 0.08, 2.50}; }
  uint64_t FlowTableEntries() const override {
    return cache_ == nullptr ? 0 : cache_->size();
  }

 private:
  void Init(std::vector<FirewallRule> rules, size_t cache_max_entries);

  std::vector<FirewallRule> rules_;
  ArenaAllocation rules_allocation_;
  std::unique_ptr<FlowHashMap<uint8_t>> cache_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace snic::nf

#endif  // SNIC_NF_FIREWALL_H_

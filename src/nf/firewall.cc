#include "src/nf/firewall.h"

#include "src/common/rng.h"
#include "src/net/parser.h"

namespace snic::nf {
namespace {

// Fraction of generated rules that allow (the rest deny).
constexpr double kAllowFraction = 0.7;

}  // namespace

std::vector<FirewallRule> Firewall::GenerateRules(size_t count,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<FirewallRule> rules;
  rules.reserve(count);
  static constexpr uint16_t kServicePorts[] = {22,  25,  53,   80,  110, 143,
                                               443, 445, 3306, 5432, 6379, 8080};
  for (size_t i = 0; i + 1 < count; ++i) {
    FirewallRule rule;
    net::SwitchRule::IpPrefix prefix;
    if (i % 8 == 3) {
      // Broad rules over the monitored address space: real rulesets place
      // high-prevalence rules that terminate most scans early.
      prefix.addr = 0xc0a80000u | (rng.NextU32() & 0x00000c00u);
      prefix.prefix_len = 22;
    } else {
      prefix.addr = rng.NextU32();
      prefix.prefix_len = static_cast<uint8_t>(8 + rng.NextBounded(17));
    }
    if (prefix.prefix_len != 22 && rng.NextBounded(2) == 0) {
      rule.match.src_ip = prefix;
    } else {
      rule.match.dst_ip = prefix;
    }
    if (rng.NextBounded(3) != 0) {
      rule.match.dst_port = kServicePorts[rng.NextBounded(std::size(kServicePorts))];
    }
    if (rng.NextBounded(4) == 0) {
      rule.match.protocol = static_cast<uint8_t>(
          rng.NextBounded(2) == 0 ? net::IpProto::kTcp : net::IpProto::kUdp);
    }
    rule.allow = rng.NextDouble() < kAllowFraction;
    rules.push_back(rule);
  }
  // Default rule: allow everything not otherwise matched.
  FirewallRule default_rule;
  default_rule.allow = true;
  rules.push_back(default_rule);
  return rules;
}

Firewall::Firewall(const FirewallConfig& config) : NetworkFunction("FW") {
  Init(GenerateRules(config.num_rules, config.seed), config.cache_max_entries);
}

Firewall::Firewall(std::vector<FirewallRule> rules, size_t cache_max_entries)
    : NetworkFunction("FW") {
  Init(std::move(rules), cache_max_entries);
}

void Firewall::Init(std::vector<FirewallRule> rules,
                    size_t cache_max_entries) {
  rules_ = std::move(rules);
  // The rule list lives in NF RAM; model ~128 B per compiled rule.
  rules_allocation_ = arena().Alloc(rules_.size() * 128, "fw-rules");
  // Bounded cache: capacity sized so the bound, not the load factor, is the
  // limiting constraint (200k entries -> 512k slots).
  cache_ = std::make_unique<FlowHashMap<uint8_t>>(
      &arena(), &recorder_, cache_max_entries * 2, cache_max_entries,
      "fw-cache");
}

Verdict Firewall::HandlePacket(net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    return Verdict::kDrop;
  }
  const net::FiveTuple tuple = parsed.value().Tuple();

  if (const uint8_t* verdict = cache_->Find(tuple)) {
    ++cache_hits_;
    recorder_.Compute(4);
    return *verdict == 1 ? Verdict::kForward : Verdict::kDrop;
  }
  ++cache_misses_;

  // Linear scan of the rule list, touching each rule's RAM.
  bool allow = true;
  for (size_t i = 0; i < rules_.size(); ++i) {
    recorder_.Load(rules_allocation_.base + i * 128);
    recorder_.Compute(8);
    if (rules_[i].match.Matches(parsed.value())) {
      allow = rules_[i].allow;
      break;
    }
  }
  cache_->Insert(tuple, allow ? uint8_t{1} : uint8_t{0});
  return allow ? Verdict::kForward : Verdict::kDrop;
}

}  // namespace snic::nf

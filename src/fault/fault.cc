#include "src/fault/fault.h"

#include <utility>

#include "src/obs/span_names.h"

namespace snic::fault {

namespace internal {
thread_local constinit FaultPlane* tls_plane = nullptr;
}  // namespace internal

FaultPlane::FaultPlane()
    : registry_(&obs::DefaultRegistry()), ring_(obs::CurrentTraceRing()) {
  if (ring_ != nullptr) {
    ring_fired_ = ring_->Intern(obs::spans::kFaultFired);
    ring_arg_site_ = ring_->Intern(obs::spans::kArgSite);
  }
}

void FaultPlane::AddRule(FaultRule rule) {
  RuleState& state = rules_.emplace_back(RuleState{std::move(rule)});
  obs::Labels labels;
  labels.emplace_back("site", state.rule.site);
  labels.emplace_back("nf", state.rule.nf_id == kAnyNf
                                ? std::string("any")
                                : std::to_string(state.rule.nf_id));
  state.obs_injected = &registry_->GetCounter("fault.injected", labels);
  if (ring_ != nullptr) {
    // Rule sites are schedule data, not compile-time span names; they live
    // in the fault-site registry. snic-lint: allow(span-name-registry)
    state.ring_site = ring_->Intern(state.rule.site);
  }
}

bool FaultPlane::Evaluate(std::string_view site, uint64_t nf_id,
                          uint64_t attempt, uint64_t* stall) {
  bool fired = false;
  for (RuleState& state : rules_) {
    const FaultRule& rule = state.rule;
    if (rule.site != site) {
      continue;
    }
    if (rule.nf_id != kAnyNf && rule.nf_id != nf_id) {
      continue;
    }
    if (rule.on_attempt != 0 && rule.on_attempt != attempt) {
      // Attempt predicate mismatch: not a hit for this rule at all, so its
      // counters stay untouched — "fire on the Nth recovery attempt" cannot
      // be skewed by other traffic at the site.
      continue;
    }
    const uint64_t hit = state.hits++;
    if (hit < rule.skip) {
      continue;
    }
    const uint64_t armed = hit - rule.skip;
    const bool in_window =
        rule.period == 0
            ? (rule.count == FaultRule::kForever || armed < rule.count)
            : (armed % rule.period) < rule.count;
    if (!in_window) {
      continue;
    }
    fired = true;
    *stall += rule.stall_cycles;
    ++state.injected;
    ++injected_total_;
    state.obs_injected->Inc();
    if (ring_ != nullptr) {
      ring_->EmitInstant(ring_fired_, now_, static_cast<uint32_t>(nf_id),
                         /*tid=*/0, /*span=*/0, state.ring_site,
                         ring_arg_site_, /*arg_is_name=*/true);
    }
  }
  return fired;
}

bool FaultPlane::Fires(std::string_view site, uint64_t nf_id,
                       uint64_t attempt) {
  uint64_t stall = 0;
  return Evaluate(site, nf_id, attempt, &stall);
}

uint64_t FaultPlane::StallCycles(std::string_view site, uint64_t nf_id) {
  uint64_t stall = 0;
  Evaluate(site, nf_id, /*attempt=*/0, &stall);
  return stall;
}

void FaultPlane::RetargetRules(uint64_t old_nf, uint64_t new_nf) {
  for (RuleState& state : rules_) {
    if (state.rule.nf_id == old_nf) {
      // The obs series keeps its original nf label (the schedule's
      // identity); only the live filter moves.
      state.rule.nf_id = new_nf;
    }
  }
}

uint64_t FaultPlane::InjectedAt(std::string_view site) const {
  uint64_t total = 0;
  for (const RuleState& state : rules_) {
    if (state.rule.site == site) {
      total += state.injected;
    }
  }
  return total;
}

FaultPlane* CurrentFaultPlane() { return internal::tls_plane; }

ScopedFaultPlane::ScopedFaultPlane(FaultPlane* plane)
    : previous_(internal::tls_plane) {
  internal::tls_plane = plane;
}

ScopedFaultPlane::~ScopedFaultPlane() { internal::tls_plane = previous_; }

}  // namespace snic::fault

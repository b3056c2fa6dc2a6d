// Scenario-spec inputs that must reject, each with a substring its error
// must contain. ScenarioSpecTest.RejectsPreciselyNotLeniently
// (scenario_test.cc) checks the substrings; the decode-outcome pin
// ScenarioSpecFuzzTest.DecodeOutcomeKnownAnswers (fuzz_roundtrip_test.cc)
// folds each input's exact message into its digest, so rows added here move
// that pin.

#ifndef SNIC_TESTS_SCENARIO_SPEC_CASES_H_
#define SNIC_TESTS_SCENARIO_SPEC_CASES_H_

namespace snic::scenario {

struct SpecRejectCase {
  const char* json;
  const char* error_substring;
};

inline constexpr SpecRejectCase kSpecRejectCases[] = {
    {"", "JSON"},
    {"[]", "object"},
    {R"({"steps": 10, "tenants": []})", "name"},
    {R"({"name": "t", "steps": 10})", "tenants"},
    {R"({"name": "t", "steps": 10, "tenants": [], "bogus": 1})", "bogus"},
    {R"({"name": "t", "steps": 0, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}]})",
     "steps"},
    {R"({"name": "t", "steps": 1.5, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}]})",
     "integer"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "pilot"}]})",
     "role"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"},
          {"name": "a", "port": 2, "role": "workload"}]})",
     "duplicate"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}],
         "faults": [{"site": "no.such.site", "nf": "a"}]})",
     "no.such.site"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}],
         "faults": [{"site": "vpp.rx.drop", "nf": "ghost"}]})",
     "ghost"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}],
         "faults": [{"site": "vpp.rx.drop", "nf": "a", "on_attempt": 1}]})",
     "on_attempt"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "attacker"}]})",
     "vf"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload", "bus_domain": 0}]})",
     "bus_domain"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}],
         "verdicts": {"bystander_identical": true}})",
     "bystander"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}],
         "overload": {"target": "a", "downstream": "ghost"}})",
     "overload.downstream: \"ghost\" is not a declared tenant"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"}],
         "overload": {"target": "a", "downstream": "a"}})",
     "overload.downstream: must differ from the target"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"},
          {"name": "b", "port": 2, "role": "bystander"}],
         "overload": {"target": "a", "downstream": "b"}})",
     "overload.downstream: \"b\" is not a workload-role tenant"},
    {R"({"name": "t", "steps": 10, "tenants":
         [{"name": "a", "port": 1, "role": "workload"},
          {"name": "b", "port": 2, "role": "workload"}],
         "overload": {"target": "a", "downstream": 2}})",
     "overload.downstream: expected a string"},
};

}  // namespace snic::scenario

#endif  // SNIC_TESTS_SCENARIO_SPEC_CASES_H_

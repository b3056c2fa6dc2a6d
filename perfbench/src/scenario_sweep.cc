// scenario_sweep: one op is scenario::EvaluateScenario on one spec — the
// subject constellation plus its baseline twin when a differential verdict
// needs one. This is the sweep users wait for, and it is dominated by the
// control plane (SHA-256 and bignum), so crypto and mgmt changes move it.
//
// Inputs: the scenario matrix as `scenario_matrix --specs=bench/scenarios`
// runs it — GenerateScenarios at the matrix's seed, serialized to JSON text,
// then the curated specs — decoded by the program in set-up. Each op runs a
// spec with the seed the matrix gives it, so every verdict is the matrix's
// PASS. The op cycle is a fixed stratified sample (one spec of each family
// a-f, three curated: an odd count, so the median op falls inside one
// spec's samples); --seed permutes the order within every cycle. Specs
// differ several-fold in cost, so the harness reports ops/s and the median
// over whole cycles: every run then measures the same multiset of specs.

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/core/snic_device.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/supervisor.h"
#include "src/mgmt/verifier.h"
#include "src/runtime/sweep.h"
#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace perfbench {
namespace {

using namespace snic;

std::vector<std::string> ReadCuratedSpecs(const std::string& dir) {
  std::vector<std::string> files;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 5 && name.substr(name.size() - 5) == ".json") {
        files.push_back(name);
      }
    }
    closedir(d);
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const std::string& file : files) {
    std::ifstream in(dir + "/" + file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

// The image scenario::RunConstellation launches for a tenant (a copy of the
// runner's own MakeImage, which it does not export).
mgmt::FunctionImage RunnerImage(const scenario::TenantSpec& tenant) {
  mgmt::FunctionImage image;
  image.name = tenant.name;
  image.code_and_data.assign(3000, 0xab);
  image.cores = 1;
  image.memory_bytes = 8ull << 20;
  image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
      tenant.zip_clusters;
  if (tenant.has_policy) {
    const scenario::OverloadPolicySpec& p = tenant.policy;
    image.overload.rx_queue_capacity_frames = p.rx_queue_capacity_frames;
    image.overload.tx_queue_capacity_frames = p.tx_queue_capacity_frames;
    image.overload.drop_policy = p.priority_early_drop
                                     ? core::DropPolicy::kPriorityEarlyDrop
                                     : core::DropPolicy::kTailDrop;
    image.overload.admission_burst_frames = p.admission_burst_frames;
    image.overload.admission_frames_per_refill = p.admission_frames_per_refill;
    image.overload.admission_refill_cycles = p.admission_refill_cycles;
    image.overload.deadline_cycles = p.deadline_cycles;
  }
  net::SwitchRule rule;
  rule.dst_port = tenant.port;
  image.switch_rules.push_back(rule);
  return image;
}

core::SnicConfig RunnerDeviceConfig() {
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 256ull << 20;
  config.rsa_modulus_bits = 512;
  return config;
}

class ScenarioSweep : public Workload {
 public:
  explicit ScenarioSweep(const WorkloadArgs& args)
      : seed_(args.seed),
        tracer_(*args.tracer),
        span_generate_(tracer_.Intern("scenario.generate")),
        span_parse_(tracer_.Intern("scenario.parse")),
        span_evaluate_(tracer_.Intern("scenario.evaluate")),
        span_subject_(tracer_.Intern("scenario.subject")),
        span_twin_(tracer_.Intern("scenario.twin")),
        span_boot_(tracer_.Intern("core.device_boot")),
        span_adopt_(tracer_.Intern("mgmt.adopt")) {
    // Input generation: the matrix's generated families as canonical JSON
    // text, then the curated files as they are checked in.
    std::vector<std::string> texts;
    std::vector<std::vector<size_t>> strata(7);
    {
      ScopedSpan span(tracer_, span_generate_);
      for (const scenario::ScenarioSpec& spec :
           scenario::GenerateScenarios(kMatrixSeed)) {
        strata[std::min<size_t>(static_cast<size_t>(spec.name[0] - 'a'), 5)]
            .push_back(texts.size());
        texts.push_back(scenario::SerializeScenarioSpec(spec));
      }
    }
    for (std::string& text : ReadCuratedSpecs(args.specs_dir)) {
      strata[6].push_back(texts.size());
      texts.push_back(std::move(text));
    }
    for (size_t s = 0; s < strata.size(); ++s) {
      const size_t take = s == 6 ? 3 : 1;
      for (size_t k = 0; k < take && !strata[s].empty(); ++k) {
        cycle_.push_back(
            strata[s][(2 * k + 1) * strata[s].size() / (2 * take)]);
      }
    }
    Rng order(seed_);
    order_ = PermutedCycles(cycle_.size(), kCycles, order);

    // The program's half of set-up: decode every spec, re-serialize it.
    {
      ScopedSpan span(tracer_, span_parse_);
      for (const std::string& text : texts) {
        auto spec = scenario::ParseScenarioSpec(text);
        if (!spec.ok()) {
          parse_errors_.push_back(spec.status().message());
          specs_.emplace_back();
          continue;
        }
        const std::string canonical =
            scenario::SerializeScenarioSpec(spec.value());
        (void)canonical;
        specs_.push_back(std::move(spec).value());
      }
    }
    Rng vendor_rng(2);
    vendor_ = std::make_unique<crypto::VendorAuthority>(512, vendor_rng);
  }

  uint64_t CycleOps() const override { return cycle_.size(); }

  void RunOp(uint64_t op) override {
    const size_t index = SpecOf(op);
    ScopedSpan span(tracer_, span_evaluate_);
    verdict_ = scenario::EvaluateScenario(
        specs_[index], runtime::DeriveTaskSeed(kMatrixSeed, index));
  }

  bool CheckOp(uint64_t op, std::string* why) override {
    if (!parse_errors_.empty() || cycle_.size() != 9) {
      *why = parse_errors_.empty() ? "curated specs missing"
                                   : "spec rejected: " + parse_errors_.front();
      return false;
    }
    if (!verdict_.pass) {
      *why = specs_[SpecOf(op)].name + ": " + verdict_.detail;
      return false;
    }
    return true;
  }

  // Splits the op into its subject and twin runs, and takes the fixed-cost
  // device boot and Supervisor adoption probes.
  void Probe(uint64_t op) override {
    const size_t index = SpecOf(op);
    const scenario::ScenarioSpec& spec = specs_[index];
    const uint64_t seed = runtime::DeriveTaskSeed(kMatrixSeed, index);
    scenario::RunResult subject;
    {
      ScopedSpan span(tracer_, span_subject_);
      subject = scenario::RunConstellation(spec, seed);
    }
    Count(subject);
    CountLaunches(spec, subject);
    if (spec.verdicts.bystander_identical ||
        spec.verdicts.goodput_floor_pct > 0) {
      const scenario::ScenarioSpec twin_spec = scenario::BaselineTwin(spec);
      scenario::RunResult twin;
      {
        ScopedSpan span(tracer_, span_twin_);
        twin = scenario::RunConstellation(twin_spec, seed);
      }
      CountLaunches(twin_spec, twin);
    }

    std::unique_ptr<core::SnicDevice> device;
    {
      ScopedSpan span(tracer_, span_boot_);
      device = std::make_unique<core::SnicDevice>(RunnerDeviceConfig(),
                                                  *vendor_);
    }
    mgmt::NicOs nic_os(device.get());
    mgmt::Supervisor supervisor(&nic_os, vendor_->public_key(),
                                mgmt::SupervisorConfig{});
    scenario::TenantSpec probe;
    probe.name = "probe";
    probe.port = 7000;
    const mgmt::FunctionImage image = RunnerImage(probe);
    ScopedSpan span(tracer_, span_adopt_);
    adopt_ok_ &= supervisor.Adopt(image).ok();
  }

  void LayerMetrics(const SpanTable& spans, uint64_t traced_ops,
                    Metrics* out) override {
    const double ops = static_cast<double>(std::max<uint64_t>(traced_ops, 1));
    const double probed = static_cast<double>(std::max<uint64_t>(probed_, 1));
    out->push_back({"scenario.generate_ms", MeanMs(spans, "scenario.generate"),
                    "ms"});
    out->push_back({"scenario.parse_ms", MeanMs(spans, "scenario.parse"),
                    "ms"});
    out->push_back({"scenario.evaluate_ms",
                    MeanMs(spans, "scenario.evaluate"), "ms"});
    out->push_back({"scenario.subject_ms",
                    SelfNs(spans, "scenario.subject") / ops / 1e6, "ms"});
    out->push_back({"scenario.twin_ms",
                    SelfNs(spans, "scenario.twin") / ops / 1e6, "ms"});
    out->push_back({"core.device_boot_ms", MeanMs(spans, "core.device_boot"),
                    "ms"});
    out->push_back({"mgmt.adopt_ms", adopt_ok_ ? MeanMs(spans, "mgmt.adopt")
                                               : 0.0,
                    "ms"});
    out->push_back({"mgmt.restarts", static_cast<double>(restarts_) / probed,
                    "count/op"});
    out->push_back({"fault.injected", static_cast<double>(faults_) / probed,
                    "count/op"});
    out->push_back({"core.wire_frames",
                    static_cast<double>(wire_frames_) / probed, "count/op"});
    out->push_back({"core.goodput_offered",
                    static_cast<double>(offered_) / probed, "count/op"});
    out->push_back({"core.goodput_ratio",
                    offered_ == 0 ? 0.0
                                  : static_cast<double>(goodput_) /
                                        static_cast<double>(offered_),
                    "ratio"});
    out->push_back({"image_repeat_share",
                    launches_ == 0 ? 0.0
                                   : static_cast<double>(repeats_) /
                                         static_cast<double>(launches_),
                    "ratio"});
  }

 private:
  // bench/scenario_matrix's default seed: the spec set and per-spec seeds
  // the repository pins as all-PASS.
  static constexpr uint64_t kMatrixSeed = 0x5ce9a21ull;
  // Permuted cycles prepared in set-up; a run holds far fewer ops.
  static constexpr int kCycles = 64;

  // Op 0 (the warm-up) is the first spec of the unpermuted cycle, so every
  // seed's set-up does the same work.
  size_t SpecOf(uint64_t op) const {
    return cycle_[op == 0 ? 0 : order_[(op - 1) % order_.size()]];
  }

  void Count(const scenario::RunResult& subject) {
    ++probed_;
    restarts_ += subject.supervisor.restarts;
    faults_ += subject.faults_injected;
    for (const scenario::TenantOutcome& tenant : subject.tenants) {
      wire_frames_ += tenant.wire_packets;
    }
    offered_ += subject.offered;
    goodput_ += subject.target_goodput;
  }

  // Counts one constellation run's launches and those whose measurement the
  // process has seen launched before (the share a per-image memo living as
  // long as the process could serve). Each tenant is adopted once and
  // relaunched once per successful restart, always with RunnerImage; failed
  // relaunch attempts are not attributed to a tenant and are not counted.
  void CountLaunches(const scenario::ScenarioSpec& spec,
                     const scenario::RunResult& run) {
    const uint64_t page_bytes = RunnerDeviceConfig().page_bytes;
    for (size_t i = 0; i < spec.tenants.size() && i < run.tenants.size();
         ++i) {
      const uint64_t launches = 1 + run.tenants[i].restarts;
      const bool seen =
          !measurements_
               .insert(mgmt::ExpectedMeasurement(RunnerImage(spec.tenants[i]),
                                                 page_bytes))
               .second;
      launches_ += launches;
      repeats_ += seen ? launches : launches - 1;
    }
  }

  uint64_t seed_;
  Tracer& tracer_;
  uint32_t span_generate_, span_parse_, span_evaluate_, span_subject_,
      span_twin_, span_boot_, span_adopt_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<std::string> parse_errors_;
  std::vector<size_t> cycle_;  // matrix indices of the sampled specs
  std::vector<size_t> order_;  // positions in cycle_, kCycles permutations
  std::unique_ptr<crypto::VendorAuthority> vendor_;
  scenario::ScenarioVerdict verdict_;

  bool adopt_ok_ = true;
  uint64_t probed_ = 0, restarts_ = 0, faults_ = 0, wire_frames_ = 0,
           offered_ = 0, goodput_ = 0, launches_ = 0, repeats_ = 0;
  std::set<crypto::Sha256Digest> measurements_;
};

}  // namespace

std::unique_ptr<Workload> MakeScenarioSweep(const WorkloadArgs& args) {
  return std::make_unique<ScenarioSweep>(args);
}

}  // namespace perfbench

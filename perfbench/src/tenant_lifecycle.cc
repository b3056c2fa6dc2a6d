// tenant_lifecycle: one op is one tenant's whole life on a long-lived
// device — NicOs::NfCreate, mgmt::ExpectedMeasurement, SnicDevice::NfAttest,
// Verifier::VerifyAndKey, NicOs::NfDestroy.
//
// It exercises the same crypto and mgmt layers as scenario_sweep, but with
// no key generation (the device and vendor keys are made once in set-up),
// bulk hashing on launch, a scrub on teardown, and an image that never
// repeats: each op's image carries its own name and an op stamp in its
// first bytes. A SHA-256 speed-up shows here; a memo that helps only
// repeated images predicts no change here (image_repeat_share is 0).
//
// Image sizes follow Fig. 6 (Table 6 totals, FW 17.2 MiB .. Mon 360.5 MiB)
// scaled by 1/32; a cycle launches each once, in an order the seed permutes,
// so every whole cycle does the same hashing and scrubbing. LB (13.8 MiB,
// next to FW's 17.2) is left out so a cycle holds an odd number of inputs:
// the median op then falls inside one input's samples, not between two.

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/core/snic_device.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"

namespace perfbench {
namespace {

using namespace snic;

constexpr uint64_t kPageBytes = 64 * 1024;
constexpr std::array<double, 5> kTable6MiB = {17.20, 51.14, 43.88, 68.33,
                                              360.54};
constexpr double kScale = 1.0 / 32.0;
// Pre-generated Diffie-Hellman shares, cycled; the nonce makes each quote
// fresh.
constexpr size_t kDhShares = 16;
constexpr int kCycles = 256;

class TenantLifecycle : public Workload {
 public:
  explicit TenantLifecycle(const WorkloadArgs& args)
      : tracer_(*args.tracer),
        span_create_(tracer_.Intern("mgmt.nf_create")),
        span_expected_(tracer_.Intern("mgmt.expected_measurement")),
        span_attest_(tracer_.Intern("core.nf_attest")),
        span_verify_(tracer_.Intern("mgmt.verify")),
        span_destroy_(tracer_.Intern("mgmt.nf_destroy")) {
    // The device and its keys: fixed, so set-up costs the same every seed.
    Rng vendor_rng(2);
    vendor_ = std::make_unique<crypto::VendorAuthority>(768, vendor_rng);
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 256ull << 20;
    config.page_bytes = kPageBytes;
    config.rsa_modulus_bits = 768;
    device_ = std::make_unique<core::SnicDevice>(config, *vendor_);
    nic_os_ = std::make_unique<mgmt::NicOs>(device_.get());
    verifier_ = std::make_unique<mgmt::Verifier>(vendor_->public_key());

    // Inputs from the seed: image contents, DH shares, the op order.
    Rng rng(args.seed);
    for (size_t kind = 0; kind < kTable6MiB.size(); ++kind) {
      mgmt::FunctionImage& image = images_[kind];
      image.code_and_data.resize(
          static_cast<size_t>(kTable6MiB[kind] * kScale * (1 << 20)));
      for (size_t i = 0; i < image.code_and_data.size(); i += 8) {
        const uint64_t word = rng.NextU64();
        std::memcpy(image.code_and_data.data() + i, &word,
                    std::min<size_t>(8, image.code_and_data.size() - i));
      }
      image.cores = 1;
      image.memory_bytes = 2 * image.code_and_data.size();
      net::SwitchRule rule;
      rule.dst_port = static_cast<uint16_t>(9000 + kind);
      image.switch_rules.push_back(rule);
    }
    group_ = crypto::SmallTestGroup();
    for (size_t i = 0; i < kDhShares; ++i) {
      function_dh_.emplace_back(group_, rng);
      tenant_dh_.emplace_back(group_, rng);
    }
    order_ = PermutedCycles(kTable6MiB.size(), kCycles, rng);
  }

  uint64_t CycleOps() const override { return kTable6MiB.size(); }
  uint64_t FixedOps() const override { return 2 * kTable6MiB.size(); }

  // Stamps the op's image: a unique name and the op id in its first bytes.
  void PrepareOp(uint64_t op) override {
    mgmt::FunctionImage& image = images_[KindOf(op)];
    image.name = "tenant-" + std::to_string(op);
    std::memcpy(image.code_and_data.data(), &op, sizeof(op));
    nonce_.assign(reinterpret_cast<const uint8_t*>(&op),
                  reinterpret_cast<const uint8_t*>(&op) + sizeof(op));
  }

  void RunOp(uint64_t op) override {
    const mgmt::FunctionImage& image = images_[KindOf(op)];
    result_ = OpResult{};
    result_.traced = tracer_.on();
    Result<uint64_t> nf_id = uint64_t{0};
    {
      ScopedSpan span(tracer_, span_create_);
      nf_id = nic_os_->NfCreate(image);
    }
    if (!nf_id.ok()) {
      result_.error = "nf_create: " + nf_id.status().ToString();
      return;
    }
    result_.sim_launch_ms = device_->last_launch_latency().TotalMs();
    {
      ScopedSpan span(tracer_, span_expected_);
      result_.expected = mgmt::ExpectedMeasurement(image, kPageBytes);
    }
    core::AttestationRequest request;
    request.group = group_;
    request.nonce = nonce_;
    request.g_x = function_dh_[op % kDhShares].public_value();
    Result<core::AttestationQuote> quote = core::AttestationQuote{};
    {
      ScopedSpan span(tracer_, span_attest_);
      quote = device_->NfAttest(nf_id.value(), request);
    }
    if (quote.ok()) {
      result_.measured = quote.value().measurement;
      ScopedSpan span(tracer_, span_verify_);
      verifier_->ExpectFunction(image.name, result_.expected);
      result_.verified = verifier_
                             ->VerifyAndKey(image.name, quote.value(), nonce_,
                                            tenant_dh_[op % kDhShares])
                             .ok();
    } else {
      result_.error = "nf_attest: " + quote.status().ToString();
    }
    result_.pages = device_->memory().PagesOwnedBy(nf_id.value());
    Status destroyed = OkStatus();
    {
      ScopedSpan span(tracer_, span_destroy_);
      destroyed = nic_os_->NfDestroy(nf_id.value());
    }
    if (!destroyed.ok()) {
      result_.error = "nf_destroy: " + destroyed.ToString();
    }
    result_.sim_teardown_ms = device_->last_teardown_latency().TotalMs();
  }

  bool CheckOp(uint64_t op, std::string* why) override {
    const uint64_t measured_bytes =
        (images_[KindOf(op)].code_and_data.size() + kPageBytes - 1) /
        kPageBytes * kPageBytes;
    if (result_.traced) {
      traced_measured_bytes_ += measured_bytes;
      traced_scrubbed_bytes_ += result_.pages.size() * kPageBytes;
    }
    if (op >= 1 && op <= FixedOps()) {
      sim_launch_ms_ += result_.sim_launch_ms;
      sim_teardown_ms_ += result_.sim_teardown_ms;
      fixed_measured_bytes_ += measured_bytes;
      fixed_scrubbed_bytes_ += result_.pages.size() * kPageBytes;
    }
    ++launches_;
    if (!measurements_.insert(result_.measured).second) {
      ++repeats_;
    }
    if (!result_.error.empty()) {
      *why = result_.error;
      return false;
    }
    if (result_.measured != result_.expected) {
      *why = "device measurement differs from ExpectedMeasurement";
      return false;
    }
    if (!result_.verified) {
      *why = "quote did not verify";
      return false;
    }
    std::vector<uint8_t> data(kPageBytes);
    for (uint64_t page : result_.pages) {
      device_->memory().Read(page * kPageBytes, data);
      if (std::any_of(data.begin(), data.end(),
                      [](uint8_t b) { return b != 0; })) {
        *why = "freed page " + std::to_string(page) + " not scrubbed";
        return false;
      }
    }
    return true;
  }

  void LayerMetrics(const SpanTable& spans, uint64_t /*traced_ops*/,
                    Metrics* out) override {
    const double fixed = static_cast<double>(FixedOps());
    for (const char* name :
         {"mgmt.nf_create", "mgmt.expected_measurement", "core.nf_attest",
          "mgmt.verify", "mgmt.nf_destroy"}) {
      out->push_back({std::string(name) + "_ms", MeanMs(spans, name), "ms"});
    }
    out->push_back({"core.bytes_measured",
                    static_cast<double>(fixed_measured_bytes_) / fixed,
                    "bytes/op"});
    out->push_back({"core.bytes_scrubbed",
                    static_cast<double>(fixed_scrubbed_bytes_) / fixed,
                    "bytes/op"});
    const auto rate = [&](uint64_t bytes, const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() || it->second.total_ns == 0.0
                 ? 0.0
                 : static_cast<double>(bytes) / 1e6 /
                       (it->second.total_ns / 1e9);
    };
    out->push_back({"crypto.sha_mb_per_s",
                    rate(traced_measured_bytes_, "mgmt.expected_measurement"),
                    "MB/s"});
    out->push_back({"core.scrub_mb_per_s",
                    rate(traced_scrubbed_bytes_, "mgmt.nf_destroy"), "MB/s"});
    out->push_back({"core.sim_launch_ms", sim_launch_ms_ / fixed, "sim_ms"});
    out->push_back(
        {"core.sim_teardown_ms", sim_teardown_ms_ / fixed, "sim_ms"});
    out->push_back({"image_repeat_share",
                    static_cast<double>(repeats_) /
                        static_cast<double>(std::max<uint64_t>(launches_, 1)),
                    "ratio"});
  }

 private:
  struct OpResult {
    std::string error;
    bool traced = false;
    crypto::Sha256Digest expected{};
    crypto::Sha256Digest measured{};
    bool verified = false;
    std::vector<uint64_t> pages;
    double sim_launch_ms = 0.0;
    double sim_teardown_ms = 0.0;
  };

  // Op 0 (the warm-up) launches the first image; op k >= 1 runs position
  // k - 1 of the permuted cycles, so ops 1..5, 6..10, ... are whole cycles.
  size_t KindOf(uint64_t op) const {
    return op == 0 ? 0 : order_[(op - 1) % order_.size()];
  }

  Tracer& tracer_;
  uint32_t span_create_, span_expected_, span_attest_, span_verify_,
      span_destroy_;
  std::unique_ptr<crypto::VendorAuthority> vendor_;
  std::unique_ptr<core::SnicDevice> device_;
  std::unique_ptr<mgmt::NicOs> nic_os_;
  std::unique_ptr<mgmt::Verifier> verifier_;
  std::array<mgmt::FunctionImage, kTable6MiB.size()> images_;
  crypto::DhGroup group_;
  std::vector<crypto::DhParticipant> function_dh_;
  std::vector<crypto::DhParticipant> tenant_dh_;
  std::vector<size_t> order_;
  std::vector<uint8_t> nonce_;
  OpResult result_;

  std::set<crypto::Sha256Digest> measurements_;
  uint64_t launches_ = 0, repeats_ = 0;
  uint64_t traced_measured_bytes_ = 0, traced_scrubbed_bytes_ = 0;
  uint64_t fixed_measured_bytes_ = 0, fixed_scrubbed_bytes_ = 0;
  double sim_launch_ms_ = 0.0, sim_teardown_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantLifecycle(const WorkloadArgs& args) {
  return std::make_unique<TenantLifecycle>(args);
}

}  // namespace perfbench

#include "src/mgmt/autoscaler.h"

namespace snic::mgmt {
namespace {

// Utilization that triggers +1 instance, and the one that triggers -1; the
// gap between them is the hysteresis band that keeps a steady load from
// flapping.
constexpr double kScaleUpThreshold = 0.85;
constexpr double kScaleDownThreshold = 0.45;

}  // namespace

Autoscaler::Autoscaler(NicOs* nic_os, AutoscalerConfig config)
    : nic_os_(nic_os), config_(std::move(config)) {
  SNIC_CHECK(config_.capacity_per_instance > 0.0);
  SNIC_CHECK(config_.min_instances >= 1);
  SNIC_CHECK(config_.max_instances >= config_.min_instances);
  while (instances() < config_.min_instances) {
    SNIC_CHECK_OK(ScaleUp());
  }
}

Autoscaler::~Autoscaler() {
  for (uint64_t id : live_) {
    (void)nic_os_->NfDestroy(id);
  }
}

Status Autoscaler::ScaleUp() {
  const auto id = nic_os_->NfCreate(config_.image);
  if (!id.ok()) {
    return id.status();
  }
  live_.push_back(id.value());
  ++stats_.launches;
  stats_.launch_ms_paid +=
      nic_os_->device().last_launch_latency().TotalMs();
  return OkStatus();
}

Status Autoscaler::ScaleDown() {
  SNIC_CHECK(!live_.empty());
  const uint64_t id = live_.back();
  if (Status s = nic_os_->NfDestroy(id); !s.ok()) {
    return s;
  }
  live_.pop_back();
  ++stats_.teardowns;
  stats_.teardown_ms_paid +=
      nic_os_->device().last_teardown_latency().TotalMs();
  return OkStatus();
}

Status Autoscaler::Step(double offered_load) {
  ++stats_.steps;
  const double capacity = Capacity();
  const double utilization = capacity == 0.0 ? 1.0 : offered_load / capacity;
  stats_.utilization_sum += utilization > 1.0 ? 1.0 : utilization;
  if (offered_load > capacity) {
    ++stats_.overload_steps;
  }

  if (utilization > kScaleUpThreshold && instances() < config_.max_instances) {
    return ScaleUp();
  }
  // Scale down only if the remaining capacity still clears the up-threshold
  // margin (hysteresis; avoids flapping at the boundary).
  if (instances() > config_.min_instances &&
      utilization < kScaleDownThreshold) {
    const double capacity_after =
        capacity - config_.capacity_per_instance;
    if (capacity_after > 0.0 &&
        offered_load / capacity_after < kScaleUpThreshold) {
      return ScaleDown();
    }
  }
  return OkStatus();
}

}  // namespace snic::mgmt

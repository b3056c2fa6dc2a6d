// Utilization management by function churn (§4.8 "Underutilization").
//
// S-NIC deliberately freezes a function's resources at launch — pages and
// cores can never be returned while the function lives, because OS-visible
// resource dynamics are themselves a side channel. The paper's prescription:
// "physical utilization should be kept high by creating or destroying
// functions in response to time-varying load." This module implements that
// control loop over the NIC OS API and accounts its costs: every scaling
// action pays the (real, modeled) nf_launch / nf_teardown latency, which is
// the trade against static peak provisioning the ablation bench quantifies.

#ifndef SNIC_MGMT_AUTOSCALER_H_
#define SNIC_MGMT_AUTOSCALER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/mgmt/nic_os.h"

namespace snic::mgmt {

struct AutoscalerConfig {
  FunctionImage image;                  // the scale unit (one NF instance)
  double capacity_per_instance = 1.0;   // load one instance absorbs
  uint32_t min_instances = 1;
  uint32_t max_instances = 8;
};

struct AutoscalerStats {
  uint64_t launches = 0;
  uint64_t teardowns = 0;
  double launch_ms_paid = 0.0;    // modeled nf_launch time spent scaling
  double teardown_ms_paid = 0.0;
  uint64_t overload_steps = 0;    // steps where load exceeded capacity
  double utilization_sum = 0.0;   // for the mean
  uint64_t steps = 0;

  double MeanUtilization() const {
    return steps == 0 ? 0.0 : utilization_sum / static_cast<double>(steps);
  }
};

class Autoscaler {
 public:
  Autoscaler(NicOs* nic_os, AutoscalerConfig config);
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  // One control-loop step under `offered_load` (same unit as
  // capacity_per_instance). Launches an instance above 85% utilization and
  // destroys one below 45% when the rest stays under 85%; at most one
  // action per step. A failed launch or teardown is returned as is.
  Status Step(double offered_load);

  uint32_t instances() const { return static_cast<uint32_t>(live_.size()); }
  double Capacity() const {
    return static_cast<double>(live_.size()) * config_.capacity_per_instance;
  }
  const AutoscalerStats& stats() const { return stats_; }
  const std::vector<uint64_t>& live_ids() const { return live_; }

 private:
  Status ScaleUp();
  Status ScaleDown();

  NicOs* nic_os_;
  AutoscalerConfig config_;
  std::vector<uint64_t> live_;
  AutoscalerStats stats_;
};

}  // namespace snic::mgmt

#endif  // SNIC_MGMT_AUTOSCALER_H_

// Ablation: the §4.8 underutilization trade.
//
// S-NIC forbids dynamic resource return, so a fixed fleet provisioned for
// peak load wastes cores and RAM off-peak. The paper's prescription is
// churn: create/destroy functions as load varies, paying nf_launch /
// nf_destroy latency instead. This bench runs a diurnal load curve against
// three policies and reports mean utilization, overload exposure, and the
// scaling latency paid.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/mgmt/autoscaler.h"

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {"--quick"});
  const bool quick = snic::bench::QuickMode(argc, argv);
  using namespace snic;

  bench::PrintHeader("Ablation: underutilization vs function churn",
                     "S-NIC (EuroSys'24) §4.8 'Underutilization'");

  const int steps = quick ? 200 : 1440;  // one simulated day, minute steps
  auto load_at = [&](int step) {
    // Diurnal curve: trough 80, peak 520 (needs 1..6 instances of 100).
    const double phase = 2.0 * 3.14159265 * step / steps;
    return 300.0 + 220.0 * std::sin(phase - 1.2);
  };

  struct Policy {
    const char* name;
    uint32_t min_instances;
    uint32_t max_instances;
    bool scale;  // false = static fleet at min==max
  };
  const Policy policies[] = {
      {"Static peak fleet (6 instances)", 6, 6, false},
      {"Static trough fleet (2 instances)", 2, 2, false},
      {"Autoscaler (1..6, per paper)", 1, 6, true},
  };

  TablePrinter table({"Policy", "Mean utilization", "Overloaded steps",
                      "Launches", "Scaling latency paid"});
  for (const Policy& p : policies) {
    Rng rng(31);
    crypto::VendorAuthority vendor(512, rng);
    core::SnicConfig config;
    config.num_cores = 16;
    config.dram_bytes = 256ull << 20;
    config.rsa_modulus_bits = 512;
    core::SnicDevice device(config, vendor);
    mgmt::NicOs nic_os(&device);

    mgmt::AutoscalerConfig scaler_config;
    scaler_config.image.name = "unit";
    scaler_config.image.code_and_data.assign(4096, 0x44);
    scaler_config.image.memory_bytes = 8ull << 20;
    scaler_config.image.switch_rules.push_back(net::SwitchRule{});
    scaler_config.capacity_per_instance = 100.0;
    scaler_config.min_instances = p.min_instances;
    scaler_config.max_instances = p.max_instances;
    mgmt::Autoscaler scaler(&nic_os, scaler_config);

    for (int step = 0; step < steps; ++step) {
      SNIC_CHECK_OK(scaler.Step(load_at(step)));
    }
    const auto& stats = scaler.stats();
    table.AddRow({p.name, TablePrinter::Pct(stats.MeanUtilization(), 1),
                  std::to_string(stats.overload_steps),
                  std::to_string(stats.launches),
                  TablePrinter::Fmt(stats.launch_ms_paid +
                                        stats.teardown_ms_paid,
                                    1) +
                      " ms"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected: a peak-provisioned static fleet wastes ~half its resources\n"
      "off-peak; a trough fleet overloads at peak; churn keeps utilization\n"
      "high at the cost of nf_launch/nf_destroy latency — which amortizes\n"
      "because functions live for minutes or hours (§4.8).\n");
  return 0;
}

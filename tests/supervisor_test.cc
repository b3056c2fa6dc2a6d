// Supervisor tests: crash detection, deterministic restart with backoff,
// quarantine, watchdog expiry, graceful accelerator degradation, and the
// mandatory re-measurement/re-attestation on every restart.

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "src/fault/fault.h"
#include "src/mgmt/supervisor.h"
#include "src/mgmt/verifier.h"
#include "src/obs/span_names.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/thread_pool.h"

namespace snic::mgmt {
namespace {

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest()
      : rng_(31),
        vendor_(512, rng_),
        device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 128ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  static SupervisorConfig SupConfig() {
    SupervisorConfig config;
    config.seed = 7;
    config.watchdog_timeout_cycles = 1000;
    config.backoff_base_cycles = 100;
    config.backoff_max_cycles = 1600;
    config.backoff_jitter_pct = 25;
    config.quarantine_after = 3;
    config.stable_cycles = 500;
    return config;
  }

  FunctionImage SimpleImage(const std::string& name, uint32_t zip_clusters = 0) {
    FunctionImage image;
    image.name = name;
    image.code_and_data.assign(3000, 0xc0);
    image.cores = 1;
    image.memory_bytes = 8ull << 20;
    image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
        zip_clusters;
    net::SwitchRule rule;
    rule.dst_port = 4242;
    image.switch_rules.push_back(rule);
    return image;
  }

  Supervisor MakeSupervisor(SupervisorConfig config) {
    return Supervisor(&nic_os_, vendor_.public_key(), config);
  }

  // Drives `supervisor` until `name` is running again or `deadline` passes.
  void TickUntilRunning(Supervisor& supervisor, const std::string& name,
                        uint64_t from, uint64_t deadline, uint64_t step = 50) {
    for (uint64_t t = from; t <= deadline; t += step) {
      supervisor.Heartbeat(name);  // ignored while not running
      supervisor.Tick(t);
      if (supervisor.HealthOf(name) == NfHealth::kRunning) {
        return;
      }
    }
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  NicOs nic_os_;
};

TEST_F(SupervisorTest, AdoptLaunchesMeasuresAndAttests) {
  Supervisor supervisor = MakeSupervisor(SupConfig());
  const auto id = supervisor.Adopt(SimpleImage("fw"));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(device_.IsLive(id.value()));
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  EXPECT_EQ(supervisor.NfIdOf("fw").value(), id.value());
  EXPECT_EQ(supervisor.stats().reattestations, 1u);  // initial launch quote
  // Double adoption rejected.
  EXPECT_EQ(supervisor.Adopt(SimpleImage("fw")).status().code(),
            ErrorCode::kAlreadyOwned);
}

TEST_F(SupervisorTest, CrashRestartsWithBackoffAndFreshAttestation) {
  obs::TraceRing ring;
  obs::ScopedTraceRing scoped_ring(&ring);
  Supervisor supervisor = MakeSupervisor(SupConfig());
  const auto id = supervisor.Adopt(SimpleImage("fw"));
  ASSERT_TRUE(id.ok());

  supervisor.Tick(100);
  supervisor.ReportCrash("fw", CrashCause::kGeneric);
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kRestarting);
  EXPECT_FALSE(device_.IsLive(id.value()));  // torn down immediately
  EXPECT_FALSE(supervisor.NfIdOf("fw").ok());

  // Backoff: not restarted at the crash cycle itself.
  supervisor.Tick(100);
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kRestarting);

  TickUntilRunning(supervisor, "fw", 150, 2000);
  ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  const auto new_id = supervisor.NfIdOf("fw");
  ASSERT_TRUE(new_id.ok());
  EXPECT_NE(new_id.value(), id.value());
  EXPECT_TRUE(device_.IsLive(new_id.value()));
  EXPECT_EQ(supervisor.stats().crashes, 1u);
  EXPECT_EQ(supervisor.stats().restarts, 1u);
  EXPECT_EQ(supervisor.stats().reattestations, 2u);  // adopt + restart

  // The ring holds the crash instant on the crashed instance's lane, then
  // the restart instant on the relaunched instance's lane, both carrying
  // the crash cause.
  ASSERT_EQ(ring.size(), 2u);
  const obs::TraceRecord& crash = ring.record(0);
  const obs::TraceRecord& restart = ring.record(1);
  EXPECT_EQ(ring.NameOf(crash.name), obs::spans::kSupervisorCrash);
  EXPECT_EQ(crash.kind, obs::TraceRecord::kInstant);
  EXPECT_EQ(crash.pid, id.value());
  EXPECT_EQ(crash.ts, 100u);
  EXPECT_EQ(ring.NameOf(restart.name), obs::spans::kSupervisorRestart);
  EXPECT_EQ(restart.kind, obs::TraceRecord::kInstant);
  EXPECT_EQ(restart.pid, new_id.value());
  EXPECT_GT(restart.ts, crash.ts);
  for (const obs::TraceRecord* r : {&crash, &restart}) {
    EXPECT_EQ(ring.NameOf(r->arg_name), obs::spans::kArgCause);
    EXPECT_EQ(r->arg, static_cast<uint64_t>(CrashCause::kGeneric));
  }
}

TEST_F(SupervisorTest, RestartSequenceIsSeedDeterministic) {
  auto run = [this](uint64_t seed) {
    core::SnicDevice device(Config(), vendor_);
    NicOs nic_os(&device);
    SupervisorConfig config = SupConfig();
    config.seed = seed;
    Supervisor supervisor(&nic_os, vendor_.public_key(), config);
    SNIC_CHECK(supervisor.Adopt(SimpleImage("fw")).ok());
    std::vector<uint64_t> transitions;
    bool was_running = true;
    for (uint64_t t = 0; t <= 20000; t += 10) {
      supervisor.Heartbeat("fw");
      // Crash on a fixed schedule while running.
      if (t % 4000 == 2000 &&
          supervisor.HealthOf("fw") == NfHealth::kRunning) {
        supervisor.ReportCrash("fw", CrashCause::kGeneric);
      }
      supervisor.Tick(t);
      const bool running = supervisor.HealthOf("fw") == NfHealth::kRunning;
      if (running != was_running) {
        transitions.push_back(t);
        was_running = running;
      }
    }
    return transitions;
  };
  const auto a = run(11);
  const auto b = run(11);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_F(SupervisorTest, RapidCrashesQuarantine) {
  SupervisorConfig config = SupConfig();
  config.stable_cycles = 100000;  // every crash counts as consecutive
  Supervisor supervisor = MakeSupervisor(config);
  ASSERT_TRUE(supervisor.Adopt(SimpleImage("fw")).ok());

  uint64_t now = 0;
  for (int crash = 0; crash < 4; ++crash) {
    ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning)
        << "crash " << crash;
    supervisor.ReportCrash("fw", CrashCause::kGeneric);
    if (supervisor.HealthOf("fw") == NfHealth::kQuarantined) {
      break;
    }
    for (; now < 1000000 &&
           supervisor.HealthOf("fw") != NfHealth::kRunning;
         now += 100) {
      supervisor.Tick(now);
    }
  }
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kQuarantined);
  EXPECT_EQ(supervisor.stats().quarantines, 1u);
  // Quarantined children stay down.
  supervisor.Tick(now + 1000000);
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kQuarantined);
  EXPECT_FALSE(supervisor.NfIdOf("fw").ok());
}

TEST_F(SupervisorTest, StableRunResetsFailureStreak) {
  SupervisorConfig config = SupConfig();
  // The long silent gaps below are deliberate; keep the watchdog out of it.
  config.watchdog_timeout_cycles = 1000000;
  Supervisor supervisor = MakeSupervisor(config);
  ASSERT_TRUE(supervisor.Adopt(SimpleImage("fw")).ok());

  uint64_t now = 0;
  // Crash well past the stability window, repeatedly: never quarantines.
  for (int crash = 0; crash < 6; ++crash) {
    now += 10000;  // > stable_cycles after the last (re)launch
    supervisor.Tick(now);
    ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
    supervisor.ReportCrash("fw", CrashCause::kGeneric);
    EXPECT_LE(supervisor.ConsecutiveFailures("fw"), 1u);
    TickUntilRunning(supervisor, "fw", now, now + 5000);
    ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  }
  EXPECT_EQ(supervisor.stats().quarantines, 0u);
}

TEST_F(SupervisorTest, WatchdogDetectsHang) {
  Supervisor supervisor = MakeSupervisor(SupConfig());
  ASSERT_TRUE(supervisor.Adopt(SimpleImage("fw")).ok());

  // Heartbeats keep it alive...
  for (uint64_t t = 100; t <= 900; t += 100) {
    supervisor.Heartbeat("fw");
    supervisor.Tick(t);
  }
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  // ...then the function goes silent past the timeout.
  supervisor.Tick(2000);
  EXPECT_EQ(supervisor.HealthOf("fw"), NfHealth::kRestarting);
  EXPECT_EQ(supervisor.stats().watchdog_timeouts, 1u);
  EXPECT_EQ(supervisor.stats().crashes, 1u);
}

TEST_F(SupervisorTest, AccelFaultDowngradesToSoftwarePath) {
  Supervisor supervisor = MakeSupervisor(SupConfig());
  const auto id = supervisor.Adopt(SimpleImage("zipper", /*zip_clusters=*/2));
  ASSERT_TRUE(id.ok());
  const auto zip = accel::AcceleratorType::kZip;
  EXPECT_EQ(device_.accel_pool().FreeClusters(zip),
            device_.accel_pool().NumClusters(zip) - 2);
  EXPECT_FALSE(supervisor.IsDegraded("zipper"));

  supervisor.Tick(100);
  supervisor.ReportCrash("zipper", CrashCause::kAccelFault);
  EXPECT_TRUE(supervisor.IsDegraded("zipper"));
  EXPECT_EQ(supervisor.stats().accel_downgrades, 1u);

  TickUntilRunning(supervisor, "zipper", 150, 2000);
  ASSERT_EQ(supervisor.HealthOf("zipper"), NfHealth::kRunning);
  // Relaunched on the software path: no clusters reserved.
  EXPECT_EQ(device_.accel_pool().FreeClusters(zip),
            device_.accel_pool().NumClusters(zip));
  // The restarted instance is still measured + attested (against the
  // degraded image it actually launched as).
  EXPECT_EQ(supervisor.stats().reattestations, 2u);
}

TEST_F(SupervisorTest, RestartCallbackReportsIdChange) {
  Supervisor supervisor = MakeSupervisor(SupConfig());
  const auto id = supervisor.Adopt(SimpleImage("fw"));
  ASSERT_TRUE(id.ok());

  uint64_t seen_old = 0, seen_new = 0;
  std::string seen_name;
  supervisor.SetRestartCallback(
      [&](const std::string& name, uint64_t old_id, uint64_t new_id) {
        seen_name = name;
        seen_old = old_id;
        seen_new = new_id;
      });
  supervisor.Tick(100);
  supervisor.ReportCrash("fw", CrashCause::kGeneric);
  TickUntilRunning(supervisor, "fw", 150, 2000);
  ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  EXPECT_EQ(seen_name, "fw");
  EXPECT_EQ(seen_old, id.value());
  EXPECT_EQ(seen_new, supervisor.NfIdOf("fw").value());
}

TEST_F(SupervisorTest, TransientLaunchFaultsDelayButDoNotKillRecovery) {
  fault::FaultPlane plane;
  fault::FaultRule rule;
  rule.site = std::string(fault::sites::kNfLaunch);
  rule.skip = 0;
  rule.count = 2;  // first two relaunch attempts fail
  plane.AddRule(rule);

  Supervisor supervisor = MakeSupervisor(SupConfig());
  ASSERT_TRUE(supervisor.Adopt(SimpleImage("fw")).ok());

  fault::ScopedFaultPlane scoped(&plane);
  supervisor.Tick(100);
  supervisor.ReportCrash("fw", CrashCause::kGeneric);
  TickUntilRunning(supervisor, "fw", 150, 20000);
  ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  EXPECT_EQ(supervisor.stats().failed_restarts, 2u);
  EXPECT_EQ(supervisor.stats().restarts, 1u);
  EXPECT_EQ(plane.InjectedAt(fault::sites::kNfLaunch), 2u);
}

TEST_F(SupervisorTest, CrashDuringRecoveryFailsExactlyTheTargetedAttempt) {
  // supervisor.reattest with on_attempt crashes the child *inside* the
  // restart path, on a chosen recovery attempt, and nowhere else.
  fault::FaultPlane plane;
  for (uint64_t attempt : {1, 2}) {
    fault::FaultRule rule;
    rule.site = std::string(fault::sites::kSupervisorReattest);
    rule.count = 1;
    rule.on_attempt = attempt;
    plane.AddRule(rule);
  }
  fault::ScopedFaultPlane scoped(&plane);

  SupervisorConfig config = SupConfig();
  config.quarantine_after = 5;
  Supervisor supervisor = MakeSupervisor(config);
  // Adopt runs the same measure/attest path with attempt 0: neither
  // on_attempt rule may fire on the initial launch.
  ASSERT_TRUE(supervisor.Adopt(SimpleImage("fw")).ok());
  EXPECT_EQ(plane.InjectedAt(fault::sites::kSupervisorReattest), 0u);

  supervisor.Tick(100);
  supervisor.ReportCrash("fw", CrashCause::kGeneric);
  TickUntilRunning(supervisor, "fw", 150, 40000);
  ASSERT_EQ(supervisor.HealthOf("fw"), NfHealth::kRunning);
  // Recovery attempts 1 and 2 died inside re-attestation; attempt 3 ran
  // the full trust path and succeeded.
  EXPECT_EQ(plane.InjectedAt(fault::sites::kSupervisorReattest), 2u);
  EXPECT_EQ(supervisor.stats().failed_restarts, 2u);
  EXPECT_EQ(supervisor.stats().restarts, 1u);
}

// Known answers recorded before the Supervisor's attestation exchange went
// through the wire codec: an Adopt -> crash -> restart run, without and with
// a supervisor.reattest rule on recovery attempt 1. Besides the counters and
// the child's final id and health, the run pins the Supervisor's Rng stream:
// backoff jitter spans the whole backoff and the clock advances one cycle
// per tick, so the cycle each relaunch lands on is a jitter draw taken after
// every earlier nonce and DH draw. The second crash's relaunch is the draw
// after the pinned run.
TEST_F(SupervisorTest, ReattestRunKeepsRecordedKnownAnswers) {
  struct Answer {
    uint64_t reattestations;
    uint64_t restarts;
    uint64_t failed_restarts;
    uint64_t injected;
    NfHealth health;
    uint64_t nf_id;
    uint64_t relaunched_at;
    uint64_t next_relaunch_at;
  };
  auto run = [this](bool with_rule) {
    fault::FaultPlane plane;
    if (with_rule) {
      fault::FaultRule rule;
      rule.site = std::string(fault::sites::kSupervisorReattest);
      rule.count = 1;
      rule.on_attempt = 1;
      plane.AddRule(rule);
    }
    fault::ScopedFaultPlane scoped(&plane);
    SupervisorConfig config = SupConfig();
    config.watchdog_timeout_cycles = 0;
    config.backoff_base_cycles = 4096;
    config.backoff_max_cycles = 4096;
    config.backoff_jitter_pct = 100;
    config.quarantine_after = 5;
    Supervisor supervisor = MakeSupervisor(config);
    SNIC_CHECK(supervisor.Adopt(SimpleImage("fw")).ok());
    supervisor.Tick(100);
    supervisor.ReportCrash("fw", CrashCause::kGeneric);
    TickUntilRunning(supervisor, "fw", 101, 40000, /*step=*/1);
    Answer answer{};
    answer.reattestations = supervisor.stats().reattestations;
    answer.restarts = supervisor.stats().restarts;
    answer.failed_restarts = supervisor.stats().failed_restarts;
    answer.injected = plane.InjectedAt(fault::sites::kSupervisorReattest);
    answer.health = supervisor.HealthOf("fw");
    if (answer.health != NfHealth::kRunning) {
      return answer;
    }
    answer.nf_id = supervisor.NfIdOf("fw").value();
    answer.relaunched_at = supervisor.now();
    supervisor.ReportCrash("fw", CrashCause::kGeneric);
    TickUntilRunning(supervisor, "fw", supervisor.now() + 1,
                     supervisor.now() + 40000, /*step=*/1);
    answer.next_relaunch_at = supervisor.now();
    return answer;
  };
  // The fixture's device is shared by both runs, so the second run's nf
  // ids continue from the first's.
  const Answer without_rule = run(/*with_rule=*/false);
  EXPECT_EQ(without_rule.reattestations, 2u);
  EXPECT_EQ(without_rule.restarts, 1u);
  EXPECT_EQ(without_rule.failed_restarts, 0u);
  EXPECT_EQ(without_rule.injected, 0u);
  EXPECT_EQ(without_rule.health, NfHealth::kRunning);
  EXPECT_EQ(without_rule.nf_id, 2u);
  EXPECT_EQ(without_rule.relaunched_at, 4987u);
  EXPECT_EQ(without_rule.next_relaunch_at, 10605u);

  // Attempt 1 fails closed: its nf id (5) is torn down, its backoff draw is
  // the one the rule-free run spent on the second crash, and attempt 2 runs
  // the full trust path.
  const Answer with_rule = run(/*with_rule=*/true);
  EXPECT_EQ(with_rule.reattestations, 2u);
  EXPECT_EQ(with_rule.restarts, 1u);
  EXPECT_EQ(with_rule.failed_restarts, 1u);
  EXPECT_EQ(with_rule.injected, 1u);
  EXPECT_EQ(with_rule.health, NfHealth::kRunning);
  EXPECT_EQ(with_rule.nf_id, 6u);
  EXPECT_EQ(with_rule.relaunched_at, 10605u);
  EXPECT_EQ(with_rule.next_relaunch_at, 15158u);
}

TEST_F(SupervisorTest, RestartCapDefersBurstToOnePerTick) {
  SupervisorConfig config = SupConfig();
  config.max_concurrent_restarts = 1;
  Supervisor supervisor = MakeSupervisor(config);
  const std::vector<std::string> names = {"a", "b", "c"};
  for (const std::string& name : names) {
    ASSERT_TRUE(supervisor.Adopt(SimpleImage(name)).ok());
  }
  supervisor.Tick(10);
  for (const std::string& name : names) {
    supervisor.ReportCrash(name, CrashCause::kGeneric);
  }
  // A correlated three-child burst under cap 1: at most one relaunch per
  // tick, the rest counted as deferrals in the pending queue.
  uint64_t restarts_seen = supervisor.stats().restarts;
  for (uint64_t t = 20; t <= 6000; t += 50) {
    supervisor.Tick(t);
    const uint64_t restarts_now = supervisor.stats().restarts;
    EXPECT_LE(restarts_now - restarts_seen, 1u) << "tick " << t;
    restarts_seen = restarts_now;
    for (const std::string& name : names) {
      supervisor.Heartbeat(name);
    }
  }
  for (const std::string& name : names) {
    EXPECT_EQ(supervisor.HealthOf(name), NfHealth::kRunning) << name;
  }
  EXPECT_EQ(supervisor.stats().restarts, 3u);
  EXPECT_GT(supervisor.stats().restart_deferrals, 0u);
  EXPECT_GE(supervisor.restart_queue_peak(), 1u);
  EXPECT_EQ(supervisor.restart_queue_depth(), 0u);  // fully drained
}

TEST_F(SupervisorTest, RestartQueueDrainsInDeterministicOrder) {
  auto run = [this]() {
    SupervisorConfig config = SupConfig();
    config.max_concurrent_restarts = 1;
    Supervisor supervisor = MakeSupervisor(config);
    std::vector<std::string> order;
    supervisor.SetRestartCallback(
        [&order](const std::string& name, uint64_t, uint64_t) {
          order.push_back(name);
        });
    const std::vector<std::string> names = {"a", "b", "c"};
    for (const std::string& name : names) {
      EXPECT_TRUE(supervisor.Adopt(SimpleImage(name)).ok());
    }
    supervisor.Tick(10);
    for (const std::string& name : names) {
      supervisor.ReportCrash(name, CrashCause::kGeneric);
    }
    for (uint64_t t = 20; t <= 6000; t += 50) {
      supervisor.Tick(t);
      for (const std::string& name : names) {
        supervisor.Heartbeat(name);
      }
    }
    return order;
  };
  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  EXPECT_EQ(first.size(), 3u);
  EXPECT_EQ(first, second);
}


// ---------------------------------------------------------------------------
// The process-wide expected-measurement memo (MemoizedExpectedMeasurement),
// which every launch and relaunch consults. Its key is the exact inputs of
// ExpectedMeasurement. Each test launches an image right after a near twin
// of it: were the memo to answer the second from the twin's entry, the
// relaunch check would compare the device's fresh digest against the wrong
// prediction and refuse the launch.
// ---------------------------------------------------------------------------

TEST_F(SupervisorTest, MemoKeysOnPageSize) {
  core::SnicConfig small_config = Config();
  small_config.page_bytes = 64ull << 10;
  core::SnicDevice small_device(small_config, vendor_);
  NicOs small_os(&small_device);
  const FunctionImage image = SimpleImage("paged");

  Supervisor on_huge = MakeSupervisor(SupConfig());
  Supervisor on_small(&small_os, vendor_.public_key(), SupConfig());
  ASSERT_TRUE(on_huge.Adopt(image).ok());
  ASSERT_TRUE(on_small.Adopt(image).ok());

  const uint64_t huge_page = device_.memory().page_bytes();
  const uint64_t small_page = small_device.memory().page_bytes();
  ASSERT_NE(huge_page, small_page);
  const crypto::Sha256Digest at_huge =
      MemoizedExpectedMeasurement(image, huge_page);
  const crypto::Sha256Digest at_small =
      MemoizedExpectedMeasurement(image, small_page);
  EXPECT_NE(at_huge, at_small);
  EXPECT_EQ(at_huge, ExpectedMeasurement(image, huge_page));
  EXPECT_EQ(at_small, ExpectedMeasurement(image, small_page));
}

TEST_F(SupervisorTest, MemoMissesOnAOneByteCodeChange) {
  const FunctionImage original = SimpleImage("flipped");
  FunctionImage flipped = original;
  flipped.code_and_data[1234] ^= 0x01;

  Supervisor first = MakeSupervisor(SupConfig());
  Supervisor second = MakeSupervisor(SupConfig());
  ASSERT_TRUE(first.Adopt(original).ok());
  ASSERT_TRUE(second.Adopt(flipped).ok());

  const uint64_t page = device_.memory().page_bytes();
  EXPECT_NE(MemoizedExpectedMeasurement(original, page),
            MemoizedExpectedMeasurement(flipped, page));
  EXPECT_EQ(MemoizedExpectedMeasurement(flipped, page),
            ExpectedMeasurement(flipped, page));
}

TEST_F(SupervisorTest, MemoMissesOnTheDegradedFlavour) {
  const FunctionImage image = SimpleImage("degrading", /*zip_clusters=*/1);
  Supervisor supervisor = MakeSupervisor(SupConfig());
  ASSERT_TRUE(supervisor.Adopt(image).ok());
  supervisor.Tick(100);
  supervisor.ReportCrash("degrading", CrashCause::kAccelFault);
  ASSERT_TRUE(supervisor.IsDegraded("degrading"));
  // The relaunch differs from the adopted image only in its accelerator
  // request, which lives in the serialized configuration.
  TickUntilRunning(supervisor, "degrading", 150, 2000);
  ASSERT_EQ(supervisor.HealthOf("degrading"), NfHealth::kRunning);
  EXPECT_EQ(supervisor.stats().reattestations, 2u);

  FunctionImage degraded = image;
  degraded.accel_clusters = {0, 0, 0};
  const uint64_t page = device_.memory().page_bytes();
  EXPECT_NE(MemoizedExpectedMeasurement(image, page),
            MemoizedExpectedMeasurement(degraded, page));
  EXPECT_EQ(MemoizedExpectedMeasurement(degraded, page),
            ExpectedMeasurement(degraded, page));
}

TEST(SupervisorMemoTest, ConcurrentLookupsAgree) {
  // An image no other test in this binary predicts, so the workers race on
  // the memo's misses as well as its hits.
  FunctionImage image;
  image.name = "memo-race";
  image.code_and_data.assign(5000, 0x5d);
  image.memory_bytes = 8ull << 20;
  constexpr uint64_t kPages[] = {2ull << 20, 64ull << 10};
  std::vector<crypto::Sha256Digest> want;
  for (const uint64_t page : kPages) {
    want.push_back(ExpectedMeasurement(image, page));
  }

  runtime::ThreadPool pool(4);
  std::vector<std::future<std::vector<crypto::Sha256Digest>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.Submit([&image, &kPages] {
      std::vector<crypto::Sha256Digest> got;
      for (int round = 0; round < 3; ++round) {
        for (const uint64_t page : kPages) {
          got.push_back(MemoizedExpectedMeasurement(image, page));
        }
      }
      return got;
    }));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const std::vector<crypto::Sha256Digest> got = futures[i].get();
    ASSERT_EQ(got.size(), 3 * want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], want[k % want.size()]) << "worker " << i;
    }
  }
}

}  // namespace
}  // namespace snic::mgmt

// A process-wide, bounded memo of a pure function.
//
// Three control-plane computations repeat across the devices, scenarios and
// sweep workers of one process: RSA key generation (src/crypto/rsa.cc), the
// tenant's expected launch measurement (src/mgmt/verifier.cc) and SHA-256
// over runs of zero blocks (src/crypto/sha256.cc). Each caches its result
// here, keyed by exactly the inputs that determine it, so a hit cannot be
// told from a recomputation and no output depends on which thread filled
// the memo or when (docs/PERFORMANCE.md, "Control-plane crypto").

#ifndef SNIC_COMMON_PROCESS_MEMO_H_
#define SNIC_COMMON_PROCESS_MEMO_H_

#include <cstddef>
#include <map>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace snic {

// One memo per `Tag`, an otherwise unused type that names the function
// cached. `Key` must hold every input of that function and `Value` its
// whole result. Past `kCapacity` entries new results are simply not
// remembered, so the memo's memory stays bounded.
template <typename Tag, typename Key, typename Value, size_t kCapacity>
class ProcessMemo {
 public:
  ProcessMemo(const ProcessMemo&) = delete;
  ProcessMemo& operator=(const ProcessMemo&) = delete;

  static ProcessMemo& Instance() {
    // Audited in tools/snic_lint/allowlist.txt: a cache of a pure function
    // behind a mutex. Never destroyed, like obs::GlobalRegistry, so a
    // lookup racing static destruction still finds it.
    static ProcessMemo* memo = new ProcessMemo();
    return *memo;
  }

  // The value remembered for `key`, or else `compute()`, remembered while
  // there is room. `compute` runs outside the lock: two threads missing on
  // the same key both compute, and both get the one value the key
  // determines.
  template <typename Compute>
  Value GetOrCompute(Key key, Compute compute) {
    {
      MutexLock lock(&mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        return it->second;
      }
    }
    Value value = compute();
    MutexLock lock(&mu_);
    if (entries_.size() < kCapacity) {
      entries_.try_emplace(std::move(key), value);
    }
    return value;
  }

 private:
  ProcessMemo() = default;

  Mutex mu_;
  std::map<Key, Value> entries_ SNIC_GUARDED_BY(mu_);
};

}  // namespace snic

#endif  // SNIC_COMMON_PROCESS_MEMO_H_

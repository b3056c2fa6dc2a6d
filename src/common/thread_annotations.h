// Clang thread-safety-analysis capability macros (docs/STATIC_ANALYSIS.md).
//
// The parallel sweep runtime's contract splits shared state into two
// classes: mutex-guarded registry-level maps (MetricRegistry, ThreadPool's
// queue) and single-owner values (metric series, TraceRing, FaultPlane,
// Supervisor). These macros make the first class machine-checked: every
// guarded field carries SNIC_GUARDED_BY(mu_), every lock-taking function an
// acquire/release contract, and CI builds the tree with clang's
// `-Wthread-safety -Werror`, so an unguarded access is a build failure
// rather than a TSan flake.
//
// Under compilers without the capability attributes (gcc) every macro
// expands to nothing; the annotations are contracts, not code.

#ifndef SNIC_COMMON_THREAD_ANNOTATIONS_H_
#define SNIC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SNIC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SNIC_THREAD_ANNOTATION
#define SNIC_THREAD_ANNOTATION(x)
#endif

// A type that acts as a lock/capability (e.g. snic::Mutex).
#define SNIC_CAPABILITY(name) SNIC_THREAD_ANNOTATION(capability(name))

// An RAII type that acquires a capability in its constructor and releases
// it in its destructor (e.g. snic::MutexLock).
#define SNIC_SCOPED_CAPABILITY SNIC_THREAD_ANNOTATION(scoped_lockable)

// Data member readable/writable only while holding the given capability.
#define SNIC_GUARDED_BY(x) SNIC_THREAD_ANNOTATION(guarded_by(x))

// Pointer member whose *pointee* is protected by the given capability.
#define SNIC_PT_GUARDED_BY(x) SNIC_THREAD_ANNOTATION(pt_guarded_by(x))

// Function that must be called while holding the given capability(ies).
#define SNIC_REQUIRES(...) \
  SNIC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Function that acquires / releases the given capability(ies).
#define SNIC_ACQUIRE(...) \
  SNIC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SNIC_RELEASE(...) \
  SNIC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Function that acquires the capability when it returns `ret`.
#define SNIC_TRY_ACQUIRE(ret, ...) \
  SNIC_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

// Function that must NOT be called while holding the given capability
// (guards against self-deadlock on non-reentrant mutexes).
#define SNIC_EXCLUDES(...) SNIC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Function returning a reference to the named capability.
#define SNIC_RETURN_CAPABILITY(x) SNIC_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: the function's body is exempt from analysis (its
// caller-side contract annotations still apply). Use only where the
// locking pattern is inexpressible, and say why at the site.
#define SNIC_NO_THREAD_SAFETY_ANALYSIS \
  SNIC_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // SNIC_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety annotations for SCIERA's shared mutable state, plus
// an annotated Mutex/MutexLock pair the analysis can see through.
//
// The simulation core is serial: one event queue, driven by one thread
// (DESIGN.md §13). The annotations say which state that thread owns and
// which state is shared across threads:
//
//   * Real locks guard the process-wide singletons (obs::MetricsRegistry,
//     obs::FlightRecorder, the check registry, dataplane::FramePool),
//     which a process may drive from several threads. They use
//     sciera::Mutex + sciera::MutexLock so Clang's -Wthread-safety proves
//     every access to SCIERA_GUARDED_BY state happens under the lock.
//     std::mutex + std::lock_guard are NOT annotated under libstdc++, so
//     direct std::mutex members are rejected by sciera_analyze (rule
//     std-mutex-member) — the analysis cannot see through them.
//
//   * Thread-affine state (Simulator, Link, ChaosEngine) is guarded by
//     the sim_thread_role capability: a virtual "role" lock representing
//     "the thread driving this simulation". Methods entering the affine
//     state assert the role via sim_thread_role.assert_held(). The
//     assertion is a compile-time marker only, with no runtime cost: it
//     lets -Wthread-safety reject a path that touches the state without
//     first passing through one of those entry points.
//
// The macros map 1:1 onto Clang's capability attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and expand to
// nothing on compilers without the attribute (GCC builds are unaffected;
// the Clang CI flavor enforces them via -Werror=thread-safety-analysis,
// see cmake/Sanitizers.cmake).
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SCIERA_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SCIERA_THREAD_ANNOTATION
#define SCIERA_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// A class that is a capability: its instances can be "held" by a thread.
#define SCIERA_CAPABILITY(name) SCIERA_THREAD_ANNOTATION(capability(name))

// Data members: may only be read/written while holding `x`.
#define SCIERA_GUARDED_BY(x) SCIERA_THREAD_ANNOTATION(guarded_by(x))
// Pointer members: the pointed-to data is guarded (the pointer itself not).
#define SCIERA_PT_GUARDED_BY(x) SCIERA_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: caller must hold / must not hold the capability.
#define SCIERA_REQUIRES(...) \
  SCIERA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SCIERA_EXCLUDES(...) \
  SCIERA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions that acquire / release the capability (lock() / unlock()).
#define SCIERA_ACQUIRE(...) \
  SCIERA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SCIERA_RELEASE(...) \
  SCIERA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// RAII types whose constructor acquires and destructor releases.
#define SCIERA_SCOPED_CAPABILITY SCIERA_THREAD_ANNOTATION(scoped_lockable)

// Runtime assertion that the capability is held (no acquire/release edge);
// satisfies the analysis at thread-affine entry points without cascading
// SCIERA_REQUIRES through every caller.
#define SCIERA_ASSERT_CAPABILITY(x) \
  SCIERA_THREAD_ANNOTATION(assert_capability(x))

// Return value is a reference to the named capability (lets GUARDED_BY
// refer to a capability reachable through an accessor).
#define SCIERA_RETURN_CAPABILITY(x) SCIERA_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for functions the analysis cannot model. Every use needs a
// justification comment.
#define SCIERA_NO_THREAD_SAFETY_ANALYSIS \
  SCIERA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sciera {

// std::mutex wrapped as an annotated capability. Same cost, same
// semantics; the wrapper exists purely so Clang can follow lock/unlock.
class SCIERA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SCIERA_ACQUIRE() { mutex_.lock(); }
  void unlock() SCIERA_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

// Annotated RAII guard over sciera::Mutex (std::lock_guard is opaque to
// the analysis under libstdc++).
class SCIERA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SCIERA_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SCIERA_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

// Virtual capability for thread-affine (not lock-protected) state: holding
// it means "this thread is the one driving the simulation". The core is
// serial, so there is exactly one role.
class SCIERA_CAPABILITY("role") ThreadRole {
 public:
  // Marks the calling context as holding the role. No runtime cost.
  void assert_held() const SCIERA_ASSERT_CAPABILITY(this) {}
};

// The single simulation-thread role (see ThreadRole). An inline variable
// rather than an accessor so it is a plain capability expression the
// analysis can name in SCIERA_GUARDED_BY.
inline ThreadRole sim_thread_role;

}  // namespace sciera

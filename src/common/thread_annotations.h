// Clang thread-safety annotations for SCIERA's process-wide mutable state,
// plus an annotated Mutex/MutexLock pair the analysis can see through.
//
// The simulation core is serial: one event queue, driven by one thread
// (DESIGN.md §13), and each simulator owns its run's flight recorder, so
// simulation state carries no annotation. Real locks guard the
// process-wide singletons (obs::MetricsRegistry, the check registry,
// dataplane::FramePool), which a process may drive from several threads.
// They use sciera::Mutex + sciera::MutexLock so Clang's -Wthread-safety
// proves every access to SCIERA_GUARDED_BY state happens under the lock.
// std::mutex + std::lock_guard are NOT annotated under libstdc++, so direct
// std::mutex members are rejected by sciera_analyze (rule std-mutex-member)
// — the analysis cannot see through them.
//
// The macros map 1:1 onto Clang's capability attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and expand to
// nothing on other compilers. cmake/Sanitizers.cmake turns the analysis on
// (-Wthread-safety -Werror=thread-safety) only when the compiler is Clang;
// tools/run_checks.sh builds with the host compiler, so on a GCC host the
// analysis does not run.
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

// Functions: caller must hold the capability.
#define SCIERA_REQUIRES(...) \
  SCIERA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Functions that acquire / release the capability (lock() / unlock()).
#define SCIERA_ACQUIRE(...) \
  SCIERA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SCIERA_RELEASE(...) \
  SCIERA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// RAII types whose constructor acquires and destructor releases.
#define SCIERA_SCOPED_CAPABILITY SCIERA_THREAD_ANNOTATION(scoped_lockable)

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

}  // namespace sciera

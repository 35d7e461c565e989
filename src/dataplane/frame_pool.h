// Recycling arena for the frames links carry (simnet::Frame). Every hop
// of every packet used to heap-allocate a fresh frame plus its
// serialized-bytes vector and free both when the last receiver dropped
// it; at campaign scale that is the dominant allocation source of the
// whole simulator. The pool keeps released frames (with their byte
// buffers' capacity intact) on a free list, so steady-state forwarding
// runs allocation-free: acquire() pops a warm frame,
// ScionPacket::serialize_into() reuses its buffer, and the shared_ptr
// deleter returns it when the delivery completes. simnet never names the
// pool: the deleter travels inside the simnet::FramePtr.
//
// The pool is process-wide and mutex-guarded, like the other process-wide
// singletons: the shared_ptr deleter returns a frame wherever its last
// reference drops, and nothing stops two simulations in one process from
// running on two threads. The simulation core itself is serial, so the
// lock is uncontended and short (pointer push/pop). Determinism is
// unaffected: recycling changes *where* a frame lives, never what the
// schedule does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "simnet/node.h"

namespace sciera::dataplane {

class FramePool {
 public:
  struct Config {
    // Frames kept warm beyond this are freed instead of pooled, bounding
    // the arena after a burst.
    std::size_t max_pooled = 4096;
  };

  struct Stats {  // NOLINT(adhoc-stats) the pool's storage, not a mirror
    std::uint64_t acquired = 0;   // total acquire() calls
    std::uint64_t allocated = 0;  // acquires that hit the allocator
    std::uint64_t reused = 0;     // acquires served from the free list
    std::int64_t outstanding = 0;  // acquired and not yet released
    std::int64_t pooled = 0;       // currently on the free list
    std::uint64_t ctrl_allocated = 0;  // control blocks from the allocator
    std::uint64_t ctrl_reused = 0;     // control blocks from the free list
  };

  explicit FramePool(Config config) : config_(config) {}
  FramePool() : FramePool(Config{}) {}
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // The process-wide pool the forwarding plane draws from.
  static FramePool& global();

  // Returns an empty frame whose bytes keep the capacity of their
  // previous life. Released back to the pool automatically when the last
  // shared_ptr owner drops.
  [[nodiscard]] std::shared_ptr<simnet::Frame> acquire();

  [[nodiscard]] Stats stats() const {
    sciera::MutexLock lock(mutex_);
    return stats_;
  }
  // Drops every pooled frame (tests; bounds memory after huge runs).
  void trim();

  // Copies the current stats into sciera_frame_pool_* registry gauges.
  // On-demand rather than live: the process-wide pool outlives registry
  // resets (tests reset the registry between audited runs), so the pool
  // keeps its own counters and exporters publish a snapshot when asked.
  void publish_metrics() const;

 private:
  // Runs in shared_ptr deleters, so it takes the lock itself rather than
  // requiring it (the capture site cannot carry the annotation).
  void release(simnet::Frame* frame);

  // Allocator handed to the frame shared_ptr so the control block itself
  // recycles through the pool: without it every acquire() heap-allocates
  // one fixed-size shared_ptr node even when the frame is warm. The
  // shared_ptr internals rebind this to their node type; every
  // (de)allocation routes to alloc_ctrl/free_ctrl below.
  template <typename T>
  struct CtrlAlloc {
    using value_type = T;
    FramePool* pool = nullptr;
    explicit CtrlAlloc(FramePool* p) : pool(p) {}
    template <typename U>
    explicit(false) CtrlAlloc(const CtrlAlloc<U>& other) : pool(other.pool) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(pool->alloc_ctrl(n * sizeof(T)));
    }
    void deallocate(T* ptr, std::size_t n) {
      pool->free_ctrl(ptr, n * sizeof(T));
    }
    friend bool operator==(const CtrlAlloc&, const CtrlAlloc&) = default;
  };

  void* alloc_ctrl(std::size_t size);
  void free_ctrl(void* ptr, std::size_t size);

  Config config_;
  mutable sciera::Mutex mutex_;
  std::vector<std::unique_ptr<simnet::Frame>> free_list_
      SCIERA_GUARDED_BY(mutex_);
  // Recycled shared_ptr control-block nodes. Single fixed size (the one
  // node type acquire() mints); ctrl_size_ latches it on first use.
  std::vector<void*> ctrl_free_ SCIERA_GUARDED_BY(mutex_);
  std::size_t ctrl_size_ SCIERA_GUARDED_BY(mutex_) = 0;
  Stats stats_ SCIERA_GUARDED_BY(mutex_);
};

}  // namespace sciera::dataplane

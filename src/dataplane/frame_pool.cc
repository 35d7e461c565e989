#include "dataplane/frame_pool.h"

#include <new>

#include "obs/metrics.h"

namespace sciera::dataplane {

FramePool& FramePool::global() {
  static FramePool pool;
  return pool;
}

FramePool::~FramePool() {
  sciera::MutexLock lock(mutex_);
  for (void* ptr : ctrl_free_) ::operator delete(ptr);
}

std::shared_ptr<simnet::Frame> FramePool::acquire() {
  simnet::Frame* frame = nullptr;
  {
    sciera::MutexLock lock(mutex_);
    ++stats_.acquired;
    ++stats_.outstanding;
    if (free_list_.empty()) {
      ++stats_.allocated;
    } else {
      ++stats_.reused;
      frame = free_list_.back().release();
      free_list_.pop_back();
      --stats_.pooled;
    }
  }
  // Allocate outside the lock: the allocator only runs on cold starts and
  // bursts, and there is no reason to serialize it.
  if (frame == nullptr) frame = new simnet::Frame;
  // The deleter routes the frame back here instead of freeing it, and the
  // allocator recycles the shared_ptr control block through the pool. The
  // pool is a process-lifetime singleton (or outlives every frame in
  // tests), so capturing `this` is safe.
  return std::shared_ptr<simnet::Frame>(
      frame, [this](simnet::Frame* released) { release(released); },
      CtrlAlloc<simnet::Frame>{this});
}

void* FramePool::alloc_ctrl(std::size_t size) {
  {
    sciera::MutexLock lock(mutex_);
    if (ctrl_size_ == 0) ctrl_size_ = size;
    if (size == ctrl_size_ && !ctrl_free_.empty()) {
      void* ptr = ctrl_free_.back();
      ctrl_free_.pop_back();
      ++stats_.ctrl_reused;
      return ptr;
    }
    ++stats_.ctrl_allocated;
  }
  return ::operator new(size);
}

void FramePool::free_ctrl(void* ptr, std::size_t size) {
  {
    sciera::MutexLock lock(mutex_);
    if (size == ctrl_size_ && ctrl_free_.size() < config_.max_pooled) {
      ctrl_free_.push_back(ptr);
      return;
    }
  }
  ::operator delete(ptr);
}

void FramePool::release(simnet::Frame* frame) {
  {
    sciera::MutexLock lock(mutex_);
    --stats_.outstanding;
    if (free_list_.size() < config_.max_pooled) {
      // Empty the frame for its next life, keeping the buffer's
      // allocation.
      frame->bytes.clear();
      free_list_.emplace_back(frame);
      ++stats_.pooled;
      return;
    }
  }
  delete frame;
}

void FramePool::trim() {
  sciera::MutexLock lock(mutex_);
  stats_.pooled -= static_cast<std::int64_t>(free_list_.size());
  free_list_.clear();
  for (void* ptr : ctrl_free_) ::operator delete(ptr);
  ctrl_free_.clear();
}

void FramePool::publish_metrics() const {
  const Stats snapshot = stats();
  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("sciera_frame_pool_acquired")
      .set(static_cast<std::int64_t>(snapshot.acquired));
  registry.gauge("sciera_frame_pool_allocated")
      .set(static_cast<std::int64_t>(snapshot.allocated));
  registry.gauge("sciera_frame_pool_reused")
      .set(static_cast<std::int64_t>(snapshot.reused));
  registry.gauge("sciera_frame_pool_outstanding").set(snapshot.outstanding);
  registry.gauge("sciera_frame_pool_pooled").set(snapshot.pooled);
  registry.gauge("sciera_frame_pool_ctrl_allocated")
      .set(static_cast<std::int64_t>(snapshot.ctrl_allocated));
  registry.gauge("sciera_frame_pool_ctrl_reused")
      .set(static_cast<std::int64_t>(snapshot.ctrl_reused));
}

}  // namespace sciera::dataplane

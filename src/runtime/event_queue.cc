#include "runtime/event_queue.h"

#include <utility>

namespace ode {
namespace runtime {

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropNewest: return "drop-newest";
    case BackpressurePolicy::kReject: return "reject";
  }
  return "?";
}

EventQueue::EventQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

EventQueue::PushResult EventQueue::PushLocked(
    std::unique_lock<std::mutex>& lock, IngestEvent&& event,
    AdmitHook on_admit) {
  (void)lock;  // Caller holds mu_.
  if (on_admit.fn != nullptr) on_admit.fn(on_admit.ctx);
  ring_[(head_ + count_) % capacity_] = std::move(event);
  ++count_;
  if (count_ > high_water_) high_water_ = count_;
  not_empty_.notify_one();
  return PushResult::kOk;
}

EventQueue::PushResult EventQueue::Push(IngestEvent event,
                                        AdmitHook on_admit) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] { return count_ < capacity_ || closed_; });
  if (closed_) return PushResult::kClosed;
  return PushLocked(lock, std::move(event), on_admit);
}

EventQueue::PushResult EventQueue::TryPush(IngestEvent&& event,
                                           AdmitHook on_admit) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return PushResult::kClosed;
  if (count_ >= capacity_) return PushResult::kFull;
  return PushLocked(lock, std::move(event), on_admit);
}

EventQueue::PushResult EventQueue::PushFor(IngestEvent event,
                                           std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!not_full_.wait_for(lock, timeout,
                          [&] { return count_ < capacity_ || closed_; })) {
    return PushResult::kFull;
  }
  if (closed_) return PushResult::kClosed;
  return PushLocked(lock, std::move(event), {});
}

size_t EventQueue::PopBatch(std::vector<IngestEvent>* out,
                            size_t max_events) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return count_ > 0 || closed_ || interrupt_; });
  if (interrupt_) {
    // Consume the one-shot flag and surface a spurious-looking empty pop so
    // the consumer returns to its loop head (where it checks for a pause).
    interrupt_ = false;
    return 0;
  }
  const bool was_full = count_ >= capacity_;
  size_t n = count_ < max_events ? count_ : max_events;
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(ring_[head_]));
    head_ = (head_ + 1) % capacity_;
  }
  count_ -= n;
  if (n > 0) {
    not_full_.notify_all();
    // Capacity wakeup for non-blocking producers: fires only on the
    // full→not-full edge, under mu_ (see SetSpaceCallback).
    if (was_full && space_cb_) space_cb_();
  }
  return n;
}

void EventQueue::SetSpaceCallback(std::function<void()> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  space_cb_ = std::move(cb);
}

void EventQueue::Interrupt() {
  std::lock_guard<std::mutex> lock(mu_);
  interrupt_ = true;
  not_empty_.notify_all();
}

std::vector<IngestEvent> EventQueue::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IngestEvent> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

void EventQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool EventQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t EventQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

size_t EventQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

}  // namespace runtime
}  // namespace ode

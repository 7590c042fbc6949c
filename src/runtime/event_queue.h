#ifndef ODE_RUNTIME_EVENT_QUEUE_H_
#define ODE_RUNTIME_EVENT_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/value.h"

namespace ode {
namespace runtime {

/// What a shard's ingest queue carries: one method invocation destined for
/// one object. The §5 pipeline turns it into the full event set around the
/// call (before/after f, access, read/update) inside the worker's
/// transaction.
struct IngestEvent {
  Oid oid;
  std::string method;
  std::vector<Value> args;
  /// Steady-clock nanoseconds at enqueue (latency histogram); 0 when
  /// latency recording is off.
  uint64_t enqueue_ns = 0;
  /// Durable producer identity + per-producer sequence number, carried into
  /// the WAL for exactly-once replay dedup. Empty/0 for anonymous posts.
  std::string producer_id;
  uint64_t producer_seq = 0;
  /// Set on events re-posted by crash recovery: they are already in the
  /// (old) log, so the shard must not append them again.
  bool replayed = false;
};

/// What a full queue does to a new event (per shard, set at runtime
/// construction):
///  * kBlock      — the posting thread waits for space (lossless, the
///                  default; producers inherit the consumer's pace).
///  * kDropNewest — the new event is discarded and counted (lossy but
///                  non-blocking; telemetry-style workloads).
///  * kReject     — Post returns kWouldBlock and the caller decides
///                  (shed-load-at-the-edge policy).
enum class BackpressurePolicy { kBlock, kDropNewest, kReject };

const char* BackpressurePolicyName(BackpressurePolicy policy);

/// A bounded multi-producer single-consumer FIFO: a fixed ring buffer under
/// one mutex with separate producer/consumer condition variables. Per-object
/// event order is inherited from FIFO order — every event for an object
/// lands in the same shard queue, so the single consumer replays each
/// object's posts in arrival order (the property that keeps object-id
/// sharding faithful to the paper's per-object histories).
class EventQueue {
 public:
  enum class PushResult { kOk, kFull, kClosed };

  /// Work a push runs under the queue mutex once it is admitted (space
  /// assured, queue open), before the consumer can see the event. A push
  /// that ends kFull or kClosed never runs it. The shard's WAL append
  /// runs here, so an event's log record exists before it can be applied.
  struct AdmitHook {
    void (*fn)(void* ctx);
    void* ctx;
  };

  explicit EventQueue(size_t capacity);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Blocks while the queue is full. kClosed if Close() ran first.
  PushResult Push(IngestEvent event, AdmitHook on_admit = {});

  /// Never blocks: kFull when at capacity. On kFull/kClosed the event is
  /// left intact (not moved from), so a caller can park it and retry the
  /// exact same event later — the contract the server's deferred-post
  /// queue relies on.
  PushResult TryPush(IngestEvent&& event, AdmitHook on_admit = {});

  /// Blocks up to `timeout` for space.
  PushResult PushFor(IngestEvent event, std::chrono::milliseconds timeout);

  /// Dequeues up to `max_events` in FIFO order into `*out` (appended).
  /// Blocks until at least one event is available, the queue is closed
  /// and empty, or Interrupt() fires; returns the number appended (0 at
  /// shutdown or on an observed interrupt — callers distinguish via
  /// closed()/size()).
  size_t PopBatch(std::vector<IngestEvent>* out, size_t max_events);

  /// Wakes the consumer out of a PopBatch wait, making it return 0 once
  /// without dequeuing (even if events are present). Used by the shard's
  /// checkpoint pause to get the worker back to its loop head. The flag is
  /// consumed by the PopBatch that observes it.
  void Interrupt();

  /// Copies the queued events in FIFO order without dequeuing them — the
  /// checkpoint's in-flight capture. Only meaningful while the consumer is
  /// paused and producers are gated out.
  std::vector<IngestEvent> Snapshot() const;

  /// Installs (or clears, with nullptr) a hook invoked whenever a pop
  /// frees space in a previously-*full* queue — the capacity wakeup behind
  /// non-blocking producers that parked on kFull. The hook runs on the
  /// consumer thread *while the queue mutex is held*: it must be cheap and
  /// must not touch the queue. Holding the lock is deliberate — after
  /// SetSpaceCallback(nullptr) returns, no further invocation is possible,
  /// which lets the owner of the callback's captures tear them down safely.
  void SetSpaceCallback(std::function<void()> cb);

  /// No further pushes succeed; the consumer drains what remains.
  void Close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Maximum queue depth ever observed (after a push).
  size_t high_water() const;

 private:
  PushResult PushLocked(std::unique_lock<std::mutex>& lock,
                        IngestEvent&& event, AdmitHook on_admit);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;   ///< Producers wait for space.
  std::condition_variable not_empty_;  ///< The consumer waits for events.
  std::vector<IngestEvent> ring_;      ///< Fixed storage, size == capacity_.
  size_t head_ = 0;                    ///< Index of the oldest event.
  size_t count_ = 0;                   ///< Events currently queued.
  size_t high_water_ = 0;
  bool closed_ = false;
  bool interrupt_ = false;  ///< One-shot PopBatch wakeup (see Interrupt()).
  std::function<void()> space_cb_;  ///< Full→not-full hook (under mu_).
};

}  // namespace runtime
}  // namespace ode

#endif  // ODE_RUNTIME_EVENT_QUEUE_H_

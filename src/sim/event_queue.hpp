#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

/// \file event_queue.hpp
/// The typed event entry and its callback storage, shared by the event
/// queue (calendar_queue.hpp).
///
/// Ordering contract: events fire in strictly increasing (time, seq) order,
/// where `seq` is the queue's push counter.  Ties on `time` therefore fire
/// in insertion (FIFO) order, independent of queue internals, which is what
/// makes replays deterministic and lets the tracer mirror the key.
///
/// A multi-month replay pushes and pops millions of events, so an entry
/// is a trivially copyable 24-byte `Event`: moving one is plain word
/// copies.  The simulation's actual event kinds (job submit, job finish,
/// scheduler wake) carry a 32-bit argument instead of a captured closure;
/// arbitrary callbacks remain available through a small-buffer slot slab
/// kept beside the entries (arg indexes into it, slots recycle through a
/// free list) that stores trivially copyable callables inline and boxes
/// the rest (counted, so tests can assert the steady state allocates
/// nothing).

namespace istc::sim {

/// The simulation's event kinds.  kCallback is the type-erased fallback
/// that keeps the generic `schedule(t, fn)` API working; the typed kinds
/// cover every event the scheduler stack schedules in steady state.
enum class EventType : std::uint8_t {
  kCallback,        ///< invoke the stored callable (tests, benches, glue)
  kJobSubmit,       ///< arg = submission index (JobEventSink::job_submit)
  kJobFinish,       ///< arg = job-store slot (JobEventSink::job_finish)
  kSchedulerWake,   ///< no payload; exists to trigger a quiescent pass
  kSample,          ///< no payload; invokes the engine's sample hook only
  kCapacityRepair,  ///< arg = outage id (JobEventSink::capacity_repair)
  kFaultFire,       ///< arg = fault-timeline index (engine fault hook)
  kGridArrival,     ///< arg = delivery-log index (engine grid hook)
};

inline constexpr int kNumEventTypes = 8;

/// Small-buffer storage for kCallback events.  Trivially copyable
/// callables up to kInlineBytes live inline (the queue then relocates them
/// with the entry, no allocation); anything larger or non-trivial is boxed
/// on the heap and the box pointer stored instead.  The slot itself stays
/// trivially copyable either way — ownership of a box transfers with the
/// bytes, and exactly one of invoke()/dispose() must be called per stored
/// callable (the queue guarantees this).
class CallbackSlot {
 public:
  static constexpr std::size_t kInlineBytes = 24;
  static constexpr std::size_t kAlign = 8;

  /// Store `fn`; bumps `boxed_count` when the callable had to be boxed.
  template <class F>
  void emplace(F&& fn, std::uint64_t& boxed_count) {
    using D = std::decay_t<F>;
    if constexpr (std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D> &&
                  sizeof(D) <= kInlineBytes && alignof(D) <= kAlign) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      op_ = &inline_op<D>;
    } else {
      D* boxed = new D(std::forward<F>(fn));
      std::memcpy(buf_, &boxed, sizeof boxed);
      op_ = &boxed_op<D>;
      ++boxed_count;
    }
  }

  /// Run the callable and release any box.  Call at most once.
  void invoke() { op_(buf_, Op::kInvoke); }

  /// Release any box without running.  Call at most once, instead of
  /// invoke() (the queue destructor uses this for undrained events).
  void dispose() { op_(buf_, Op::kDispose); }

 private:
  enum class Op : std::uint8_t { kInvoke, kDispose };
  using OpFn = void (*)(void*, Op);

  template <class D>
  static void inline_op(void* buf, Op op) {
    if (op == Op::kInvoke) (*std::launder(reinterpret_cast<D*>(buf)))();
    // Trivially destructible by construction: dispose is a no-op.
  }

  template <class D>
  static void boxed_op(void* buf, Op op) {
    D* boxed;
    std::memcpy(&boxed, buf, sizeof boxed);
    if (op == Op::kInvoke) (*boxed)();
    delete boxed;
  }

  OpFn op_ = nullptr;
  alignas(kAlign) unsigned char buf_[kInlineBytes];
};

/// The kCallback payload slab: slots recycle through a free list,
/// trivially copyable callables live inline, the rest are boxed and
/// counted.  Separate from the queue's entry storage, so queue entries
/// stay plain 24-byte values.
class CallbackSlab {
 public:
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_slots_.reserve(n);
  }

  /// Store `fn` and return its slot index (an Event::arg).
  template <class F>
  std::uint32_t put(F&& fn) {
    const std::uint32_t idx = acquire_slot();
    slots_[idx].emplace(std::forward<F>(fn), boxed_);
    ++live_;
    return idx;
  }

  /// Claim slot `idx`: recycle it and return a copy of the payload.  The
  /// slot is released *before* the caller invokes, so a callback that
  /// schedules new events may reuse it — take the copy, then invoke() (or
  /// dispose()) it exactly once.
  CallbackSlot take(std::uint32_t idx) {
    const CallbackSlot slot = slots_[idx];
    if (free_slots_.size() == free_slots_.capacity()) ++grows_;
    free_slots_.push_back(idx);
    --live_;
    return slot;
  }

  /// Release an undrained slot without running it (queue destructors).
  void dispose(std::uint32_t idx) {
    slots_[idx].dispose();
    --live_;
  }

  /// Backing-vector growth events (allocations).
  std::uint64_t grows() const { return grows_; }
  /// Callables that had to be boxed out of line (allocations).
  std::uint64_t boxed() const { return boxed_; }
  /// Slots currently holding an unclaimed payload.  Run forks require
  /// zero: a queue with no live callbacks is plain copyable data.
  std::uint64_t live() const { return live_; }

 private:
  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t idx = free_slots_.back();
      free_slots_.pop_back();
      return idx;
    }
    if (slots_.size() == slots_.capacity()) ++grows_;
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  std::vector<CallbackSlot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< recycled slab indices
  std::uint64_t grows_ = 0;
  std::uint64_t boxed_ = 0;
  std::uint64_t live_ = 0;
};

/// One queue entry.  Trivially copyable and small on purpose: the queue
/// moves these with plain assignment, never a type-erased move constructor,
/// and bucket spreads and sorts scale with entry size.  Callback payloads live in the
/// queue's slot slab (arg = slot index), not in the entry.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint32_t arg = 0;  ///< job id / submit index / callback slot index
  EventType type = EventType::kCallback;
};

static_assert(std::is_trivially_copyable_v<Event>,
              "the queue relies on memcpy-equivalent entry moves");
static_assert(sizeof(Event) <= 24,
              "keep queue entries small: move cost is copy cost");

/// The ordering contract.
inline bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace istc::sim

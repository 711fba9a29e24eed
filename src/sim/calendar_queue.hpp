#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

/// \file calendar_queue.hpp
/// The event queue: a two-rung calendar/ladder queue over the typed
/// 24-byte Event.
///
/// A replay preloads every submission, so the queue holds thousands of
/// entries for months of simulated time, and a binary heap would pay
/// O(log n) word-copy sifts per operation.  The workloads' event times
/// are near-uniform (finish times spread across the trace span), which is
/// the textbook case for a calendar queue: hash the time into a bucket,
/// keep only the bucket at the cursor sorted, and both push and pop
/// become O(1) amortized.
///
/// Layout (widths are powers of two so bucket indexing is a shift):
///   - `cur_`: the events at the cursor, sorted ascending with a head
///     index — pop reads `cur_[head_++]`, and a "gap push" at or before
///     the cursor (events scheduled for ~now: wakes, same-time finishes)
///     is a sorted insert.  Ascending order makes the worst gap case —
///     a batch of same-time events, where each arrival is the new maximum
///     of its timestamp run — an O(1) push_back instead of a full-vector
///     memmove.
///   - rung 1: 1024 buckets x 64 s — about 18 hours of calendar directly
///     bucketed ahead of the cursor.
///   - rung 2: 1024 buckets x 65536 s (~18 h each, ~2.1 simulated years
///     total) — a whole job log lands here at load time; each bucket is
///     spread across rung 1 when the cursor reaches it.
///   - `far_`: unsorted overflow beyond rung 2's horizon; re-anchors the
///     wheel when everything nearer has drained (never hit by the
///     in-repo workloads, exercised by the property tests).
///
/// Every event is touched a bounded number of times (push, at most one
/// rung-2 -> rung-1 spread, one bucket sort share, pop), hence the O(1)
/// amortized bound.  Ordering is the exact (time, seq) contract of
/// event_before(): equal-time events meet in the same bucket and the sort
/// is on the full key, so FIFO-among-equal-times survives bucketing
/// (schedules are pinned by the golden hashes in
/// tests/trace/test_determinism).
///
/// The queue allocates while buckets warm up to their working capacity
/// (counted in heap_allocations()); once warm, the bucket vectors recycle
/// modulo the wheel size and the steady state allocates nothing (asserted
/// in tests/sim/test_event_queue.cpp).

namespace istc::sim {

class CalendarEventQueue {
 public:
  static constexpr int kRung1Shift = 6;   ///< 64 s rung-1 buckets
  static constexpr int kRung2Shift = 16;  ///< 65536 s rung-2 buckets
  static constexpr int kSlotShift = kRung2Shift - kRung1Shift;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotShift;
  static constexpr std::int64_t kSlotMask =
      static_cast<std::int64_t>(kSlots) - 1;

  static_assert((-9 >> 1) == -5, "bucket math relies on arithmetic shift");

  CalendarEventQueue() : rung1_(kSlots), rung2_(kSlots) {}
  CalendarEventQueue(const CalendarEventQueue&) = delete;
  CalendarEventQueue& operator=(const CalendarEventQueue&) = delete;

  ~CalendarEventQueue() {
    dispose_events(cur_);
    for (auto& bucket : rung1_) dispose_events(bucket);
    for (auto& bucket : rung2_) dispose_events(bucket);
    dispose_events(far_);
  }

  /// Pre-size the callback slab and the sorted window.  The bucket wheels
  /// warm up on first contact instead (their working size depends on the
  /// event-time distribution, not the event count).
  void reserve(std::size_t n) {
    slab_.reserve(n);
    cur_.reserve(std::min(n, kSlots * 4));
  }

  void push_typed(SimTime t, EventType type, std::uint32_t arg) {
    ISTC_EXPECTS(type != EventType::kCallback);
    Event e;
    e.time = t;
    e.type = type;
    e.arg = arg;
    push_entry(e);
  }

  template <class F>
  void push_callback(SimTime t, F&& fn) {
    Event e;
    e.time = t;
    e.type = EventType::kCallback;
    e.arg = slab_.put(std::forward<F>(fn));
    push_entry(e);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  SimTime next_time() const {
    ISTC_EXPECTS(size_ > 0);
    return cur_[head_].time;
  }

  /// Remove and return the earliest event per the (time, seq) contract.
  /// A kCallback entry's payload stays in the slab until the caller claims
  /// it with take_callback() — exactly once per popped callback event.
  Event pop() {
    ISTC_EXPECTS(size_ > 0);
    const Event top = cur_[head_++];
    --size_;
    if (head_ == cur_.size()) {
      cur_.clear();
      head_ = 0;
      if (size_ == 0) {
        anchored_ = false;  // fully drained: re-anchor on the next push
      } else {
        advance_window();
      }
    }
    return top;
  }

  /// Claim the payload of a popped kCallback event (see CallbackSlab).
  CallbackSlot take_callback(const Event& e) {
    ISTC_EXPECTS(e.type == EventType::kCallback);
    return slab_.take(e.arg);
  }

  /// Run-fork support: become a copy of `other`'s pending events and push
  /// counter.  Requires both queues to hold no live callback payloads —
  /// with the slab empty the queue is plain trivially copyable data, which
  /// is what makes forking a mid-run simulation cheap and exact.
  void assign_from(const CalendarEventQueue& other) {
    ISTC_EXPECTS(other.slab_.live() == 0);
    ISTC_EXPECTS(slab_.live() == 0);
    cur_ = other.cur_;
    head_ = other.head_;
    rung1_ = other.rung1_;
    rung2_ = other.rung2_;
    far_ = other.far_;
    size_ = other.size_;
    seq_ = other.seq_;
    peak_size_ = other.peak_size_;
    anchored_ = other.anchored_;
    cursor_ = other.cursor_;
    limit1_ = other.limit1_;
    cursor2_ = other.cursor2_;
    limit2_ = other.limit2_;
  }

  /// Heap allocations performed by the queue since construction: bucket
  /// and window growth plus boxed (out-of-line) callbacks.
  std::uint64_t heap_allocations() const {
    return grows_ + slab_.grows() + slab_.boxed();
  }
  std::uint64_t boxed_callbacks() const { return slab_.boxed(); }
  /// Callback payloads pushed but not yet claimed (see CallbackSlab).
  std::uint64_t live_callbacks() const { return slab_.live(); }
  /// High-water mark of simultaneously queued events.
  std::size_t peak_size() const { return peak_size_; }

 private:
  static std::int64_t bucket1(SimTime t) { return t >> kRung1Shift; }
  static std::int64_t bucket2(SimTime t) { return t >> kRung2Shift; }

  void push_entry(Event e) {
    e.seq = seq_++;
    ++size_;
    if (size_ > peak_size_) peak_size_ = size_;
    if (!anchored_) anchor(bucket1(e.time));
    route(e);
    // A push into a drained queue may land in a rung; restore the
    // invariant that the minimum is always at cur_[head_].
    if (head_ == cur_.size()) advance_window();
  }

  /// Place the wheel so the cursor sits just before the bucket containing
  /// `b1`: the anchoring event is pulled into cur_ by the very next
  /// advance with a one-bucket scan.  Anchoring at the rung-2 slot
  /// boundary instead would make a drain/re-anchor cycle (one live event
  /// hopping forward, e.g. a self-perpetuating chain) walk every empty
  /// bucket between the slot start and b1 on each hop.
  void anchor(std::int64_t b1) {
    const std::int64_t c2 = b1 >> kSlotShift;
    cursor2_ = c2 + 1;
    limit2_ = cursor2_ + static_cast<std::int64_t>(kSlots);
    limit1_ = cursor2_ << kSlotShift;
    cursor_ = b1 - 1;
    anchored_ = true;
  }

  void route(const Event& e) {
    const std::int64_t b1 = bucket1(e.time);
    if (b1 <= cursor_) {
      // At or before the cursor (typically "now"): keep the live window
      // sorted.  The common cases are O(1): a same-time arrival is the new
      // maximum of its run (push_back when nothing later is windowed), and
      // the window is near-empty the rest of the time.
      const auto it = std::lower_bound(cur_.begin() + head_, cur_.end(), e,
                                       event_before);
      if (cur_.size() == cur_.capacity()) ++grows_;
      cur_.insert(it, e);
    } else if (b1 < limit1_) {
      push_bucket(rung1_[b1 & kSlotMask], e);
    } else if (bucket2(e.time) < limit2_) {
      // b1 >= limit1_ implies b2 >= cursor2_ (limit1_ == cursor2_ << 10
      // whenever control is outside advance_window), so the slot is still
      // ahead of the rung-2 scan.
      push_bucket(rung2_[bucket2(e.time) & kSlotMask], e);
    } else {
      push_bucket(far_, e);
    }
  }

  void push_bucket(std::vector<Event>& bucket, const Event& e) {
    if (bucket.size() == bucket.capacity()) ++grows_;
    bucket.push_back(e);
  }

  /// cur_ is empty but events remain: advance the cursor to the next
  /// non-empty rung-1 bucket, pulling from rung 2 / far_ as the nearer
  /// tiers drain.  Scan lengths are bounded by the wheel size.
  void advance_window() {
    ISTC_ASSERT(head_ == cur_.size() && size_ > 0);
    cur_.clear();
    head_ = 0;
    for (;;) {
      while (cursor_ + 1 < limit1_) {
        std::vector<Event>& bucket = rung1_[(cursor_ + 1) & kSlotMask];
        ++cursor_;
        if (bucket.empty()) continue;
        if (cur_.capacity() < bucket.size()) ++grows_;
        cur_.assign(bucket.begin(), bucket.end());
        bucket.clear();  // keeps its capacity for the next wheel lap
        std::sort(cur_.begin(), cur_.end(), event_before);
        return;
      }
      bool spread = false;
      while (cursor2_ < limit2_) {
        std::vector<Event>& bucket = rung2_[cursor2_ & kSlotMask];
        const std::int64_t c2 = cursor2_++;
        limit1_ = (c2 + 1) << kSlotShift;
        cursor_ = (c2 << kSlotShift) - 1;
        if (bucket.empty()) continue;
        for (const Event& e : bucket) {
          push_bucket(rung1_[bucket1(e.time) & kSlotMask], e);
        }
        bucket.clear();
        spread = true;
        break;
      }
      if (spread) continue;
      // Both rungs drained: re-anchor at the earliest far event and
      // partition the overflow into rung 2.
      ISTC_ASSERT(!far_.empty());
      std::int64_t min2 = bucket2(far_.front().time);
      for (const Event& e : far_) min2 = std::min(min2, bucket2(e.time));
      cursor2_ = min2;
      limit2_ = min2 + static_cast<std::int64_t>(kSlots);
      limit1_ = min2 << kSlotShift;
      cursor_ = limit1_ - 1;
      std::size_t keep = 0;
      for (const Event& e : far_) {
        if (bucket2(e.time) < limit2_) {
          push_bucket(rung2_[bucket2(e.time) & kSlotMask], e);
        } else {
          far_[keep++] = e;
        }
      }
      far_.resize(keep);
    }
  }

  void dispose_events(const std::vector<Event>& events) {
    for (const Event& e : events) {
      if (e.type == EventType::kCallback) slab_.dispose(e.arg);
    }
  }

  std::vector<Event> cur_;  ///< sorted window (ascending), min at head_
  std::size_t head_ = 0;    ///< first live element of cur_
  std::vector<std::vector<Event>> rung1_;  ///< 64 s buckets
  std::vector<std::vector<Event>> rung2_;  ///< 65536 s buckets
  std::vector<Event> far_;                 ///< beyond rung 2's horizon
  CallbackSlab slab_;
  std::size_t size_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t grows_ = 0;
  std::size_t peak_size_ = 0;
  /// Wheel geometry, in bucket units.  Invariants at rest: events with
  /// rung-1 bucket <= cursor_ are in cur_ (or popped); rung 1 covers
  /// (cursor_, limit1_); rung 2 covers [cursor2_, limit2_) with
  /// limit1_ == cursor2_ << kSlotShift; far_ holds the rest.
  bool anchored_ = false;
  std::int64_t cursor_ = -1;
  std::int64_t limit1_ = 0;
  std::int64_t cursor2_ = 0;
  std::int64_t limit2_ = 0;
};

}  // namespace istc::sim

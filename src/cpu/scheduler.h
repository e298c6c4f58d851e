// Event-driven issue/wakeup scheduler state for one RUU (either thread's
// buffer — the p-thread RUU shares the machinery).
//
// The old core re-derived readiness every cycle by walking the full RUU in
// Issue(), Writeback() and recovery — O(ruu_size) per cycle even when
// nothing was ready, the classic SimpleScalar-descendant sim slowdown.
// This header holds the three structures that replace those scans:
//
//   * a ready queue (age-ordered) an entry enters exactly when its last
//     outstanding operand completes — or at dispatch, if none were
//     outstanding;
//   * a completion event calendar ring for in-flight FU/memory ops,
//     drained with a single masked array index per cycle;
//   * a per-producer-slot wakeup table: each entry is a consumer waiting
//     on the occupant of one physical RUU slot (validated by dispatch
//     seq), appended at dispatch and consumed when that producer's
//     completion event fires. Keying by producer slot instead of
//     architectural register means a completion walks exactly its own
//     consumers, never every waiter of a hot register; stale entries left
//     by a squashed producer are dropped by the seq check the next time
//     the slot's occupant completes.
//
// Everything here is *derived* scheduling state: it refers to RUU slots by
// {physical slot, dispatch seq} pairs (SchedRef). Slots are reused after
// commit/squash but seqs never are, so a stale reference is detected by a
// seq mismatch and dropped lazily — squash (mispredict recovery, p-thread
// session teardown) does not have to hunt down every reference it kills.
// Because nothing in here is architectural and the timed core only ever
// starts from an empty pipeline (Core::InstallWarmState requires cycle 0),
// SPCK checkpoints carry no scheduler state: it is trivially reconstructed
// as "all empty" at install (see runner/checkpoint.h).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace spear {

// Reference to an RUU occupant: physical slot + the dispatch seq that
// validates it. Holders must re-check `Slot(slot).seq == seq` before use.
struct SchedRef {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

class EventScheduler {
 public:
  // One consumer waiting on one outstanding source operand. producer_seq
  // identifies which in-flight writer of the register this waiter belongs
  // to (a register can have several renamed writers in flight at once).
  struct Waiter {
    std::uint64_t producer_seq = 0;
    std::uint64_t consumer_seq = 0;
    std::uint32_t consumer_slot = 0;
  };

  // ---- ready queue -------------------------------------------------------
  // Kept sorted by seq so issue scans it oldest-first, exactly like the
  // old full-RUU age-order walk. Dispatch-time insertions are always the
  // youngest seq (O(1) append); wakeup-time insertions may interleave with
  // older FU-blocked entries and take the sorted-insert path.
  void InsertReady(SchedRef r) {
    if (ready_.empty() || ready_.back().seq < r.seq) {
      ready_.push_back(r);
      return;
    }
    const auto it = std::lower_bound(
        ready_.begin(), ready_.end(), r,
        [](const SchedRef& a, const SchedRef& b) { return a.seq < b.seq; });
    ready_.insert(it, r);
  }
  std::vector<SchedRef>& ready() { return ready_; }
  const std::vector<SchedRef>& ready() const { return ready_; }

  // ---- completion events -------------------------------------------------
  // Calendar ring: bucket index is the completion cycle masked into a
  // power-of-two ring. The drain visits every cycle in order, so a bucket
  // can never hold two distinct live cycles as long as every in-flight
  // latency is below the ring span — true for all real FU/memory configs.
  // Anything farther out (pathological --mem-latency tests) spills into a
  // map keyed by absolute cycle. No hashing, no node allocation, and no
  // bucket churn on the per-cycle path.
  static constexpr std::size_t kRingBuckets = 512;  // > max completion latency
  static constexpr std::size_t kRingMask = kRingBuckets - 1;

  void ScheduleCompletion(Cycle now, Cycle cycle, SchedRef r) {
    SPEAR_DCHECK(cycle > now);
    if (cycle - now < kRingBuckets) {
      ring_[cycle & kRingMask].push_back(r);
    } else {
      far_events_[cycle].push_back(r);
    }
    ++pending_events_;
  }

  // Removes the completion bucket for `cycle` into `out`, sorted
  // oldest-first so completions (and their trace records / wakeups) happen
  // in the same age order the old linear writeback scan produced. `out` is
  // cleared in all cases; callers keep a scratch vector across cycles so
  // the drain is allocation-free in steady state (bucket and scratch
  // capacities circulate via swap).
  void TakeCompletionsInto(Cycle cycle, std::vector<SchedRef>& out) {
    out.clear();
    if (pending_events_ == 0) return;
    std::vector<SchedRef>& bucket = ring_[cycle & kRingMask];
    if (!bucket.empty()) {
      out.swap(bucket);
      bucket.clear();  // swap left out's stale contents behind
    }
    if (!far_events_.empty()) {
      const auto it = far_events_.find(cycle);
      if (it != far_events_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
        far_events_.erase(it);
      }
    }
    pending_events_ -= out.size();
    if (out.size() > 1) {
      std::sort(out.begin(), out.end(), [](const SchedRef& a,
                                           const SchedRef& b) {
        return a.seq < b.seq;
      });
    }
  }

  // ---- per-producer-slot wakeup table ------------------------------------
  // Sized to the owning RUU's slot count at Core construction and
  // re-validated on every attach: a scheduler reused with a *smaller* RUU
  // geometry must not keep stale high slots around (waiters(slot) would
  // pass its bounds check against the old, larger table and index wakeup
  // state no live RUU slot backs). assign() both resizes and clears, so an
  // attach is always a clean slate.
  void SetSlotCount(std::size_t slots) {
    SPEAR_DCHECK(empty());
    wakeup_.assign(slots, {});
  }

  std::size_t slot_count() const { return wakeup_.size(); }

  std::vector<Waiter>& waiters(std::size_t producer_slot) {
    SPEAR_DCHECK(producer_slot < wakeup_.size());
    return wakeup_[producer_slot];
  }

  // Completed-but-unrecovered mispredicted branches (main thread only);
  // writeback resolves the oldest valid one per cycle.
  std::vector<SchedRef>& pending_recovery() { return pending_recovery_; }

  bool empty() const {
    if (!ready_.empty() || pending_events_ != 0 || !pending_recovery_.empty()) {
      return false;
    }
    for (const std::vector<Waiter>& w : wakeup_) {
      if (!w.empty()) return false;
    }
    return true;
  }

  void Reset() {
    ready_.clear();
    for (std::vector<SchedRef>& b : ring_) b.clear();
    far_events_.clear();
    pending_events_ = 0;
    for (std::vector<Waiter>& w : wakeup_) w.clear();
    pending_recovery_.clear();
  }

 private:
  std::vector<SchedRef> ready_;
  std::array<std::vector<SchedRef>, kRingBuckets> ring_;
  std::unordered_map<Cycle, std::vector<SchedRef>> far_events_;
  std::size_t pending_events_ = 0;
  std::vector<std::vector<Waiter>> wakeup_;  // indexed by producer slot
  std::vector<SchedRef> pending_recovery_;
};

}  // namespace spear

// Two-level memory hierarchy per paper Table 2: split L1 (data side
// modeled; instruction fetch is assumed to hit, as the kernels are small
// loops — see DESIGN.md), unified L2, flat main-memory latency.
//
// Latencies follow the paper's model: an access costs the latency of the
// level that services it (L1 hit = 1 cycle, L1 miss/L2 hit = 12, L2 miss =
// 120 by default; Figure 9 sweeps the L2/memory pair).
//
// CMP mode (DESIGN.md §17) reuses this class as a per-core L1 front end
// over one *shared* L2 and one shared outstanding-fill table: AttachShared
// repoints the L2/fill-table accesses at structures owned by CmpSystem.
// Address-space ids (asids) fold into every block key so distinct programs
// — whether SMT contexts on one core or whole cores in a CMP — never alias
// in a shared structure; asid 0 is bit-identical to the historical
// single-space keying.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"

namespace spear {

struct HierarchyConfig {
  CacheConfig l1d{"dl1", /*sets=*/256, /*block_bytes=*/32, /*assoc=*/4};
  CacheConfig l2{"ul2", /*sets=*/1024, /*block_bytes=*/64, /*assoc=*/4};
  std::uint32_t l1_latency = 1;
  std::uint32_t l2_latency = 12;
  std::uint32_t mem_latency = 120;
};

struct AccessOutcome {
  std::uint32_t latency = 0;
  bool l1_miss = false;
  bool l2_miss = false;
};

// Outstanding-fill table (block key -> fill-complete cycle). Open
// addressing with linear probing: a slot that was never used terminates
// the chain; an expired slot (ready <= now) stays in the chain but is
// semantically absent — exactly the behaviour of the old map, where
// expired entries were erased on touch and never observable. This runs
// once per data access, so it must not hash-allocate.
class FillTable {
 public:
  explicit FillTable(std::size_t slots = 2048) : fills_(slots) {}

  // Combined probe + record, one call per data access. If `key` has an
  // in-flight fill (ready > now) returns its completion cycle — the caller
  // merges into it and nothing is recorded. Otherwise, when `record` is
  // set, records a fill completing at `ready` (refreshing an expired slot
  // for the same key, reusing the first expired slot on the chain, or
  // claiming a fresh one). Returns 0 when no in-flight fill matched.
  Cycle MergeOrRecord(std::uint64_t key, Cycle now, bool record,
                      Cycle ready) {
    const std::size_t mask = fills_.size() - 1;
    std::size_t i = FillHash(key) & mask;
    std::size_t reuse = fills_.size();  // first expired slot on the chain
    bool found = false;
    while (fills_[i].used) {
      if (fills_[i].key == key) {
        found = true;
        break;
      }
      if (reuse == fills_.size() && fills_[i].ready <= now) reuse = i;
      i = (i + 1) & mask;
    }
    if (found && fills_[i].ready > now) return fills_[i].ready;
    if (record) {
      if (found) {
        fills_[i].ready = ready;  // expired entry for this key: refresh
      } else if (reuse != fills_.size()) {
        fills_[reuse] = FillSlot{key, ready, true};
      } else {
        fills_[i] = FillSlot{key, ready, true};
        if (++fills_used_ * 2 > fills_.size()) Rebuild(now);
      }
    }
    return 0;
  }

  // Non-mutating in-flight probe (tests and telemetry).
  bool InFlight(std::uint64_t key, Cycle now) const {
    const std::size_t mask = fills_.size() - 1;
    std::size_t i = FillHash(key) & mask;
    while (fills_[i].used) {
      if (fills_[i].key == key) return fills_[i].ready > now;
      i = (i + 1) & mask;
    }
    return false;
  }

 private:
  struct FillSlot {
    std::uint64_t key = 0;
    Cycle ready = 0;
    bool used = false;
  };

  static std::size_t FillHash(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }

  // Compacts the table once half its slots have ever been used: expired
  // entries drop out, live fills (a few dozen at most — bounded by issue
  // bandwidth times memory latency) re-home. Amortized cost per miss is
  // a fraction of the hash lookup this table replaced.
  void Rebuild(Cycle now) {
    std::vector<FillSlot> old(fills_.size());
    old.swap(fills_);
    fills_used_ = 0;
    const std::size_t mask = fills_.size() - 1;
    for (const FillSlot& s : old) {
      if (!s.used || s.ready <= now) continue;
      std::size_t i = FillHash(s.key) & mask;
      while (fills_[i].used) i = (i + 1) & mask;
      fills_[i] = s;
      ++fills_used_;
    }
  }

  std::vector<FillSlot> fills_;
  std::size_t fills_used_ = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config)
      : config_(config), l1d_(config.l1d), l2_(config.l2) {
    block_shift_ = 0;
    while ((1u << block_shift_) < config.l1d.block_bytes) ++block_shift_;
  }

  // CMP mode: repoints L2 probes and fill-table bookkeeping at structures
  // shared by every core. The private l2_/fills_ members go dormant (their
  // stats stay zero and are not registered).
  void AttachShared(Cache* shared_l2, FillTable* shared_fills) {
    shared_l2_ = shared_l2;
    shared_fills_ = shared_fills;
  }
  bool shared() const { return shared_l2_ != nullptr; }

  // Simulates one data access at cycle `now`. Misses record an
  // outstanding fill; a later access to a block whose fill is still in
  // flight waits for the remaining time instead of observing an instant
  // hit (MSHR-merge behaviour). This matters for prefetching fidelity: a
  // p-thread access only fully hides a miss if it ran far enough ahead.
  AccessOutcome AccessData(Addr addr, bool write, ThreadId tid, Cycle now,
                           std::uint32_t asid = 0) {
    AccessOutcome out;
    const std::uint64_t key = FillKey(addr, asid);

    if (l1d_.Access(addr, write, tid, asid)) {
      out.latency = config_.l1_latency;
    } else {
      out.l1_miss = true;
      if (l2().Access(addr, write, tid, asid)) {
        out.latency = config_.l2_latency;
      } else {
        out.l2_miss = true;
        out.latency = config_.mem_latency;
      }
    }

    const bool record = out.latency > config_.l1_latency;
    const Cycle inflight =
        fills().MergeOrRecord(key, now, record, now + out.latency);
    if (inflight != 0) {
      // Merge into the in-flight fill: pay the remaining time.
      const auto remaining = static_cast<std::uint32_t>(inflight - now);
      out.latency = remaining > config_.l1_latency ? remaining
                                                   : config_.l1_latency;
    }
    return out;
  }

  // Cross-core pre-execution access (DESIGN.md §17): the p-thread runs on
  // a donor core, so its fills warm the *donor's* private L1 — useless to
  // the triggering core — and the shared L2, which is the whole benefit.
  // Model: skip this core's L1 entirely; the latency floor is the L2
  // latency and only L2 misses record fills.
  AccessOutcome AccessDataSkipL1(Addr addr, ThreadId tid, Cycle now,
                                 std::uint32_t asid = 0) {
    AccessOutcome out;
    out.l1_miss = true;
    if (l2().Access(addr, /*write=*/false, tid, asid)) {
      out.latency = config_.l2_latency;
    } else {
      out.l2_miss = true;
      out.latency = config_.mem_latency;
    }
    const bool record = out.latency > config_.l2_latency;
    const Cycle inflight = fills().MergeOrRecord(FillKey(addr, asid), now,
                                                 record, now + out.latency);
    if (inflight != 0) {
      const auto remaining = static_cast<std::uint32_t>(inflight - now);
      out.latency = remaining > config_.l2_latency ? remaining
                                                   : config_.l2_latency;
    }
    return out;
  }

  // Warming-only access: updates tag/LRU/dirty state exactly like
  // AccessData but skips the latency and MSHR-merge bookkeeping, none of
  // which is part of a WarmState. The warming routine behind
  // fast-forward and sampling (runner::Warmer) drives this once per
  // load/store, so it must stay lean.
  void WarmData(Addr addr, bool write, ThreadId tid, std::uint32_t asid = 0) {
    if (!l1d_.Access(addr, write, tid, asid)) {
      l2().Access(addr, write, tid, asid);
    }
  }

  const HierarchyConfig& config() const { return config_; }
  Cache& l1d() { return l1d_; }
  const Cache& l1d() const { return l1d_; }
  Cache& l2() { return shared_l2_ != nullptr ? *shared_l2_ : l2_; }
  const Cache& l2() const {
    return shared_l2_ != nullptr ? *shared_l2_ : l2_;
  }
  FillTable& fills() {
    return shared_fills_ != nullptr ? *shared_fills_ : fills_;
  }

  void ResetStats() {
    l1d_.ResetStats();
    if (shared_l2_ == nullptr) l2_.ResetStats();
  }

  // Binds both cache levels under "mem.l1d.*" / "mem.l2.*". A shared L2 is
  // bound once by its owner (CmpSystem), not per core.
  void RegisterStats(telemetry::StatRegistry& reg) const {
    l1d_.RegisterStats(reg, "mem.l1d");
    if (shared_l2_ == nullptr) l2_.RegisterStats(reg, "mem.l2");
  }

 private:
  std::uint64_t FillKey(Addr addr, std::uint32_t asid) const {
    return (addr >> block_shift_) | (static_cast<std::uint64_t>(asid) << 32);
  }

  HierarchyConfig config_;
  Cache l1d_;
  Cache l2_;
  unsigned block_shift_ = 5;
  Cache* shared_l2_ = nullptr;        // CMP mode; nullptr = private l2_
  FillTable* shared_fills_ = nullptr; // CMP mode; nullptr = private fills_
  FillTable fills_;
};

}  // namespace spear

// Core (pipeline) configuration. Defaults reproduce paper Table 2:
// 8-wide issue/commit, 128-entry RUU, bimodal 2048 predictor, 4+1 integer
// and 4+1 FP functional units, 2 memory ports, and the two-level hierarchy
// in mem/hierarchy.h. The IFQ size is the paper's headline knob (128/256).
#pragma once

#include <cstdint>

#include "bpred/bpred.h"
#include "mem/hierarchy.h"
#include "mem/stride_prefetcher.h"
#include "spear/config.h"

namespace spear {

struct FuPoolConfig {
  std::uint32_t int_alu = 4;
  std::uint32_t int_muldiv = 1;
  std::uint32_t fp_alu = 4;
  std::uint32_t fp_muldiv = 1;
  std::uint32_t mem_ports = 2;
};

struct FuLatencies {
  std::uint32_t int_alu = 1;
  std::uint32_t int_mul = 3;
  std::uint32_t int_div = 20;
  std::uint32_t fp_alu = 2;
  std::uint32_t fp_mul = 4;
  std::uint32_t fp_div = 12;
};

struct CoreConfig {
  std::uint32_t ifq_size = 128;   // paper: 128 and 256
  std::uint32_t ruu_size = 128;   // reorder buffer (RUU)
  std::uint32_t fetch_width = 8;
  std::uint32_t decode_width = 8;
  std::uint32_t issue_width = 8;
  std::uint32_t commit_width = 8;

  // Forward-progress watchdog: abort the run (pipeline bug) if commit
  // makes no progress for this many cycles. No workload legitimately
  // stalls commit this long with a 120-cycle memory.
  std::uint64_t commit_watchdog_cycles = 1'000'000;

  FuPoolConfig fu;
  FuLatencies lat;
  BpredConfig bpred;
  HierarchyConfig mem;
  SpearConfig spear;
  // Traditional-prefetching baseline (off by default;
  // bench/manifests/ext_prefetch.json compares it against SPEAR per the
  // paper's Section 1 argument).
  StridePrefetcherConfig stride_prefetch;

  // Lockstep co-simulation: when set, RunConfig (and the tools) attach a
  // CosimChecker that compares every commit against the functional
  // emulator and aborts the run on divergence (see src/cosim). The core
  // itself only carries the flag — zero cost when off.
  bool cosim_check = false;

  // Speculative-leakage taint observer: when set, RunConfig (and the
  // tools) attach a TaintObserver that shadows taint through execution and
  // emits core.spec_leak.* stats (see spear/taint_observer.h). Purely
  // observational — never changes timing.
  bool taint_observe = false;

  // BasicBlocker-style speculation fence: a load may not issue while any
  // older branch in the RUU is unresolved (p-thread loads wait on the whole
  // main-thread window). Closes the speculative cache side channel at the
  // cost of load-issue latency; the leakage bench's "fenced" variant.
  bool fence_spec_loads = false;

  std::uint32_t ExtractPerCycle() const {
    return spear.extract_per_cycle != 0 ? spear.extract_per_cycle
                                        : issue_width / 2;
  }
  std::uint32_t TriggerOccupancy() const {
    return ifq_size / spear.trigger_occupancy_div;
  }
};

// Canonical configurations used throughout benches and tests.
inline CoreConfig BaselineConfig(std::uint32_t ifq = 128) {
  CoreConfig cfg;
  cfg.ifq_size = ifq;
  cfg.spear.enabled = false;
  return cfg;
}

inline CoreConfig SpearCoreConfig(std::uint32_t ifq, bool separate_fu = false) {
  CoreConfig cfg;
  cfg.ifq_size = ifq;
  cfg.spear.enabled = true;
  cfg.spear.separate_fu = separate_fu;
  return cfg;
}

inline CoreConfig StridePrefetchConfig(std::uint32_t ifq = 128,
                                       std::uint32_t degree = 2) {
  CoreConfig cfg = BaselineConfig(ifq);
  cfg.stride_prefetch.enabled = true;
  cfg.stride_prefetch.degree = degree;
  return cfg;
}

}  // namespace spear

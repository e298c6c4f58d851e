// Post-warmup machine state produced by functional fast-forward
// (runner::Warmer) and consumed by a warm-started Core (the constructor's
// `warm` argument, or Core::InstallWarmState on a core constructed cold)
// — the paper's skip-and-simulate methodology factored into a
// first-class object. Holds everything the timed core's behaviour
// depends on at the switch point: architectural registers, the memory
// image, cache tag/LRU arrays and predictor tables. The runner's
// checkpoint layer serializes exactly this struct, so a run restored
// from a checkpoint and a run warmed live are bit-identical.
// The memory image is shared copy-on-write with whatever produced it and
// with every core or cosim emulator started from it (mem/memory.h):
// handing a WarmState on copies no pages, and nothing started from it
// ever changes its bytes, so one state can warm-start many cores in turn.
// Deliberately absent: pipeline and scheduler state. Warm state installs
// only at cycle 0, where the RUU, IFQ and the event scheduler's wakeup /
// ready / completion structures are empty by construction (enforced by
// Core::InstallWarmState), so checkpoints need not carry them.
#pragma once

#include <array>
#include <cstdint>

#include "bpred/bpred.h"
#include "common/types.h"
#include "mem/cache.h"
#include "mem/memory.h"

namespace spear {

struct WarmState {
  std::array<std::uint32_t, kNumIntRegs> iregs{};
  std::array<double, kNumFpRegs> fregs{};
  Pc pc = 0;
  std::uint64_t warmed_instrs = 0;  // instructions actually fast-forwarded
  bool halted = false;              // program ended during warmup
  Memory mem;                       // move-only, so WarmState is too
  CacheState l1d;
  CacheState l2;
  BpredState bpred;
};

}  // namespace spear

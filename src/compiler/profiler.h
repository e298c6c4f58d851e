// SPEAR profiling tool (paper Figure 4, module 2).
//
// Runs the program on the functional emulator against the same cache
// geometry the simulator uses and collects the three kinds of dynamic
// information the slicer needs:
//
//  1. Per-static-load miss counts (delinquent-load identification).
//  2. Miss-conditioned backward dependence sets: at every L1 miss, the
//     dynamic backward slice of that load instance is chased through the
//     last-writer chains (register and, optionally, store->load memory
//     dependencies) over a window of recently executed instructions, and
//     each member's static PC gets a vote. This is the paper's
//     "control-flow detection": only slice paths that actually feed
//     misses accumulate votes (Figure 5).
//  3. Per-loop expected delay (the d-cycle): average sequential cost of
//     one iteration, used by the region-based prefetching-range budget.
//
// The pass observes Emulator::Run's block-dispatched loop. Per-instruction
// bookkeeping is flat arrays indexed by text index, and the maps below are
// built once, after the run; the per-miss walks use a fixed ring, stack
// and visit stamps, so nothing allocates per instruction or per visit.
//  - Loop costs are summed as integers per innermost loop and pushed up
//    the nest at the end. Every cost is an integer latency and the sums
//    stay far below 2^53, so `total_cost` is bit-identical to adding each
//    cost to every enclosing loop in double as it happens.
//  - The store->load table keeps only the stores still inside the window.
//    A load whose last store has left the window would hand the walk an
//    out-of-window producer that every later walk skips, so forgetting the
//    store changes no vote.
//  - Vote rows are dense over the text: memory is one text-sized row of
//    counters per static load that misses.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/loops.h"
#include "mem/hierarchy.h"

namespace spear {

struct ProfilerOptions {
  std::uint64_t max_instrs = 2'000'000;
  HierarchyConfig mem;           // profile with the simulator's geometry
  std::uint32_t window = 512;    // backward-slice window (dynamic records, >= 1)
  bool memory_deps = true;       // chase store->load address dependencies
};

struct LoadProfile {
  Pc pc = 0;
  std::uint64_t execs = 0;
  std::uint64_t l1_misses = 0;
};

struct LoopProfile {
  int loop_id = -1;
  std::uint64_t header_visits = 0;
  double total_cost = 0.0;  // sequential-cost cycles spent inside the loop

  double DCycle() const {
    return header_visits == 0 ? 0.0 : total_cost / static_cast<double>(header_visits);
  }
};

struct ProfileResult {
  std::uint64_t instrs = 0;
  std::uint64_t total_l1_misses = 0;
  // Keyed by static PC; ordered so reports are deterministic.
  std::map<Pc, LoadProfile> loads;
  // d-load pc -> (slice member pc -> votes). A member's vote count says in
  // how many miss instances it appeared in the dynamic backward slice.
  std::map<Pc, std::map<Pc, std::uint64_t>> slice_votes;
  std::vector<LoopProfile> loops;  // indexed by loop id
};

ProfileResult ProfileProgram(const Program& prog, const Cfg& cfg,
                             const LoopForest& loops,
                             const ProfilerOptions& options);

}  // namespace spear

// SPEAR front-end configuration knobs (paper Section 3 defaults, each
// exposed for the ablation benches).
#pragma once

#include <cstdint>

namespace spear {

// What the trigger logic does between d-load detection and p-thread start.
// The paper says the trigger "waits until all instructions which are
// already decoded have been committed" so the live-in copy sees a
// deterministic state.
enum class TriggerDrainPolicy : std::uint8_t {
  // Default: live-ins are snapshotted at trigger time from the in-order
  // dispatch-time register state and the p-thread starts as soon as the
  // 1-cycle-per-register copy has elapsed — the only trigger cost the
  // paper quantifies ("we assumed that each copy operation would take one
  // clock cycle"). In an execute-at-dispatch simulator (sim-outorder and
  // this one alike) the dispatch-time state *is* the deterministic state
  // the paper's drain produces: correct-path values are final, and any
  // intervening misprediction flushes the IFQ and aborts the session
  // anyway. The two drain variants below model stricter hardware readings;
  // bench/manifests/ablation_drain.json shows they forfeit most of SPEAR's
  // gain, which is why they cannot be what the paper's simulator measured.
  kImmediate,
  // Ablation: snapshot live-ins at trigger, but gate p-thread issue until
  // commit has caught up to the trigger point. Extraction buffers in the
  // meantime.
  kDrainToTrigger,
  // Ablation: literal conservative reading — main dispatch stalls outright
  // until the whole RUU has committed, then live-ins are copied.
  kStallDispatch,
};

struct SpearConfig {
  bool enabled = false;

  // Trigger fires only when IFQ occupancy >= ifq_size / trigger_occupancy_div
  // ("we empirically used half of the IFQ size").
  std::uint32_t trigger_occupancy_div = 2;

  // Max p-thread instructions the PE extracts per cycle. Paper: half the
  // issue bandwidth (8/2 = 4), "so as not to overly penalize the main
  // thread". 0 means derive issue_width / 2.
  std::uint32_t extract_per_cycle = 0;

  // Separate functional-unit pool for the p-thread (SPEAR.sf, Figure 7).
  bool separate_fu = false;

  // P-thread reorder buffer capacity. Matches the main RUU by default: the
  // p-thread's prefetch lookahead is bounded by this window, so a smaller
  // buffer would give the p-thread *less* reach than the main thread's own
  // out-of-order window.
  std::uint32_t pthread_ruu_size = 128;

  TriggerDrainPolicy drain_policy = TriggerDrainPolicy::kImmediate;

  // Cycles per live-in register copy (paper assumes 1).
  std::uint32_t copy_cycles_per_reg = 1;

  // CMP extension (off by default): when an XcoreArbiter is attached and an
  // idle neighbor core exists at trigger time, run the session's p-thread
  // on that donor core. The p-thread then warms the shared L2 only (the
  // donor's private L1 is useless to the triggering core), uses the donor's
  // functional units and issue bandwidth, and pays a higher live-in
  // transfer cost. With no arbiter or no idle donor, sessions fall back to
  // the same-core context.
  bool xcore_pthreads = false;

  // Cycles per live-in register for a *cross-core* live-in transfer
  // (shipping values to the donor crosses the interconnect; 1 cycle is not
  // plausible there).
  std::uint32_t xcore_copy_cycles_per_reg = 3;

  // Extension (off by default): chaining trigger in the spirit of Collins
  // et al.'s Speculative Precomputation — when a session completes, the
  // next pre-decoded d-load re-arms immediately, bypassing the occupancy
  // check, so sessions chain back-to-back instead of waiting for the IFQ
  // to refill past the threshold.
  bool chaining_trigger = false;
};

}  // namespace spear

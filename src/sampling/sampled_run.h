// Sampled-run orchestrator (DESIGN.md §14): alternates fast functional
// execution with short detailed intervals on the timed core, per a
// SamplingPlan.
//
// The functional substrate is the fast-forward's own warming routine
// (runner::Warmer, src/runner/checkpoint.h): the plain binary runs
// block-at-a-time on the Emulator while a private cache hierarchy and
// branch predictor of the target geometry warm alongside. At each
// interval start the warmer's state snapshots into a WarmState, a
// *fresh* timed Core is constructed warm-started from it (warm state is
// only legal at cycle 0), runs `warmup` detailed-but-unmeasured
// instructions, then `detail` measured ones; counters are diffed across
// the measured window into an IntervalSample. Snapshot and core share
// the warmer's memory pages copy-on-write, so an interval's host cost
// follows the instructions it simulates, not the size of the image.
//
// The substrate executes the plain binary and never sees p-thread or
// wrong-path perturbations; the detailed warmup window absorbs the
// resulting micro-architectural discrepancy (the SMARTS argument).
//
// A fresh run can emit a runner::CheckpointTree (root + per-interval
// snapshots) so the whole sampled row is replayable without re-running
// the functional gaps; RunSampledFromTree is that replay, and produces a
// byte-identical stats document.
#pragma once

#include "cpu/config.h"
#include "cpu/core.h"
#include "eval/harness.h"
#include "isa/program.h"
#include "runner/checkpoint.h"
#include "sampling/sampling.h"

namespace spear::sampling {

// Runs `options.sim_instrs` region instructions sampled per `plan`, after
// fast-forwarding `ff_instrs` on the substrate. `plain` is the reference
// binary driving the substrate; `timed` the (possibly SPEAR-annotated)
// binary the detailed core executes — both must be the same workload
// build, so their architectural execution is identical.
//
// When config.cosim_check is set, one CosimChecker shadows every detailed
// interval (re-seated per interval via SyncToWarmState); a divergence
// stops the run and lands in stats.cosim_* with complete=false.
//
// When `tree_out` is non-null it is filled with the post-fast-forward
// root, one child per detailed interval, and the region coverage — ready
// for SaveCheckpointTree. If the program halts during fast-forward the
// result has covered_instrs == 0, halted == true and no samples (and
// tree_out->root.halted is set). covered_instrs counts instructions
// executed: if the PC leaves the text section, the faulting fetch is not
// counted and the result is incomplete.
SampledStats RunSampled(const Program& plain, const Program& timed,
                        const CoreConfig& config, const EvalOptions& options,
                        const SamplingPlan& plan, std::uint64_t ff_instrs,
                        runner::CheckpointTree* tree_out = nullptr);

// Replays the detailed intervals of a restored tree — no emulator, no
// functional gaps. Coverage and the halted flag come from the tree
// header, so the summarized document is byte-identical to the fresh
// run's (modulo the caller-owned "run" member).
SampledStats RunSampledFromTree(const Program& timed, const CoreConfig& config,
                                const EvalOptions& options,
                                const SamplingPlan& plan,
                                const runner::CheckpointTree& tree);

}  // namespace spear::sampling

#include "sampling/sampled_run.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "cosim/cosim.h"

namespace spear::sampling {
namespace {

// Counter snapshot diffed across the measured window.
struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t l1d_misses_main = 0;
  std::uint64_t l1d_misses_pthread = 0;
  std::uint64_t l2_misses_main = 0;
  std::uint64_t l2_misses_pthread = 0;
  std::uint64_t committed_branches = 0;
  std::uint64_t committed_cond_branches = 0;
  std::uint64_t bpred_dir_correct = 0;
  std::uint64_t triggers = 0;
  std::uint64_t sessions = 0;
  std::uint64_t extracted = 0;
  std::uint64_t dispatched_wrongpath = 0;
  std::uint64_t squashed_wrongpath = 0;
  std::uint64_t ifq_flushed = 0;
  std::uint64_t chained_triggers = 0;
};

Counters Grab(const Core& core) {
  Counters c;
  c.cycles = core.stats().cycles;
  c.committed = core.stats().committed;
  c.l1d_misses_main = core.hierarchy().l1d().misses(kMainThread);
  c.l1d_misses_pthread = core.hierarchy().l1d().misses(kPThread);
  c.l2_misses_main = core.hierarchy().l2().misses(kMainThread);
  c.l2_misses_pthread = core.hierarchy().l2().misses(kPThread);
  c.committed_branches = core.stats().committed_branches;
  c.committed_cond_branches = core.stats().committed_cond_branches;
  c.bpred_dir_correct = core.stats().bpred_dir_correct;
  c.triggers = core.stats().triggers_fired;
  c.sessions = core.stats().preexec_sessions_completed;
  c.extracted = core.stats().pthread_extracted;
  c.dispatched_wrongpath = core.stats().dispatched_wrongpath;
  c.squashed_wrongpath = core.stats().squashed_wrongpath;
  c.ifq_flushed = core.stats().ifq_flushed;
  c.chained_triggers = core.stats().chained_triggers;
  return c;
}

IntervalSample Diff(const Counters& a, const Counters& b) {
  IntervalSample s;
  s.instrs = b.committed - a.committed;
  s.cycles = b.cycles - a.cycles;
  s.l1d_misses_main = b.l1d_misses_main - a.l1d_misses_main;
  s.l1d_misses_pthread = b.l1d_misses_pthread - a.l1d_misses_pthread;
  s.l2_misses_main = b.l2_misses_main - a.l2_misses_main;
  s.l2_misses_pthread = b.l2_misses_pthread - a.l2_misses_pthread;
  s.committed_branches = b.committed_branches - a.committed_branches;
  s.committed_cond_branches =
      b.committed_cond_branches - a.committed_cond_branches;
  s.bpred_dir_correct = b.bpred_dir_correct - a.bpred_dir_correct;
  s.triggers = b.triggers - a.triggers;
  s.sessions = b.sessions - a.sessions;
  s.extracted = b.extracted - a.extracted;
  s.dispatched_wrongpath = b.dispatched_wrongpath - a.dispatched_wrongpath;
  s.squashed_wrongpath = b.squashed_wrongpath - a.squashed_wrongpath;
  s.ifq_flushed = b.ifq_flushed - a.ifq_flushed;
  s.chained_triggers = b.chained_triggers - a.chained_triggers;
  return s;
}

struct IntervalOutcome {
  IntervalSample sample;  // measured-window deltas (sample.instrs may be 0)
  bool halted = false;    // the program halted inside the interval
  bool hit_cycle_cap = false;  // max_cycles fired mid-interval
  bool diverged = false;       // cosim divergence (latched in the checker)
};

// One detailed interval on a fresh timed core, warm-started from `ws`:
// `warmup` detailed-unmeasured instructions, then `detail` measured ones.
IntervalOutcome RunDetailedInterval(const Program& timed,
                                    const CoreConfig& config,
                                    const SamplingPlan& plan,
                                    std::uint64_t max_cycles,
                                    const WarmState& ws,
                                    cosim::CosimChecker* checker,
                                    telemetry::Distribution* ifq,
                                    bool* ifq_init, BlockCache* bcache) {
  IntervalOutcome out;
  // Per-interval cores share the orchestrator's decoded-block cache: the
  // program and PT never change across intervals, so every core after the
  // first warm-attaches and fetches from already-built blocks. The core
  // is warm-started, so it shares the snapshot's pages copy-on-write
  // instead of loading the program image and copying the snapshot's.
  Core core(timed, config, bcache, &ws);
  if (checker != nullptr) {
    checker->SyncToWarmState(ws);
    core.set_cosim(checker);
  }
  core.Run(plan.warmup, max_cycles);
  const Counters before = Grab(core);
  core.Run(plan.warmup + plan.detail, max_cycles);
  out.sample = Diff(before, Grab(core));
  out.halted = core.halted();
  out.diverged = core.cosim_diverged();
  out.hit_cycle_cap = !out.halted && !out.diverged &&
                      core.stats().committed < plan.warmup + plan.detail;
  // Occupancy telemetry merges over the whole interval (warmup included —
  // it is a pipeline-health distribution, not a measured estimate).
  if (*ifq_init) {
    ifq->Merge(core.core_telemetry().ifq_occupancy);
  } else {
    *ifq = core.core_telemetry().ifq_occupancy;
    *ifq_init = true;
  }
  return out;
}

// Shared epilogue: estimator pass plus the cosim/incomplete overrides.
SampledStats Finish(const SamplingPlan& plan,
                    const std::vector<IntervalSample>& samples,
                    std::uint64_t covered, bool halted, bool incomplete,
                    const telemetry::Distribution* ifq, bool ifq_init,
                    cosim::CosimChecker* checker) {
  SampledStats out = Summarize(plan, samples, covered, halted);
  if (ifq_init) out.ifq_occupancy = *ifq;
  if (incomplete) out.stats.complete = false;
  if (checker != nullptr) {
    out.stats.cosim_checked = checker->stats().commits_checked +
                              checker->stats().pthread_commits_checked;
    out.stats.cosim_diverged = !checker->ok();
    if (out.stats.cosim_diverged) {
      out.stats.cosim_summary = checker->Summary();
      out.stats.cosim_report = checker->Report();
      out.stats.complete = false;
    }
  }
  return out;
}

}  // namespace

SampledStats RunSampled(const Program& plain, const Program& timed,
                        const CoreConfig& config, const EvalOptions& options,
                        const SamplingPlan& plan, std::uint64_t ff_instrs,
                        runner::CheckpointTree* tree_out) {
  SPEAR_CHECK(plan.enabled());
  runner::Warmer warmer(plain, config.mem.l1d, config.mem.l2, config.bpred);
  warmer.Advance(ff_instrs);
  if (tree_out != nullptr) {
    *tree_out = runner::CheckpointTree{};
    tree_out->root = warmer.Snapshot();
  }

  std::unique_ptr<cosim::CosimChecker> checker;
  if (config.cosim_check) {
    checker = std::make_unique<cosim::CosimChecker>(timed);
  }

  std::vector<IntervalSample> samples;
  telemetry::Distribution ifq;
  bool ifq_init = false;
  std::uint64_t covered = 0;
  bool halted = warmer.halted();  // halted during fast-forward: empty region
  bool incomplete = warmer.faulted();  // wild PC during fast-forward
  BlockCache core_cache;  // shared by every detailed interval's core

  const std::uint64_t budget = options.sim_instrs;
  while (!halted && !incomplete && covered < budget) {
    const std::uint64_t remaining = budget - covered;
    // A detailed interval only runs where a full warmup+detail window
    // fits; a shorter tail stays functional. The restored path replays
    // children with the same full-window budget, so both paths measure
    // identical windows.
    if (remaining >= plan.warmup + plan.detail) {
      const WarmState ws = warmer.Snapshot();
      const IntervalOutcome o =
          RunDetailedInterval(timed, config, plan, options.max_cycles, ws,
                              checker.get(), &ifq, &ifq_init, &core_cache);
      if (o.sample.instrs > 0) samples.push_back(o.sample);
      if (tree_out != nullptr) tree_out->AddChild(ws);
      if (o.diverged) break;
      if (o.hit_cycle_cap) {
        incomplete = true;
        break;
      }
    }
    const std::uint64_t stride = std::min<std::uint64_t>(plan.period,
                                                         remaining);
    covered += warmer.Advance(stride);
    halted = warmer.halted();
    // A warming fault (PC left the text section) makes the remaining
    // region unmeasurable: surface it as an incomplete run, not a hang.
    if (warmer.faulted()) incomplete = true;
  }

  if (tree_out != nullptr) {
    tree_out->covered_instrs = covered;
    tree_out->halted = halted;
  }
  return Finish(plan, samples, covered, halted, incomplete, &ifq, ifq_init,
                checker.get());
}

SampledStats RunSampledFromTree(const Program& timed, const CoreConfig& config,
                                const EvalOptions& options,
                                const SamplingPlan& plan,
                                const runner::CheckpointTree& tree) {
  SPEAR_CHECK(plan.enabled());
  std::unique_ptr<cosim::CosimChecker> checker;
  if (config.cosim_check) {
    checker = std::make_unique<cosim::CosimChecker>(timed);
  }

  std::vector<IntervalSample> samples;
  telemetry::Distribution ifq;
  bool ifq_init = false;
  bool incomplete = false;
  BlockCache core_cache;  // shared by every replayed interval's core
  for (std::size_t i = 0; i < tree.children.size(); ++i) {
    const WarmState ws = tree.MaterializeChild(i);
    const IntervalOutcome o =
        RunDetailedInterval(timed, config, plan, options.max_cycles, ws,
                            checker.get(), &ifq, &ifq_init, &core_cache);
    if (o.sample.instrs > 0) samples.push_back(o.sample);
    if (o.diverged) break;
    if (o.hit_cycle_cap) {
      incomplete = true;
      break;
    }
  }
  return Finish(plan, samples, tree.covered_instrs, tree.halted, incomplete,
                &ifq, ifq_init, checker.get());
}

}  // namespace spear::sampling

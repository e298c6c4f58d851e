#include "eval/harness.h"

#include <memory>

#include "cosim/cosim.h"
#include "cpu/cmp.h"

namespace spear {

PreparedWorkload PrepareWorkload(const std::string& name,
                                 const EvalOptions& options) {
  PreparedWorkload out;
  out.name = name;

  WorkloadConfig ref_cfg;
  ref_cfg.seed = options.ref_seed;
  ref_cfg.scale = options.scale;
  out.plain = BuildWorkloadProgram(name, ref_cfg);

  WorkloadConfig prof_cfg;
  prof_cfg.seed = options.profile_seed;
  prof_cfg.scale = options.scale;
  const Program profile_input = BuildWorkloadProgram(name, prof_cfg);

  out.annotated = CompileSpear(profile_input, out.plain, options.compiler,
                               &out.compile_report);
  return out;
}

RunStats RunConfig(const Program& prog, const CoreConfig& config,
                   const EvalOptions& options, const WarmState* warm) {
  Core core(prog, config, /*shared_block_cache=*/nullptr, warm);
  std::unique_ptr<cosim::CosimChecker> checker;
  if (config.cosim_check) {
    checker = std::make_unique<cosim::CosimChecker>(prog);
    if (warm != nullptr) checker->SyncToWarmState(*warm);
    core.set_cosim(checker.get());
  }
  std::unique_ptr<taint::TaintObserver> taint_obs;
  if (config.taint_observe && taint::kTaintCompiled) {
    taint_obs =
        std::make_unique<taint::TaintObserver>(prog, config.mem.l1d.block_bytes);
    core.set_taint_observer(taint_obs.get());
  }
  const RunResult rr = core.Run(options.sim_instrs, options.max_cycles);
  RunStats s;
  s.cycles = rr.cycles;
  s.instructions = rr.instructions;
  s.ipc = rr.Ipc();
  s.halted = rr.halted;
  s.l1d_misses_main = core.hierarchy().l1d().misses(kMainThread);
  s.l1d_misses_pthread = core.hierarchy().l1d().misses(kPThread);
  s.l2_misses_main = core.hierarchy().l2().misses(kMainThread);
  s.l2_misses_pthread = core.hierarchy().l2().misses(kPThread);
  s.branch_hit_ratio = core.stats().BranchHitRatio();
  s.ipb = core.stats().Ipb();
  s.triggers = core.stats().triggers_fired;
  s.sessions = core.stats().preexec_sessions_completed;
  s.extracted = core.stats().pthread_extracted;
  s.dispatched_wrongpath = core.stats().dispatched_wrongpath;
  s.squashed_wrongpath = core.stats().squashed_wrongpath;
  s.ifq_flushed = core.stats().ifq_flushed;
  s.chained_triggers = core.stats().chained_triggers;
  s.complete = s.halted || s.instructions >= options.sim_instrs;
  if (checker != nullptr) {
    s.cosim_checked = checker->stats().commits_checked +
                      checker->stats().pthread_commits_checked;
    s.cosim_diverged = !checker->ok();
    if (s.cosim_diverged) {
      s.cosim_summary = checker->Summary();
      s.cosim_report = checker->Report();
      s.complete = false;  // the run was cut short at the divergence
    }
  }
  if (taint_obs != nullptr) {
    s.taint_observed = true;
    s.spec_loads = taint_obs->spec_loads();
    s.tainted_addr_loads = taint_obs->tainted_addr_loads();
    s.secret_loads = taint_obs->secret_loads();
    s.lines_spec = taint_obs->spec_line_count();
    s.lines_demand = taint_obs->demand_line_count();
    s.lines_spec_only = taint_obs->SpecOnlyLines();
  }
  return s;
}

namespace {

// Weighted speedup and harmonic-mean fairness from per-context mix IPCs
// and the matching solo IPCs (Snavely & Tullsen / Luo et al. metrics).
void FillDerivedMetrics(MixRunStats& s, const std::vector<double>& solo) {
  double ws = 0.0;
  double inv_sum = 0.0;
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    const double mix = s.threads[i].ipc;
    const double ref = solo[i];
    if (ref > 0.0) ws += mix / ref;
    if (mix > 0.0) inv_sum += ref / mix;
  }
  s.weighted_speedup = ws;
  s.hmean_fairness =
      inv_sum > 0.0 ? static_cast<double>(s.threads.size()) / inv_sum : 0.0;
}

}  // namespace

MixRunStats RunMix(const std::vector<const Program*>& progs,
                   const std::vector<std::string>& names,
                   const CoreConfig& config, const EvalOptions& options,
                   std::uint32_t cores, const std::vector<double>* solo_ipcs) {
  SPEAR_CHECK(!progs.empty() && names.size() == progs.size());
  SPEAR_CHECK(cores == 1 || cores == progs.size());
  MixRunStats s;
  s.threads.resize(progs.size());

  auto fill_thread = [&](std::size_t i, const ThreadResult& tr) {
    ThreadRunStats& t = s.threads[i];
    t.name = names[i];
    t.committed = tr.committed;
    t.cycles = tr.cycles;
    t.ipc = tr.Ipc();
    t.halted = tr.halted;
  };

  if (cores == 1) {
    // SMT mix: every program is a context on one core.
    Core core(progs, config);
    std::unique_ptr<cosim::CosimChecker> checker;
    if (config.cosim_check) {
      cosim::CosimChecker::Config cc;
      cc.inject_at = options.cosim_inject_at;
      cc.inject_tid = options.cosim_inject_tid;
      checker = std::make_unique<cosim::CosimChecker>(progs, cc);
      core.set_cosim(checker.get());
    }
    const RunResult rr =
        core.Run(options.sim_instrs * progs.size(), options.max_cycles);
    s.cycles = rr.cycles;
    s.instructions = rr.instructions;
    s.throughput_ipc = rr.Ipc();
    for (std::size_t i = 0; i < progs.size(); ++i) {
      fill_thread(i, core.thread_result(static_cast<std::uint32_t>(i)));
    }
    s.complete = rr.halted || s.instructions >= options.sim_instrs * progs.size();
    if (checker != nullptr) {
      s.cosim_checked = checker->stats().commits_checked +
                        checker->stats().pthread_commits_checked;
      s.cosim_diverged = !checker->ok();
      if (s.cosim_diverged) {
        s.cosim_summary = checker->Summary();
        s.cosim_report = checker->Report();
        s.complete = false;
      }
    }
  } else {
    // CMP: one program per core, shared L2, lockstep stepping.
    CmpSystem cmp(progs, config);
    if (config.cosim_check) {
      cosim::CosimChecker::Config cc;
      cc.inject_at = options.cosim_inject_at;
      cmp.EnableCosim(cc, options.cosim_inject_tid);
    }
    const RunResult rr = cmp.Run(options.sim_instrs, options.max_cycles);
    s.cycles = rr.cycles;
    s.instructions = rr.instructions;
    s.throughput_ipc = rr.Ipc();
    bool complete = true;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      const ThreadResult tr = cmp.core(i).thread_result(0);
      fill_thread(i, tr);
      complete = complete &&
                 (tr.halted || tr.committed >= options.sim_instrs);
    }
    s.complete = complete;
    if (config.cosim_check) {
      s.cosim_checked = cmp.cosim_checked();
      s.cosim_diverged = cmp.cosim_diverged();
      if (s.cosim_diverged) {
        s.cosim_report = cmp.CosimReport();
        s.cosim_summary = "cosim divergence (see report)";
        s.complete = false;
      }
    }
  }

  if (solo_ipcs != nullptr && solo_ipcs->size() == s.threads.size()) {
    FillDerivedMetrics(s, *solo_ipcs);
  }
  return s;
}

telemetry::JsonValue MixRunStatsToJson(const MixRunStats& s) {
  telemetry::JsonValue o = telemetry::JsonValue::Object();
  o.Set("cycles", telemetry::JsonValue(static_cast<std::int64_t>(s.cycles)));
  o.Set("instructions",
        telemetry::JsonValue(static_cast<std::int64_t>(s.instructions)));
  o.Set("throughput_ipc", telemetry::JsonValue(s.throughput_ipc));
  telemetry::JsonValue threads = telemetry::JsonValue::Array();
  for (const ThreadRunStats& t : s.threads) {
    telemetry::JsonValue row = telemetry::JsonValue::Object();
    row.Set("name", telemetry::JsonValue(t.name));
    row.Set("committed",
            telemetry::JsonValue(static_cast<std::int64_t>(t.committed)));
    row.Set("cycles", telemetry::JsonValue(static_cast<std::int64_t>(t.cycles)));
    row.Set("ipc", telemetry::JsonValue(t.ipc));
    row.Set("halted", telemetry::JsonValue(t.halted));
    threads.Append(std::move(row));
  }
  o.Set("threads", std::move(threads));
  if (s.weighted_speedup != 0.0 || s.hmean_fairness != 0.0) {
    o.Set("weighted_speedup", telemetry::JsonValue(s.weighted_speedup));
    o.Set("hmean_fairness", telemetry::JsonValue(s.hmean_fairness));
  }
  o.Set("complete", telemetry::JsonValue(s.complete));
  if (s.cosim_checked > 0 || s.cosim_diverged) {
    o.Set("cosim_checked",
          telemetry::JsonValue(static_cast<std::int64_t>(s.cosim_checked)));
    o.Set("cosim_diverged", telemetry::JsonValue(s.cosim_diverged));
  }
  return o;
}

telemetry::JsonValue RunStatsToJson(const RunStats& s) {
  telemetry::JsonValue o = telemetry::JsonValue::Object();
  o.Set("cycles", telemetry::JsonValue(static_cast<std::int64_t>(s.cycles)));
  o.Set("instructions",
        telemetry::JsonValue(static_cast<std::int64_t>(s.instructions)));
  o.Set("ipc", telemetry::JsonValue(s.ipc));
  o.Set("l1d_misses_main",
        telemetry::JsonValue(static_cast<std::int64_t>(s.l1d_misses_main)));
  o.Set("l1d_misses_pthread",
        telemetry::JsonValue(static_cast<std::int64_t>(s.l1d_misses_pthread)));
  o.Set("l2_misses_main",
        telemetry::JsonValue(static_cast<std::int64_t>(s.l2_misses_main)));
  o.Set("l2_misses_pthread",
        telemetry::JsonValue(static_cast<std::int64_t>(s.l2_misses_pthread)));
  o.Set("branch_hit_ratio", telemetry::JsonValue(s.branch_hit_ratio));
  o.Set("ipb", telemetry::JsonValue(s.ipb));
  o.Set("triggers", telemetry::JsonValue(static_cast<std::int64_t>(s.triggers)));
  o.Set("sessions", telemetry::JsonValue(static_cast<std::int64_t>(s.sessions)));
  o.Set("extracted",
        telemetry::JsonValue(static_cast<std::int64_t>(s.extracted)));
  o.Set("dispatched_wrongpath",
        telemetry::JsonValue(
            static_cast<std::int64_t>(s.dispatched_wrongpath)));
  o.Set("squashed_wrongpath",
        telemetry::JsonValue(static_cast<std::int64_t>(s.squashed_wrongpath)));
  o.Set("ifq_flushed",
        telemetry::JsonValue(static_cast<std::int64_t>(s.ifq_flushed)));
  o.Set("chained_triggers",
        telemetry::JsonValue(static_cast<std::int64_t>(s.chained_triggers)));
  o.Set("halted", telemetry::JsonValue(s.halted));
  o.Set("complete", telemetry::JsonValue(s.complete));
  // Emitted only when checking actually ran, so documents from non-cosim
  // runs (the byte-identity CI comparisons) keep their exact shape.
  if (s.cosim_checked > 0 || s.cosim_diverged) {
    o.Set("cosim_checked",
          telemetry::JsonValue(static_cast<std::int64_t>(s.cosim_checked)));
    o.Set("cosim_diverged", telemetry::JsonValue(s.cosim_diverged));
  }
  // Same conditional-emission discipline for the leakage observation.
  if (s.taint_observed) {
    o.Set("spec_leak_loads",
          telemetry::JsonValue(static_cast<std::int64_t>(s.spec_loads)));
    o.Set("spec_leak_tainted_addr",
          telemetry::JsonValue(
              static_cast<std::int64_t>(s.tainted_addr_loads)));
    o.Set("spec_leak_secret_loads",
          telemetry::JsonValue(static_cast<std::int64_t>(s.secret_loads)));
    o.Set("spec_leak_lines_spec",
          telemetry::JsonValue(static_cast<std::int64_t>(s.lines_spec)));
    o.Set("spec_leak_lines_demand",
          telemetry::JsonValue(static_cast<std::int64_t>(s.lines_demand)));
    o.Set("spec_leak_lines_spec_only",
          telemetry::JsonValue(static_cast<std::int64_t>(s.lines_spec_only)));
  }
  return o;
}

}  // namespace spear

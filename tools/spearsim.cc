// spearsim — run a SPEARBIN on the cycle-level core (or the functional
// emulator) and print statistics.
//
//   spearsim prog.spear.bin --spear --ifq 256 [--sf] [--max-instrs N]
//   spearsim prog.spear.bin --spear --stats-json=stats.json
//   spearsim prog.spear.bin --spear --trace-out=pipe.kanata \
//       --trace-start=1000 --trace-cycles=5000
//   spearsim prog.spearbin --functional
//   spearsim prog.spear.bin --spear --cosim       # lockstep oracle check
//   spearsim a.spear.bin b.spear.bin              # 2-context SMT mix
//   spearsim prog.spear.bin --threads 2           # same binary, 2 contexts
//   spearsim a.spear.bin b.spear.bin --cores 2 --spear --xcore-pthreads
//
// Exit codes follow the shared table in tool_flags.h (4 = cosim
// divergence).
#include <cstdio>
#include <memory>
#include <string>

#include "cosim/cosim.h"
#include "cpu/core.h"
#include "eval/harness.h"
#include "isa/binary.h"
#include "isa/disasm.h"
#include "runner/checkpoint.h"
#include "sampling/sampled_run.h"
#include "sim/emulator.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "tool_flags.h"

int main(int argc, char** argv) {
  using namespace spear;
  tools::Flags flags(
      argc, argv,
      {{"functional", "run the functional emulator instead of the core"},
       {"spear", "enable the SPEAR front end (needs an annotated binary)"},
       {"ifq", "IFQ size (default 128)"},
       {"sf", "separate functional units for the p-thread"},
       {"threads", "run the (single) binary as N co-scheduled SMT "
                   "contexts; several positional binaries form a mix"},
       {"cores", "CMP mode: one core per program over a shared L2 "
                 "(must equal the program count)"},
       {"xcore-pthreads", "spawn p-threads on an idle donor core, warming "
                          "the shared L2 only (needs --spear --cores >= 2)"},
       {"stride", "enable the stride-prefetcher baseline"},
       {"chaining", "enable the chaining-trigger extension"},
       {"mem-latency", "main memory latency in cycles (default 120)"},
       {"l2-latency", "L2 latency in cycles (default 12)"},
       {"max-instrs", "commit budget (default: run to halt)"},
       {"max-cycles", "cycle budget (default 1e9)"},
       {"ff-instrs", "functionally fast-forward N instructions (warming "
                     "caches and predictor) before the timed run"},
       {"sampling-period", "SMARTS interval sampling: one detailed interval "
                           "every N instructions (0 = full detail)"},
       {"sampling-detail", "measured instructions per detailed interval"},
       {"sampling-warmup", "detailed-but-unmeasured instructions before "
                           "each measured window"},
       {"cosim", "lockstep-compare every commit against the functional "
                 "emulator; divergence aborts with exit code 4"},
       {"cosim-report", "also write the divergence report to this file "
                        "(default: stderr only)"},
       {"cosim-inject", "self-test: corrupt the Nth checked commit so the "
                        "divergence path must fire"},
       {"strict-specs", "refuse binaries with malformed p-thread specs"},
       {"taint", "attach the speculative-leakage taint observer "
                 "(core.spec_leak.* stats)"},
       {"fence", "fence speculative loads behind unresolved branches "
                 "(BasicBlocker-style)"},
       {"trace", "print committed OUT values"},
       {"stats-json", "write the full stats tree as JSON ('-' = stdout)"},
       {"trace-out", "write a pipeline event trace to this file"},
       {"trace-format", "trace format: kanata (default), o3, bin"},
       {"trace-start", "first traced cycle (default 0)"},
       {"trace-cycles", "trace window length in cycles (default: all)"},
       {"trace-buf", "trace ring capacity in records (default 1M)"}});

  if (flags.positional().empty()) {
    std::fprintf(stderr, "spearsim: no input binary (try --help)\n");
    return 2;
  }
  const Program prog = ReadProgram(flags.positional()[0],
                                   flags.GetBool("strict-specs")
                                       ? SpecLoadPolicy::kReject
                                       : SpecLoadPolicy::kWarn);
  const auto max_instrs = static_cast<std::uint64_t>(
      flags.GetInt("max-instrs", static_cast<long>(1) << 62));
  const auto max_cycles =
      static_cast<std::uint64_t>(flags.GetInt("max-cycles", 1'000'000'000));

  if (flags.GetBool("functional")) {
    Emulator emu(prog);
    const std::uint64_t n = emu.Run(max_instrs);
    if (emu.faulted()) {
      // Structured failure (exit-code table in tools/tool_flags.h): the
      // orchestrator records the row as failed instead of the old
      // CHECK-abort, and a rerun will not fare better.
      std::fprintf(stderr,
                   "spearsim: functional fault: pc 0x%08llx left the text "
                   "section after %llu instructions\n",
                   static_cast<unsigned long long>(emu.fault_pc()),
                   static_cast<unsigned long long>(n));
      return tools::kExitFailure;
    }
    std::printf("functional: %llu instructions, halted=%d\n",
                static_cast<unsigned long long>(n), emu.halted());
    if (flags.GetBool("trace")) {
      for (std::uint32_t v : emu.outputs()) std::printf("out: %u\n", v);
    }
    return 0;
  }

  CoreConfig cfg = flags.GetBool("spear")
                       ? SpearCoreConfig(
                             static_cast<std::uint32_t>(flags.GetInt("ifq", 128)),
                             flags.GetBool("sf"))
                       : BaselineConfig(
                             static_cast<std::uint32_t>(flags.GetInt("ifq", 128)));
  cfg.stride_prefetch.enabled = flags.GetBool("stride");
  cfg.spear.chaining_trigger = flags.GetBool("chaining");
  cfg.mem.mem_latency =
      static_cast<std::uint32_t>(flags.GetInt("mem-latency", 120));
  cfg.mem.l2_latency =
      static_cast<std::uint32_t>(flags.GetInt("l2-latency", 12));
  cfg.fence_spec_loads = flags.GetBool("fence");

  if (flags.GetBool("spear") && prog.pthreads.empty()) {
    std::fprintf(stderr,
                 "warning: --spear but the binary has no p-thread section "
                 "(run spearc first)\n");
  }

  // Multiprogram runs (DESIGN.md §17): several positional binaries (or
  // --threads N replicas of one) as co-scheduled SMT contexts, or one per
  // core with --cores. A separate branch so the single-program paths —
  // and their stats documents — stay byte-identical.
  const auto threads_flag =
      static_cast<std::uint32_t>(flags.GetInt("threads", 1));
  const auto cores_flag =
      static_cast<std::uint32_t>(flags.GetInt("cores", 1));
  const bool xcore = flags.GetBool("xcore-pthreads");
  if (flags.positional().size() > 1 || threads_flag > 1 || cores_flag > 1 ||
      xcore) {
    if (flags.Has("ff-instrs") || flags.Has("sampling-period") ||
        flags.Has("trace-out") || flags.GetBool("taint")) {
      std::fprintf(stderr,
                   "spearsim: --ff-instrs, --sampling-*, --trace-out and "
                   "--taint are single-program features\n");
      return tools::kExitUsage;
    }
    if (threads_flag > 1 && flags.positional().size() > 1) {
      std::fprintf(stderr,
                   "spearsim: --threads replicates one binary; pass either "
                   "--threads or several binaries, not both\n");
      return tools::kExitUsage;
    }
    std::vector<Program> extra;
    extra.reserve(flags.positional().size());
    for (std::size_t i = 1; i < flags.positional().size(); ++i) {
      extra.push_back(ReadProgram(flags.positional()[i],
                                  flags.GetBool("strict-specs")
                                      ? SpecLoadPolicy::kReject
                                      : SpecLoadPolicy::kWarn));
    }
    std::vector<const Program*> progs = {&prog};
    std::vector<std::string> names = {flags.positional()[0]};
    for (std::size_t i = 0; i < extra.size(); ++i) {
      progs.push_back(&extra[i]);
      names.push_back(flags.positional()[i + 1]);
    }
    for (std::uint32_t t = 1; t < threads_flag; ++t) {
      progs.push_back(&prog);
      names.push_back(flags.positional()[0]);
    }
    if (cores_flag != 1 &&
        cores_flag != static_cast<std::uint32_t>(progs.size())) {
      std::fprintf(stderr,
                   "spearsim: --cores=%u with %zu programs (CMP mode wants "
                   "one core per program)\n",
                   cores_flag, progs.size());
      return tools::kExitUsage;
    }
    if (xcore && (!flags.GetBool("spear") || cores_flag < 2)) {
      std::fprintf(stderr,
                   "spearsim: --xcore-pthreads needs --spear and "
                   "--cores >= 2\n");
      return tools::kExitUsage;
    }
    cfg.spear.xcore_pthreads = xcore;
    cfg.cosim_check = flags.GetBool("cosim") || flags.Has("cosim-inject");
    EvalOptions opt;
    opt.sim_instrs = max_instrs;
    opt.max_cycles = max_cycles;
    opt.cosim_inject_at =
        static_cast<std::uint64_t>(flags.GetInt("cosim-inject", 0));
    const MixRunStats mix = RunMix(progs, names, cfg, opt, cores_flag);
    if (mix.cosim_diverged) {
      std::fputs(mix.cosim_report.c_str(), stderr);
      return tools::kExitCosimDivergence;
    }
    if (cfg.cosim_check) {
      std::printf("cosim             OK — %llu commits checked across "
                  "contexts\n",
                  static_cast<unsigned long long>(mix.cosim_checked));
    }
    if (!mix.complete) {
      std::fprintf(stderr,
                   "spearsim: INCOMPLETE — max_cycles (%llu) elapsed before "
                   "every context met its budget\n",
                   static_cast<unsigned long long>(max_cycles));
    }
    std::printf("topology          %zu contexts on %u core%s%s\n",
                progs.size(), cores_flag == 1 ? 1u : cores_flag,
                cores_flag > 1 ? "s" : "",
                xcore ? " (cross-core p-threads)" : "");
    std::printf("cycles            %llu\n",
                static_cast<unsigned long long>(mix.cycles));
    std::printf("instructions      %llu (throughput IPC %.4f)\n",
                static_cast<unsigned long long>(mix.instructions),
                mix.throughput_ipc);
    for (std::size_t i = 0; i < mix.threads.size(); ++i) {
      const ThreadRunStats& t = mix.threads[i];
      std::printf("thread %zu          %s: %llu committed in %llu cycles "
                  "(IPC %.4f, halted=%d)\n",
                  i, t.name.c_str(),
                  static_cast<unsigned long long>(t.committed),
                  static_cast<unsigned long long>(t.cycles), t.ipc,
                  t.halted);
    }
    if (flags.Has("stats-json")) {
      telemetry::JsonValue doc = telemetry::JsonValue::Object();
      doc.Set("schema_version",
              telemetry::JsonValue(telemetry::kStatsSchemaVersion));
      doc.Set("kind", telemetry::JsonValue("spearsim-mix"));
      telemetry::JsonValue bins = telemetry::JsonValue::Array();
      for (const std::string& n : names) bins.Append(telemetry::JsonValue(n));
      doc.Set("binaries", std::move(bins));
      doc.Set("spear", telemetry::JsonValue(flags.GetBool("spear")));
      doc.Set("cores", telemetry::JsonValue(
                           static_cast<std::int64_t>(cores_flag)));
      doc.Set("complete", telemetry::JsonValue(mix.complete));
      doc.Set("stats", MixRunStatsToJson(mix));
      if (!telemetry::WriteFileOrStdout(flags.Get("stats-json"),
                                        doc.Dump(2) + "\n")) {
        return 1;
      }
    }
    return mix.complete ? 0 : 3;
  }

  // Interval sampling (DESIGN.md §14): its own run path — the region
  // alternates functional execution with detailed intervals, and the
  // headline numbers become estimates with 95% confidence intervals.
  sampling::SamplingPlan plan;
  plan.period =
      static_cast<std::uint64_t>(flags.GetInt("sampling-period", 0));
  plan.detail =
      static_cast<std::uint64_t>(flags.GetInt("sampling-detail", 0));
  plan.warmup =
      static_cast<std::uint64_t>(flags.GetInt("sampling-warmup", 0));
  std::string plan_err;
  if (!plan.Validate(&plan_err)) {
    std::fprintf(stderr, "spearsim: --sampling-*: %s\n", plan_err.c_str());
    return tools::kExitUsage;
  }
  if (plan.enabled()) {
    if (!flags.Has("max-instrs")) {
      std::fprintf(stderr,
                   "spearsim: sampling needs an explicit region budget "
                   "(--max-instrs)\n");
      return tools::kExitUsage;
    }
    if (flags.Has("trace-out")) {
      std::fprintf(stderr,
                   "spearsim: --trace-out is incompatible with sampling "
                   "(detailed intervals run on throwaway cores)\n");
      return tools::kExitUsage;
    }
    cfg.cosim_check = flags.GetBool("cosim");
    EvalOptions opt;
    opt.sim_instrs = max_instrs;
    opt.max_cycles = max_cycles;  // per detailed interval
    const auto ff = static_cast<std::uint64_t>(flags.GetInt("ff-instrs", 0));
    const sampling::SampledStats ss =
        sampling::RunSampled(prog, prog, cfg, opt, plan, ff);
    if (ss.covered_instrs == 0 && ss.stats.halted) {
      std::fprintf(stderr,
                   "spearsim: program halted inside the --ff-instrs=%llu "
                   "warmup — nothing left to sample\n",
                   static_cast<unsigned long long>(ff));
      return 3;
    }
    if (ss.stats.cosim_diverged) {
      std::fputs(ss.stats.cosim_report.c_str(), stderr);
      return tools::kExitCosimDivergence;
    }
    if (cfg.cosim_check) {
      std::printf("cosim             OK — %llu commits checked across "
                  "intervals\n",
                  static_cast<unsigned long long>(ss.stats.cosim_checked));
    }
    if (!ss.stats.complete) {
      std::fprintf(stderr,
                   "spearsim: INCOMPLETE — max_cycles (%llu) elapsed inside "
                   "a detailed interval\n",
                   static_cast<unsigned long long>(max_cycles));
    }
    std::printf("sampling          period %llu / warmup %llu / detail %llu\n",
                static_cast<unsigned long long>(plan.period),
                static_cast<unsigned long long>(plan.warmup),
                static_cast<unsigned long long>(plan.detail));
    std::printf("covered           %llu instructions (halted=%d), %llu "
                "measured in %llu intervals\n",
                static_cast<unsigned long long>(ss.covered_instrs),
                ss.stats.halted,
                static_cast<unsigned long long>(ss.sampled_instrs),
                static_cast<unsigned long long>(ss.intervals));
    std::printf("IPC               %.4f ± %.4f (95%% CI [%.4f, %.4f], n=%llu)\n",
                ss.ipc.mean, ss.ipc.ci_hi - ss.ipc.mean, ss.ipc.ci_lo,
                ss.ipc.ci_hi, static_cast<unsigned long long>(ss.ipc.n));
    std::printf("CPI               %.4f ± %.4f\n", ss.cpi.mean,
                ss.cpi.ci_hi - ss.cpi.mean);
    std::printf("L1D main misses   %.3f/kinstr (95%% CI [%.3f, %.3f])\n",
                ss.l1d_miss_per_kinstr.mean, ss.l1d_miss_per_kinstr.ci_lo,
                ss.l1d_miss_per_kinstr.ci_hi);
    if (flags.GetBool("spear")) {
      std::printf("triggers          %.3f/kinstr, extracted %.3f/kinstr\n",
                  ss.triggers_per_kinstr.mean, ss.extracted_per_kinstr.mean);
    }
    if (flags.Has("stats-json")) {
      telemetry::JsonValue doc = telemetry::JsonValue::Object();
      doc.Set("schema_version",
              telemetry::JsonValue(telemetry::kStatsSchemaVersion));
      doc.Set("kind", telemetry::JsonValue("spearsim"));
      doc.Set("binary", telemetry::JsonValue(flags.positional()[0]));
      doc.Set("spear", telemetry::JsonValue(flags.GetBool("spear")));
      doc.Set("ifq_size",
              telemetry::JsonValue(static_cast<std::int64_t>(cfg.ifq_size)));
      if (ff > 0) doc.Set("ff_instrs", telemetry::JsonValue(ff));
      doc.Set("complete", telemetry::JsonValue(ss.stats.complete));
      doc.Set("stats", sampling::SampledStatsToJson(ss));
      if (!telemetry::WriteFileOrStdout(flags.Get("stats-json"),
                                        doc.Dump(2) + "\n")) {
        return 1;
      }
    }
    return ss.stats.complete ? 0 : 3;
  }

  Core core(prog, cfg);

  // Lockstep co-simulation: a shadow emulator checks every commit.
  std::unique_ptr<cosim::CosimChecker> checker;
  if (flags.GetBool("cosim") || flags.Has("cosim-inject")) {
    cosim::CosimChecker::Config cc;
    cc.inject_at =
        static_cast<std::uint64_t>(flags.GetInt("cosim-inject", 0));
    checker = std::make_unique<cosim::CosimChecker>(prog, cc);
    core.set_cosim(checker.get());
  }

  // Speculative-leakage observation: shadow taint over wrong-path and
  // p-thread execution (core.spec_leak.* in --stats-json).
  std::unique_ptr<taint::TaintObserver> taint_obs;
  if (flags.GetBool("taint")) {
    if (!taint::kTaintCompiled) {
      std::fprintf(stderr,
                   "spearsim: taint hooks compiled out "
                   "(SPEAR_ENABLE_TAINT=0); --taint unavailable\n");
      return tools::kExitUsage;
    }
    taint_obs =
        std::make_unique<taint::TaintObserver>(prog, cfg.mem.l1d.block_bytes);
    core.set_taint_observer(taint_obs.get());
  }

  // Skip-and-simulate: functionally execute the first N instructions
  // (warming the caches and the branch predictor along the way), then
  // start the timed core from that state.
  const auto ff_instrs =
      static_cast<std::uint64_t>(flags.GetInt("ff-instrs", 0));
  if (ff_instrs > 0) {
    runner::CheckpointKey key;
    key.workload = flags.positional()[0];
    key.ff_instrs = ff_instrs;
    key.l1d = cfg.mem.l1d;
    key.l2 = cfg.mem.l2;
    key.bpred = cfg.bpred;
    const runner::FastForwardResult ff = runner::FastForward(prog, key);
    if (ff.state.halted) {
      std::fprintf(stderr,
                   "spearsim: program halted after %llu instructions, inside "
                   "the --ff-instrs=%llu warmup — nothing left to measure\n",
                   static_cast<unsigned long long>(ff.executed),
                   static_cast<unsigned long long>(ff_instrs));
      return 3;
    }
    core.InstallWarmState(ff.state);
    if (checker) checker->SyncToWarmState(ff.state);
    std::printf("fast-forwarded    %llu instructions (resume pc 0x%08x)\n",
                static_cast<unsigned long long>(ff.executed),
                static_cast<unsigned>(ff.state.pc));
  }

  // Optional pipeline event trace.
  std::unique_ptr<telemetry::PipeTrace> trace;
  if (flags.Has("trace-out")) {
    if (!telemetry::kTraceCompiled) {
      std::fprintf(stderr,
                   "spearsim: trace hooks compiled out "
                   "(SPEAR_ENABLE_TRACE=OFF); --trace-out unavailable\n");
      return 2;
    }
    telemetry::PipeTrace::Config tc;
    tc.capacity =
        static_cast<std::size_t>(flags.GetInt("trace-buf", 1 << 20));
    tc.start_cycle = static_cast<Cycle>(flags.GetInt("trace-start", 0));
    if (flags.Has("trace-cycles")) {
      tc.num_cycles = static_cast<Cycle>(flags.GetInt("trace-cycles", 0));
    }
    trace = std::make_unique<telemetry::PipeTrace>(tc);
    core.set_trace(trace.get());
  }

  const RunResult rr = core.Run(max_instrs, max_cycles);
  // Cosim divergence preempts every other verdict: the run is over, the
  // report is the diagnosis, and exit code 4 tells drivers the failure is
  // deterministic (never retry).
  if (checker && !checker->ok()) {
    const std::string report = checker->Report();
    std::fputs(report.c_str(), stderr);
    if (flags.Has("cosim-report")) {
      telemetry::WriteFileOrStdout(flags.Get("cosim-report"), report);
      std::fprintf(stderr, "cosim report -> %s\n",
                   flags.Get("cosim-report").c_str());
    }
    return tools::kExitCosimDivergence;
  }
  if (checker) {
    std::printf("cosim             OK — %llu main + %llu p-thread commits "
                "checked\n",
                static_cast<unsigned long long>(
                    checker->stats().commits_checked),
                static_cast<unsigned long long>(
                    checker->stats().pthread_commits_checked));
  }
  // A run is complete when it committed a HALT or its full budget; a stop
  // forced by max_cycles means the measurement is bogus, so the process
  // exits 3 (after still emitting its diagnostics) and sweep drivers and
  // CI catch it instead of averaging garbage.
  const bool complete = rr.halted || rr.instructions >= max_instrs;
  if (!complete) {
    std::fprintf(stderr,
                 "spearsim: INCOMPLETE — max_cycles (%llu) elapsed after "
                 "only %llu of %llu budgeted instructions\n",
                 static_cast<unsigned long long>(max_cycles),
                 static_cast<unsigned long long>(rr.instructions),
                 static_cast<unsigned long long>(max_instrs));
  }
  const CoreStats& s = core.stats();
  std::printf("cycles            %llu\n",
              static_cast<unsigned long long>(rr.cycles));
  std::printf("instructions      %llu (halted=%d)\n",
              static_cast<unsigned long long>(rr.instructions), rr.halted);
  std::printf("IPC               %.4f\n", rr.Ipc());
  std::printf("branch hit ratio  %.4f (IPB %.2f)\n", s.BranchHitRatio(),
              s.Ipb());
  std::printf("L1D misses        main %llu / helper %llu\n",
              static_cast<unsigned long long>(
                  core.hierarchy().l1d().misses(kMainThread)),
              static_cast<unsigned long long>(
                  core.hierarchy().l1d().misses(kPThread)));
  if (flags.GetBool("spear")) {
    std::printf("triggers          %llu fired, %llu suppressed, %llu aborted\n",
                static_cast<unsigned long long>(s.triggers_fired),
                static_cast<unsigned long long>(s.triggers_suppressed_occupancy),
                static_cast<unsigned long long>(s.triggers_aborted));
    std::printf("sessions          %llu completed, %llu instrs extracted\n",
                static_cast<unsigned long long>(s.preexec_sessions_completed),
                static_cast<unsigned long long>(s.pthread_extracted));
  }
  if (cfg.stride_prefetch.enabled) {
    std::printf("stride prefetches %llu\n",
                static_cast<unsigned long long>(s.stride_prefetches));
  }
  if (taint_obs) {
    std::printf("leakage surface   %llu spec-only lines (%llu spec / %llu "
                "demand), %llu tainted-addr loads\n",
                static_cast<unsigned long long>(taint_obs->SpecOnlyLines()),
                static_cast<unsigned long long>(taint_obs->spec_line_count()),
                static_cast<unsigned long long>(taint_obs->demand_line_count()),
                static_cast<unsigned long long>(taint_obs->tainted_addr_loads()));
  }
  if (flags.GetBool("trace")) {
    for (std::uint32_t v : core.outputs()) std::printf("out: %u\n", v);
  }

  if (flags.Has("stats-json")) {
    telemetry::StatRegistry reg;
    core.RegisterStats(reg);
    if (checker) checker->RegisterStats(reg);
    if (taint_obs) taint_obs->RegisterStats(reg);
    telemetry::JsonValue meta = telemetry::JsonValue::Object();
    meta.Set("binary", telemetry::JsonValue(flags.positional()[0]));
    meta.Set("spear", telemetry::JsonValue(flags.GetBool("spear")));
    meta.Set("ifq_size", telemetry::JsonValue(static_cast<std::int64_t>(
                             cfg.ifq_size)));
    if (ff_instrs > 0) {
      meta.Set("ff_instrs", telemetry::JsonValue(ff_instrs));
    }
    meta.Set("complete", telemetry::JsonValue(complete));
    const telemetry::JsonValue doc =
        telemetry::StatsDocument(reg, "spearsim", meta);
    if (!telemetry::WriteFileOrStdout(flags.Get("stats-json"),
                                      doc.Dump(2) + "\n")) {
      return 1;
    }
  }

  if (trace) {
    const std::string format = flags.Get("trace-format", "kanata");
    const telemetry::PipeTrace::LabelFn label = [&prog](Pc pc) {
      return prog.ContainsPc(pc) ? Disassemble(prog.At(pc)) : std::string();
    };
    std::string text;
    if (format == "kanata") {
      text = trace->ExportKanata(label);
    } else if (format == "o3") {
      text = trace->ExportO3PipeView(label);
    } else if (format == "bin") {
      text = trace->EncodeBinary();
    } else {
      std::fprintf(stderr, "spearsim: unknown --trace-format '%s'\n",
                   format.c_str());
      return 2;
    }
    if (!telemetry::WriteFileOrStdout(flags.Get("trace-out"), text)) return 1;
    std::fprintf(stderr, "trace: %zu records (%llu dropped) -> %s\n",
                 trace->size(),
                 static_cast<unsigned long long>(trace->dropped()),
                 flags.Get("trace-out").c_str());
  }
  return complete ? 0 : 3;
}

// Evaluation harness shared by the benchmark binaries and integration
// tests: builds a workload, runs the SPEAR post-compiler on it with a
// *different* input seed (the paper's methodology), and executes
// simulator configurations for a fixed instruction budget, mirroring the
// paper's skip-and-simulate runs.
#pragma once

#include <cstdint>
#include <string>

#include "compiler/spear_compiler.h"
#include "cpu/core.h"
#include "telemetry/json.h"
#include "workloads/workload.h"

namespace spear {

struct EvalOptions {
  std::uint64_t sim_instrs = 400'000;       // per-run commit budget
  std::uint64_t max_cycles = 80'000'000;    // safety net
  std::uint64_t ref_seed = 42;              // simulated input
  std::uint64_t profile_seed = 20040426;    // profiling input (different)
  // Workload working-set / iteration scale (WorkloadConfig::scale),
  // applied to both the reference and the profiling build. >1 grows
  // dynamic instruction counts toward sampled billion-instruction runs.
  int scale = 1;
  CompilerOptions compiler;
  // Cosim fault-injection self-test (multiprogram runs; 0 = disabled):
  // corrupt the Nth checked commit so the checker provably fails. In an
  // SMT mix `cosim_inject_tid` picks the context (-1 = global count); in
  // CMP mode it picks the core (-1 = core 0).
  std::uint64_t cosim_inject_at = 0;
  int cosim_inject_tid = -1;
};

// A workload prepared for evaluation: the reference binary for baseline
// runs and the SPEAR-annotated binary produced by the post-compiler.
struct PreparedWorkload {
  std::string name;
  Program plain;
  Program annotated;
  CompileReport compile_report;
};

PreparedWorkload PrepareWorkload(const std::string& name,
                                 const EvalOptions& options);

// One simulator run, condensed.
struct RunStats {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;
  std::uint64_t l1d_misses_main = 0;
  std::uint64_t l1d_misses_pthread = 0;
  std::uint64_t l2_misses_main = 0;
  std::uint64_t l2_misses_pthread = 0;
  double branch_hit_ratio = 1.0;
  double ipb = 0.0;
  std::uint64_t triggers = 0;
  std::uint64_t sessions = 0;
  std::uint64_t extracted = 0;
  // Wrong-path cost of control speculation.
  std::uint64_t dispatched_wrongpath = 0;
  std::uint64_t squashed_wrongpath = 0;
  std::uint64_t ifq_flushed = 0;
  // Chaining-trigger extension re-arms (bench/manifests/ext_chaining.json).
  std::uint64_t chained_triggers = 0;
  bool halted = false;
  // A run is complete when it either committed a HALT or exhausted its
  // commit budget. !complete means the max_cycles safety net fired — the
  // measurement is bogus, and tools exit nonzero so sweep drivers notice.
  bool complete = false;

  // Lockstep co-simulation (config.cosim_check; see src/cosim). When the
  // run diverged, `cosim_summary` carries the one-line verdict (used as
  // the runner row error — its "cosim" prefix maps to the dedicated exit
  // code) and `cosim_report` the full structured report.
  std::uint64_t cosim_checked = 0;  // main + p-thread commits compared
  bool cosim_diverged = false;
  std::string cosim_summary;
  std::string cosim_report;

  // Speculative-leakage observation (config.taint_observe; see
  // spear/taint_observer.h). `taint_observed` gates JSON emission so
  // documents from unobserved runs keep their exact shape.
  bool taint_observed = false;
  std::uint64_t spec_loads = 0;          // loads on wrong-path/p-thread
  std::uint64_t tainted_addr_loads = 0;  // address register carried taint
  std::uint64_t secret_loads = 0;        // loads reading a @secret range
  std::uint64_t lines_spec = 0;          // lines touched speculatively
  std::uint64_t lines_demand = 0;        // lines touched by committed path
  std::uint64_t lines_spec_only = 0;     // the leakage surface
};

// Runs `prog` on `config` for the options' commit budget. When `warm` is
// given, the core starts from that post-warmup state instead of cold
// (skip-and-simulate); stats count post-restore activity only.
RunStats RunConfig(const Program& prog, const CoreConfig& config,
                   const EvalOptions& options,
                   const WarmState* warm = nullptr);

// RunStats as an insertion-ordered JSON object (for bench result files).
telemetry::JsonValue RunStatsToJson(const RunStats& s);

// ---- multiprogram (SMT mixes and CMP; DESIGN.md §17) ----

// One hardware context's outcome inside a multiprogram run.
struct ThreadRunStats {
  std::string name;             // workload name (for mix labels)
  std::uint64_t committed = 0;
  Cycle cycles = 0;             // own halt cycle, or total elapsed
  double ipc = 0.0;
  bool halted = false;
};

struct MixRunStats {
  Cycle cycles = 0;                   // total elapsed
  std::uint64_t instructions = 0;     // summed over contexts
  double throughput_ipc = 0.0;        // instructions / cycles
  std::vector<ThreadRunStats> threads;
  // Multiprogram figures of merit, filled when `solo_ipcs` was provided:
  // weighted speedup = sum_i IPC_mix_i / IPC_solo_i, and harmonic-mean
  // fairness = N / sum_i (IPC_solo_i / IPC_mix_i).
  double weighted_speedup = 0.0;
  double hmean_fairness = 0.0;
  bool complete = false;
  std::uint64_t cosim_checked = 0;
  bool cosim_diverged = false;
  std::string cosim_summary;
  std::string cosim_report;
};

// Runs the programs as co-scheduled SMT contexts on one core (SMT mix,
// `cores == 1`) or as one program per core over a shared L2 (CMP,
// `cores == progs.size()`); those are the only two supported shapes.
// `names` labels the per-thread rows; `solo_ipcs` (same order, from prior
// single-program runs of the same config) enables the derived metrics.
// The commit budget applies per context. config.cosim_check attaches the
// per-thread (or per-core) lockstep checkers.
MixRunStats RunMix(const std::vector<const Program*>& progs,
                   const std::vector<std::string>& names,
                   const CoreConfig& config, const EvalOptions& options,
                   std::uint32_t cores = 1,
                   const std::vector<double>* solo_ipcs = nullptr);

telemetry::JsonValue MixRunStatsToJson(const MixRunStats& s);

}  // namespace spear

// Job manifests: the declarative form of an experiment matrix, and the
// only definition of one. A manifest names a set of workloads, a set of
// labeled simulator configurations and optional derived metrics; the job
// list is the workload x config cross product (workload-major), optionally
// followed by explicit extra jobs (multiprogram mixes, and CI's deliberate
// failures). Every table and figure is a committed bench/manifests/*.json
// file that spearrun executes (in-process, across worker processes, or
// through the spearfarm daemon).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/config.h"
#include "eval/harness.h"
#include "sampling/sampling.h"
#include "telemetry/json.h"

namespace spear::runner {

// Bump when the manifest JSON shape changes incompatibly; the parser
// rejects other versions with a clear message.
inline constexpr int kManifestVersion = 1;

struct ManifestDefaults {
  std::uint64_t sim_instrs = 400'000;
  std::uint64_t max_cycles = 80'000'000;
  std::uint64_t ref_seed = 42;
  std::uint64_t profile_seed = 20040426;
  // Functional fast-forward before the timed run (0 = start cold). The
  // warm state is checkpointed and shared by every config whose cache and
  // predictor geometry matches.
  std::uint64_t ff_instrs = 0;
  // Worker-pool failure policy (0 timeout = no deadline).
  std::uint64_t timeout_ms = 0;
  int max_retries = 2;
  std::uint64_t backoff_ms = 250;
  // Workload working-set / iteration scale (EvalOptions::scale). >1 grows
  // dynamic instruction counts toward billion-instruction sampled runs;
  // emitted (and appended to cache keys) only when != 1.
  int scale = 1;
  // Interval sampling (src/sampling). period == 0 = full-detail runs; when
  // enabled, every row becomes a sampled estimate with CIs and the rows
  // carry a "sampling" member (stats schema v3).
  sampling::SamplingPlan sampling;
};

// One labeled simulator configuration. Fields at their zero/empty value
// mean "leave the simulator default alone"; ManifestToJson emits only the
// overridden fields, so manifests stay readable.
struct ConfigSpec {
  std::string label;
  std::string binary;  // "plain" | "annotated" | "" = derived from `spear`
  bool spear = false;
  bool separate_fu = false;
  std::uint32_t ifq = 128;
  std::uint32_t mem_latency = 0;
  std::uint32_t l2_latency = 0;
  std::string bpred_kind;  // bimodal | gshare | static_btfn | always_taken
  std::uint32_t bpred_entries = 0;
  std::uint32_t trigger_occupancy_div = 0;
  std::int32_t extract_per_cycle = -1;  // -1 = core default (issue/2)
  std::string drain_policy;  // immediate | drain_to_trigger | stall_dispatch
  bool chaining_trigger = false;
  bool stride_prefetch = false;
  std::uint32_t stride_degree = 0;
  // Speculative-leakage evaluation (fig_leakage.json): attach the taint
  // observer, and/or fence speculative loads behind unresolved branches.
  bool taint = false;
  bool fence_spec_loads = false;
  // Compiler knob (affects PrepareWorkload, not the core): 0 = default.
  double dcycle_budget = 0.0;
  // Multiprogram topology (DESIGN.md §17). cores == 1 runs a mix job's
  // programs as co-scheduled SMT contexts on one core; cores == N (the
  // mix size) gives every program a private core over a shared L2.
  // Single-workload jobs ignore `cores` beyond requiring it to be 1.
  std::uint32_t cores = 1;
  // Cross-core pre-execution: p-threads spawn on an idle donor core and
  // warm the shared L2 only. Needs spear and a CMP config (cores > 1).
  bool xcore_pthreads = false;
};

// One run. `config` indexes Manifest::configs. Matrix jobs inherit the
// defaults' failure policy; explicit jobs may override it, and debug_hang
// makes the worker sleep forever (CI's forced-timeout probe).
struct JobSpec {
  std::string workload;
  // Multiprogram mix: `workloads: ["a", "b"]` in place of `workload`.
  // The programs are co-scheduled (SMT or CMP per the config's `cores`)
  // and the row carries per-thread stats plus weighted speedup /
  // harmonic-mean fairness against solo runs of the same config.
  std::vector<std::string> workloads;
  int config = -1;
  bool debug_hang = false;
  std::uint64_t timeout_ms = 0;  // 0 = inherit defaults
  int max_retries = -1;          // -1 = inherit defaults

  bool is_mix() const { return !workloads.empty(); }
};

// A metric aggregated over the manifest's workloads from two configs'
// job rows: mean_ratio = mean(num.metric / den.metric), mean_reduction =
// mean(1 - num.metric / den.metric). `metric` is a RunStats JSON key.
struct DerivedSpec {
  std::string name;
  std::string op;  // "mean_ratio" | "mean_reduction"
  std::string metric;
  std::string num;  // config label
  std::string den;  // config label
};

struct Manifest {
  std::string name;
  ManifestDefaults defaults;
  std::vector<std::string> workloads;
  std::vector<ConfigSpec> configs;
  std::vector<JobSpec> extra_jobs;
  std::vector<DerivedSpec> derived;
};

// The full flattened job list: workloads x configs (workload-major), then
// extra_jobs. Job indices used by `spearrun --worker --job N` index this.
std::vector<JobSpec> ExpandJobs(const Manifest& m);

// "workload/config-label" — the stable identifier used in result rows.
// Mix jobs join their workload names with '+' ("mcf+art/spear256").
std::string JobId(const Manifest& m, const JobSpec& job);

// Parses a manifest document. On failure returns false and fills *error
// with a path-annotated diagnostic ("configs[2].bpred_kind: unknown
// predictor 'foo'"). Unknown keys are rejected, not ignored: a typoed
// knob must not silently run the default configuration. Workload names
// must be registered kernels ("workloads[0]: unknown workload 'mfc'");
// that check runs after every structural one.
bool ParseManifest(const std::string& text, Manifest* out,
                   std::string* error);
bool LoadManifestFile(const std::string& path, Manifest* out,
                      std::string* error);

// Canonical JSON form (the runner document's manifest echo, the farm's
// submission and cache keys). Parse(Emit(m)) is an identity, and Emit
// only writes non-default fields.
telemetry::JsonValue ManifestToJson(const Manifest& m);

// Materializes a ConfigSpec into the simulator structs.
CoreConfig MakeCoreConfig(const ConfigSpec& c);
EvalOptions MakeEvalOptions(const ManifestDefaults& d, const ConfigSpec& c);

// Which program the config runs: "plain" or "annotated" (explicit binary
// field wins; otherwise SPEAR-enabled configs run the annotated binary).
std::string ResolveBinary(const ConfigSpec& c);

}  // namespace spear::runner

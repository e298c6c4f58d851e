// Manifest execution: turns a parsed Manifest into the schema-versioned
// results document under bench/results/. Two drivers share every
// deterministic code path (job -> row, row ordering, derived metrics):
//
//   RunManifestInProcess — sequential, used by `spearrun --in-process`
//     and the tests; no fork, but the same checkpoint cache.
//   RunManifestParallel  — the spearrun parent: forks `spearrun --worker`
//     children through the ProcessPool, one per job, and embeds each
//     worker's row verbatim.
//
// Everything nondeterministic (wall times, attempt counts, checkpoint
// hit/miss tallies, worker count) is confined to the document's top-level
// "run" member, so `spearstats --strip=run` of a parallel run and of an
// in-process run of the same manifest are byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "runner/manifest.h"
#include "runner/pool.h"
#include "telemetry/registry.h"

namespace spear::runner {

// Worker/tool exit codes. kExitUsage, kExitIncomplete and kExitCosim are
// deterministic — the pool fails fast on them instead of retrying. This
// mirrors the canonical table in tools/tool_flags.h (which src/ cannot
// include); keep the two in sync.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitIncomplete = 3;  // max_cycles fired before budget
inline constexpr int kExitCosim = 4;       // lockstep cosim divergence
inline constexpr int kExitFarm = 6;        // farm client/daemon failure

struct RunnerOptions {
  int workers = 1;
  std::string ckpt_dir = "bench/ckpt";
  bool use_ckpt = true;
  bool verbose = false;  // per-job progress lines (spearrun parent)
  // --quick / --sim-instrs override, applied identically by parent and
  // workers so their rows agree.
  std::optional<std::uint64_t> sim_instrs_override;
  // Run every job under the lockstep cosim checker (src/cosim). A
  // divergence fails the job deterministically with kExitCosim.
  bool cosim = false;
};

// Caches PrepareWorkload results within one process; keyed by everything
// compilation depends on, so a manifest that sweeps compiler knobs (e.g.
// dcycle_budget) still compiles each variant exactly once.
class WorkloadCache {
 public:
  const PreparedWorkload& Get(const std::string& name,
                              const EvalOptions& options);

 private:
  std::map<std::string, std::unique_ptr<PreparedWorkload>> cache_;
};

// One executed job. `row` is the deterministic result row; the rest is
// run metadata destined for the "run" member.
struct JobRun {
  telemetry::JsonValue row;
  bool failed = false;
  std::string ckpt = "off";  // "hit" | "miss" | "off"
  std::uint64_t ms = 0;
};

// Executes one job in this process: compile (cached), fast-forward via
// the checkpoint cache when ff_instrs > 0, timed run, row assembly. A
// debug_hang job is not run — it fails deterministically (the hang is a
// worker-process behaviour for exercising pool timeouts).
JobRun ExecuteJob(const Manifest& m, const JobSpec& job, WorkloadCache& cache,
                  const RunnerOptions& opts);

struct ManifestRunResult {
  telemetry::JsonValue document;
  int failed_jobs = 0;
};

// The canonical failure row every driver emits for a job that produced no
// worker row (timeout, crash, lost output). Shared so the fork/exec path,
// the in-process path and the spearfarm daemon stay byte-identical.
telemetry::JsonValue MakeFailureRow(const Manifest& m, const JobSpec& job,
                                    const std::string& error);

// The deterministic document: schema envelope, manifest echo, the final
// jobs array and derived metrics — everything except the "run" member,
// which each driver attaches itself.
telemetry::JsonValue BuildRunnerDocument(const Manifest& m,
                                         telemetry::JsonValue jobs);

// Reconstructs the deterministic row for a finished worker process. When
// the exit status represents a verdict (ok, deterministic incomplete,
// cosim divergence) the row the worker wrote to `job_out_path` is embedded
// verbatim; otherwise the canonical failure row is synthesized ("timeout",
// "crashed (signal N)", "worker exited N"), carrying the worker's
// last-attempt stderr tail when one was captured.
struct WorkerRow {
  telemetry::JsonValue row;
  bool from_worker = false;  // row came from the worker's --job-out file
  std::string ckpt = "off";
};
WorkerRow RecoverWorkerRow(const Manifest& m, const JobSpec& job,
                           const PoolResult& r,
                           const std::string& job_out_path);

ManifestRunResult RunManifestInProcess(const Manifest& m,
                                       const RunnerOptions& opts);

// The spearrun parent. `manifest_path` and `exe_path` are what the worker
// argv needs to re-load the same manifest in the child.
ManifestRunResult RunManifestParallel(const Manifest& m,
                                      const std::string& manifest_path,
                                      const std::string& exe_path,
                                      const RunnerOptions& opts);

// Applies opts.sim_instrs_override to the manifest defaults (parent and
// worker both call this before executing anything).
void ApplyOverrides(Manifest* m, const RunnerOptions& opts);

// Writes `doc` (pretty-printed, trailing newline) to <out_dir>/<name>.json,
// creating the directory. Returns the path.
std::string WriteRunnerDoc(const telemetry::JsonValue& doc,
                           const std::string& out_dir,
                           const std::string& name);

}  // namespace spear::runner

// spearrun — run an experiment manifest end-to-end: expand the job
// matrix, execute every job across a pool of worker processes (with
// checkpointed fast-forward, per-job timeouts and bounded retry), and
// aggregate the rows into one results document under bench/results/,
// then print the workload x config IPC table (and, for multiprogram
// manifests, the per-mix throughput table) plus the derived metrics.
// Every experiment is a manifest under bench/manifests/.
//
//   spearrun --manifest bench/manifests/fig6.json -j $(nproc)
//   spearrun --manifest bench/manifests/ci_quick.json -j 4 --quick \
//       --tolerate-failures
//   spearrun --manifest m.json --list          # show the expanded jobs
//   spearrun --manifest m.json --in-process    # no fork (debugging)
//   spearrun --manifest m.json --farm /run/spearfarm.sock   # via daemon
//   spearrun --manifest m.json --cache-audit --cache-dir d  # dry audit
//
// The same binary is its own worker: the parent forks
// `spearrun --worker --job N`, each worker runs exactly one job and
// writes its result row to --job-out. Exit codes: 0 ok, 1 failure,
// 2 usage/manifest error, 3 deterministic incomplete run (not retried),
// 4 cosim divergence under --cosim (not retried), 6 farm transport
// failure under --farm. Canonical table in tool_flags.h.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "farm/cache.h"
#include "farm/client.h"
#include "runner/runner.h"
#include "tool_flags.h"

namespace {

using namespace spear;
using namespace spear::runner;

std::string SelfExePath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);
}

int WorkerMain(const Manifest& manifest, const tools::Flags& flags,
               const RunnerOptions& opts) {
  const long index = flags.GetInt("job", -1);
  const std::string job_out = flags.Get("job-out");
  const std::vector<JobSpec> jobs = ExpandJobs(manifest);
  if (index < 0 || static_cast<std::size_t>(index) >= jobs.size() ||
      job_out.empty()) {
    std::fprintf(stderr, "spearrun: --worker needs --job <0..%zu> and "
                         "--job-out\n",
                 jobs.size() - 1);
    return kExitUsage;
  }
  const JobSpec& job = jobs[static_cast<std::size_t>(index)];
  if (job.debug_hang) {
    // CI's forced-timeout probe: hang until the parent's deadline kills us.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }

  WorkloadCache cache;
  const JobRun run = ExecuteJob(manifest, job, cache, opts);

  telemetry::JsonValue out = telemetry::JsonValue::Object();
  out.Set("job", run.row);
  telemetry::JsonValue meta = telemetry::JsonValue::Object();
  meta.Set("ckpt", telemetry::JsonValue(run.ckpt));
  meta.Set("ms", telemetry::JsonValue(run.ms));
  out.Set("run", std::move(meta));
  if (!telemetry::WriteFileOrStdout(job_out, out.Dump(2) + "\n")) {
    return kExitFailure;
  }
  if (!run.failed) return kExitOk;
  // Distinguish the deterministic verdicts (fail fast, the row is still
  // valid diagnostics) from other failures: a cosim divergence or an
  // incomplete run is the same every attempt, so retrying is pointless.
  const telemetry::JsonValue* err = run.row.Find("error");
  if (err != nullptr && err->AsString().rfind("cosim", 0) == 0) {
    return kExitCosim;
  }
  const bool incomplete =
      err != nullptr && err->AsString().rfind("incomplete", 0) == 0;
  return incomplete ? kExitIncomplete : kExitFailure;
}

const telemetry::JsonValue* FindJobRow(const telemetry::JsonValue& jobs,
                                       const std::string& id) {
  for (const telemetry::JsonValue& row : jobs.items()) {
    const telemetry::JsonValue* rid = row.Find("id");
    if (rid != nullptr && rid->AsString() == id) return &row;
  }
  return nullptr;
}

// Per-mix table for multiprogram manifests: throughput plus the figures
// of merit each mix row already carries.
void PrintMixTable(const Manifest& m, const telemetry::JsonValue& jobs) {
  bool any = false;
  for (const JobSpec& j : m.extra_jobs) any = any || j.is_mix();
  if (!any) return;
  std::printf("\n%-28s %10s %10s %10s\n", "mix/config", "thru IPC",
              "w.speedup", "fairness");
  for (const JobSpec& j : m.extra_jobs) {
    if (!j.is_mix()) continue;
    const std::string id = JobId(m, j);
    const telemetry::JsonValue* row = FindJobRow(jobs, id);
    const telemetry::JsonValue* thru =
        row != nullptr ? row->FindPath("stats.throughput_ipc") : nullptr;
    if (thru == nullptr) {
      std::printf("%-28s %10s\n", id.c_str(),
                  row != nullptr ? "FAIL" : "-");
      continue;
    }
    const telemetry::JsonValue* ws = row->FindPath("stats.weighted_speedup");
    const telemetry::JsonValue* hf = row->FindPath("stats.hmean_fairness");
    std::printf("%-28s %10.3f %10.3f %10.3f\n", id.c_str(), thru->AsDouble(),
                ws != nullptr ? ws->AsDouble() : 0.0,
                hf != nullptr ? hf->AsDouble() : 0.0);
  }
}

// The workload x config IPC table of the document's matrix rows, then
// the mix table.
void PrintTables(const Manifest& m, const telemetry::JsonValue& doc) {
  const telemetry::JsonValue* jobs = doc.Find("jobs");
  if (jobs == nullptr) return;
  if (!m.workloads.empty()) {
    std::printf("\n%-10s", "benchmark");
    for (const ConfigSpec& c : m.configs) {
      std::printf(" %12s", c.label.c_str());
    }
    std::printf("  (IPC)\n");
    for (const std::string& w : m.workloads) {
      std::printf("%-10s", w.c_str());
      for (const ConfigSpec& c : m.configs) {
        const telemetry::JsonValue* row = FindJobRow(*jobs, w + "/" + c.label);
        const telemetry::JsonValue* ipc =
            row != nullptr ? row->FindPath("stats.ipc") : nullptr;
        if (ipc != nullptr) {
          std::printf(" %12.3f", ipc->AsDouble());
        } else {
          std::printf(" %12s", row != nullptr ? "FAIL" : "-");
        }
      }
      std::printf("\n");
    }
  }
  PrintMixTable(m, *jobs);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(
      argc, argv,
      {{"manifest", "manifest JSON file to run (required)"},
       {"j", "worker processes (default: 1)"},
       {"out", "directory for the results document (default bench/results)"},
       {"ckpt-dir", "fast-forward checkpoint cache (default bench/ckpt)"},
       {"no-ckpt", "disable the checkpoint cache (always warm up live)"},
       {"quick", "smoke-run budget (40k instrs per job)"},
       {"cosim", "lockstep-check every job against the functional emulator "
                 "(exit 4 on divergence, not retried)"},
       {"sim-instrs", "exact per-job commit budget override"},
       {"tolerate-failures", "exit 0 even when jobs failed (CI probes)"},
       {"list", "print the expanded job list and exit"},
       {"in-process", "run jobs sequentially in this process (no fork)"},
       {"farm", "submit jobs to the spearfarm daemon at this socket "
                "instead of forking workers"},
       {"cache-audit", "dry mode: print cache key, hit/miss and on-disk "
                       "size per manifest row, run nothing"},
       {"cache-dir", "farm result cache for --cache-audit (default "
                     "bench/farm/cache)"},
       {"worker", "internal: run one job and exit"},
       {"job", "internal: job index for --worker"},
       {"job-out", "internal: result file for --worker"}});

  const std::string manifest_path = flags.Get("manifest");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "spearrun: --manifest is required (try --help)\n");
    return spear::runner::kExitUsage;
  }

  spear::runner::Manifest manifest;
  std::string error;
  if (!spear::runner::LoadManifestFile(manifest_path, &manifest, &error)) {
    std::fprintf(stderr, "spearrun: %s\n", error.c_str());
    return spear::runner::kExitUsage;
  }

  spear::runner::RunnerOptions opts;
  opts.workers = static_cast<int>(flags.GetInt("j", 1));
  opts.ckpt_dir = flags.Get("ckpt-dir", opts.ckpt_dir);
  opts.use_ckpt = !flags.GetBool("no-ckpt");
  opts.cosim = flags.GetBool("cosim");
  opts.verbose = true;
  if (flags.GetBool("quick")) opts.sim_instrs_override = 40'000;
  if (flags.Has("sim-instrs")) {
    opts.sim_instrs_override =
        static_cast<std::uint64_t>(flags.GetInt("sim-instrs", 400'000));
  }
  spear::runner::ApplyOverrides(&manifest, opts);

  if (flags.GetBool("worker")) {
    opts.verbose = false;
    return WorkerMain(manifest, flags, opts);
  }

  const std::vector<spear::runner::JobSpec> jobs =
      spear::runner::ExpandJobs(manifest);
  if (flags.GetBool("list")) {
    std::printf("manifest %s: %zu jobs (%zu workloads x %zu configs",
                manifest.name.c_str(), jobs.size(),
                manifest.workloads.size(), manifest.configs.size());
    if (!manifest.extra_jobs.empty()) {
      std::printf(" + %zu explicit", manifest.extra_jobs.size());
    }
    std::printf(")\n");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::printf("  [%3zu] %s%s\n", i,
                  spear::runner::JobId(manifest, jobs[i]).c_str(),
                  jobs[i].debug_hang ? "  (debug_hang)" : "");
    }
    return spear::runner::kExitOk;
  }

  if (flags.GetBool("cache-audit")) {
    // Dry audit: derive each row's farm cache key (same derivation as the
    // daemon, including any --quick/--sim-instrs override applied above)
    // and report hit/miss + on-disk size without running anything.
    const std::string cache_dir =
        flags.Get("cache-dir", "bench/farm/cache");
    std::printf("cache audit: %s against %s (%zu rows)\n",
                manifest.name.c_str(), cache_dir.c_str(), jobs.size());
    spear::runner::WorkloadCache cache;
    std::size_t hits = 0;
    std::uint64_t total_bytes = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const spear::runner::JobSpec& job = jobs[i];
      const std::string id = spear::runner::JobId(manifest, jobs[i]);
      if (job.debug_hang || job.is_mix()) {
        std::printf("  [%3zu] %-6s %10s  %-28s (%s, uncacheable)\n", i,
                    "skip", "-", id.c_str(),
                    job.debug_hang ? "debug_hang" : "mix");
        continue;
      }
      const spear::EvalOptions eopts = spear::runner::MakeEvalOptions(
          manifest.defaults, manifest.configs[job.config]);
      const spear::farm::ResultCacheKey key = spear::farm::MakeResultKey(
          manifest, job,
          spear::farm::BinaryFingerprint(cache.Get(job.workload, eopts)),
          opts.cosim);
      std::uint64_t bytes = 0;
      const bool hit = spear::farm::ProbeResult(cache_dir, key, &bytes);
      if (hit) {
        ++hits;
        total_bytes += bytes;
      }
      std::printf("  [%3zu] %-6s %10s  %-28s %s\n", i, hit ? "HIT" : "MISS",
                  hit ? (std::to_string(bytes) + " B").c_str() : "-",
                  id.c_str(),
                  spear::farm::ResultCachePath(cache_dir, key).c_str());
    }
    std::printf("%zu of %zu rows cached, %llu bytes on disk\n", hits,
                jobs.size(), static_cast<unsigned long long>(total_bytes));
    return spear::runner::kExitOk;
  }

  spear::runner::ManifestRunResult result;
  const std::string farm_socket = flags.Get("farm");
  if (!farm_socket.empty()) {
    std::printf("spearrun: %s — %zu jobs via farm %s\n",
                manifest.name.c_str(), jobs.size(), farm_socket.c_str());
    std::string farm_error;
    if (!spear::farm::RunManifestFarm(manifest, farm_socket, opts, &result,
                                      &farm_error)) {
      std::fprintf(stderr, "spearrun: farm: %s\n", farm_error.c_str());
      return spear::tools::kExitFarm;
    }
  } else {
    std::printf("spearrun: %s — %zu jobs, %d worker%s, ff=%llu, ckpt %s\n",
                manifest.name.c_str(), jobs.size(), opts.workers,
                opts.workers == 1 ? "" : "s",
                static_cast<unsigned long long>(manifest.defaults.ff_instrs),
                opts.use_ckpt ? opts.ckpt_dir.c_str() : "off");
    result = flags.GetBool("in-process")
                 ? spear::runner::RunManifestInProcess(manifest, opts)
                 : spear::runner::RunManifestParallel(
                       manifest, manifest_path, SelfExePath(argv[0]), opts);
  }

  PrintTables(manifest, result.document);
  const std::string path = spear::runner::WriteRunnerDoc(
      result.document, flags.Get("out", "bench/results"), manifest.name);
  std::printf("wrote %s\n", path.c_str());

  if (const spear::telemetry::JsonValue* derived =
          result.document.Find("derived");
      derived != nullptr) {
    for (const auto& [name, value] : derived->members()) {
      std::printf("  %-28s %s\n", name.c_str(), value.Dump().c_str());
    }
  }
  if (result.failed_jobs > 0) {
    std::printf("%d of %zu jobs FAILED%s\n", result.failed_jobs, jobs.size(),
                flags.GetBool("tolerate-failures") ? " (tolerated)" : "");
    if (!flags.GetBool("tolerate-failures")) {
      return spear::runner::kExitFailure;
    }
  }
  return spear::runner::kExitOk;
}

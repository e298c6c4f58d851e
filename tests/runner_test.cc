// Tests for the experiment-orchestration subsystem (src/runner): the
// checkpointed fast-forward layer (save/load round trips must reproduce a
// live-warmed run bit-identically), the multi-process worker pool
// (timeout, bounded retry with backoff, fail-fast exits, crash isolation
// — driven with /bin/sh so no test forks a multi-second simulator), the
// manifest parser's path-annotated rejection diagnostics, and every
// committed bench/manifests/*.json.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cpu/config.h"
#include "eval/harness.h"
#include "runner/checkpoint.h"
#include "runner/manifest.h"
#include "runner/pool.h"
#include "runner/runner.h"
#include "workloads/workload.h"

namespace spear::runner {
namespace {

std::string TempDir(const std::string& tag) {
  static int counter = 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("spear_runner_test." + std::to_string(::getpid()) + "." + tag + "." +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(path);
  return path;
}

CheckpointKey MatrixKey(std::uint64_t ff_instrs) {
  const CoreConfig cfg = BaselineConfig(128);
  CheckpointKey key;
  key.workload = "matrix";
  key.seed = 42;
  key.ff_instrs = ff_instrs;
  key.l1d = cfg.mem.l1d;
  key.l2 = cfg.mem.l2;
  key.bpred = cfg.bpred;
  return key;
}

Program MatrixProgram() {
  WorkloadConfig wc;
  wc.seed = 42;
  return BuildWorkloadProgram("matrix", wc);
}

// --- checkpoint layer ---

TEST(CheckpointKeyTest, KeyStringCoversWarmupInputs) {
  const CheckpointKey a = MatrixKey(10'000);
  CheckpointKey b = MatrixKey(10'000);
  EXPECT_EQ(KeyString(a), KeyString(b));
  EXPECT_EQ(CheckpointPath("d", a), CheckpointPath("d", b));

  b.ff_instrs = 20'000;
  EXPECT_NE(KeyString(a), KeyString(b));
  b = MatrixKey(10'000);
  b.seed = 7;
  EXPECT_NE(KeyString(a), KeyString(b));
  b = MatrixKey(10'000);
  b.l1d.sets *= 2;
  EXPECT_NE(KeyString(a), KeyString(b));
  b = MatrixKey(10'000);
  b.bpred.table_entries *= 2;
  EXPECT_NE(KeyString(a), KeyString(b));
}

TEST(CheckpointTest, SaveLoadRoundTripsWarmState) {
  const std::string dir = TempDir("roundtrip");
  const CheckpointKey key = MatrixKey(20'000);
  const Program prog = MatrixProgram();

  const FastForwardResult ff = FastForward(prog, key);
  ASSERT_FALSE(ff.state.halted);
  EXPECT_EQ(ff.executed, 20'000u);

  std::string error;
  ASSERT_TRUE(SaveCheckpoint(dir, key, ff.state, &error)) << error;

  WarmState loaded;
  ASSERT_TRUE(LoadCheckpoint(dir, key, &loaded, &error)) << error;
  EXPECT_EQ(loaded.pc, ff.state.pc);
  EXPECT_EQ(loaded.warmed_instrs, ff.state.warmed_instrs);
  EXPECT_EQ(loaded.iregs, ff.state.iregs);
  EXPECT_EQ(loaded.fregs, ff.state.fregs);
  EXPECT_EQ(loaded.l1d.stamp, ff.state.l1d.stamp);
  EXPECT_EQ(loaded.l1d.tags, ff.state.l1d.tags);
  EXPECT_EQ(loaded.l1d.lru, ff.state.l1d.lru);
  EXPECT_EQ(loaded.l2.tags, ff.state.l2.tags);
  EXPECT_EQ(loaded.bpred.counters, ff.state.bpred.counters);
  EXPECT_EQ(loaded.bpred.btb_pcs, ff.state.bpred.btb_pcs);

  // The ISSUE's equivalence bar: a run restored from the checkpoint and a
  // run warmed live must produce bit-identical stats JSON.
  EvalOptions opt;
  opt.sim_instrs = 20'000;
  const RunStats live = RunConfig(prog, BaselineConfig(128), opt, &ff.state);
  const RunStats restored = RunConfig(prog, BaselineConfig(128), opt, &loaded);
  EXPECT_EQ(RunStatsToJson(live).Dump(2), RunStatsToJson(restored).Dump(2));
}

TEST(CheckpointTest, MismatchesReadAsMisses) {
  const std::string dir = TempDir("miss");
  const CheckpointKey key = MatrixKey(5'000);
  WarmState state;

  // Absent file.
  EXPECT_FALSE(LoadCheckpoint(dir, key, &state));

  const FastForwardResult ff = FastForward(MatrixProgram(), key);
  ASSERT_TRUE(SaveCheckpoint(dir, key, ff.state));

  // A different geometry hashes to a different path: miss, not collision.
  CheckpointKey other = key;
  other.l2.assoc *= 2;
  EXPECT_FALSE(LoadCheckpoint(dir, other, &state));

  // Garbage where the file should be: bad magic is a miss, not an error.
  {
    std::ofstream out(CheckpointPath(dir, key), std::ios::binary);
    out << "not a checkpoint";
  }
  EXPECT_FALSE(LoadCheckpoint(dir, key, &state));

  // Truncation (simulating a torn write without the tmp+rename dance).
  ASSERT_TRUE(SaveCheckpoint(dir, key, ff.state));
  const std::string path = CheckpointPath(dir, key);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_FALSE(LoadCheckpoint(dir, key, &state));
}

// --- SPCK v2 checkpoint trees ---

CheckpointTreeKey MatrixTreeKey(std::uint64_t ff_instrs) {
  CheckpointTreeKey tk;
  tk.base = MatrixKey(ff_instrs);
  tk.sim_instrs = 100'000;
  tk.period = 20'000;
  tk.detail = 2'000;
  tk.warmup = 4'000;
  return tk;
}

TEST(CheckpointTreeTest, TreeKeyCoversPlanGeometry) {
  const CheckpointTreeKey a = MatrixTreeKey(10'000);
  CheckpointTreeKey b = MatrixTreeKey(10'000);
  EXPECT_EQ(TreeKeyString(a), TreeKeyString(b));
  EXPECT_EQ(CheckpointTreePath("d", a), CheckpointTreePath("d", b));

  b.sim_instrs = 200'000;
  EXPECT_NE(TreeKeyString(a), TreeKeyString(b));
  b = MatrixTreeKey(10'000);
  b.period = 10'000;
  EXPECT_NE(TreeKeyString(a), TreeKeyString(b));
  b = MatrixTreeKey(10'000);
  b.detail = 1'000;
  EXPECT_NE(TreeKeyString(a), TreeKeyString(b));
  b = MatrixTreeKey(10'000);
  b.warmup = 8'000;
  EXPECT_NE(TreeKeyString(a), TreeKeyString(b));
  // The flat warmup key is embedded: any of its fields moves the tree key.
  b = MatrixTreeKey(20'000);
  EXPECT_NE(TreeKeyString(a), TreeKeyString(b));
  // A tree never shares a path with its own flat warmup checkpoint.
  EXPECT_NE(CheckpointTreePath("d", a), CheckpointPath("d", a.base));
}

TEST(CheckpointTreeTest, SaveLoadRoundTripsTreeWithDeltaPages) {
  const std::string dir = TempDir("tree");
  const CheckpointTreeKey tk = MatrixTreeKey(10'000);
  const Program prog = MatrixProgram();

  CheckpointTree tree;
  FastForwardResult root = FastForward(prog, tk.base);
  ASSERT_FALSE(root.state.halted);
  tree.root = std::move(root.state);

  // A later point of the same execution doubles as an interval-start
  // snapshot: same program, more instructions, a strictly evolved image.
  CheckpointKey child_key = tk.base;
  child_key.ff_instrs = 30'000;
  const FastForwardResult child = FastForward(prog, child_key);
  ASSERT_FALSE(child.state.halted);
  tree.AddChild(child.state);
  tree.covered_instrs = 100'000;
  tree.halted = false;

  // The matrix kernel writes memory between 10k and 30k instructions, so
  // the delta encoding must carry pages — but fewer than the full image.
  ASSERT_EQ(tree.children.size(), 1u);
  EXPECT_FALSE(tree.children[0].delta_pages.empty());
  EXPECT_LT(tree.children[0].delta_pages.size(),
            child.state.mem.PageNumbers().size());

  std::string error;
  ASSERT_TRUE(SaveCheckpointTree(dir, tk, tree, &error)) << error;

  CheckpointTree loaded;
  ASSERT_TRUE(LoadCheckpointTree(dir, tk, &loaded, &error)) << error;
  EXPECT_EQ(loaded.covered_instrs, 100'000u);
  EXPECT_FALSE(loaded.halted);
  EXPECT_EQ(loaded.root.pc, tree.root.pc);
  EXPECT_EQ(loaded.root.warmed_instrs, tree.root.warmed_instrs);
  EXPECT_EQ(loaded.root.iregs, tree.root.iregs);
  EXPECT_EQ(loaded.root.l1d.tags, tree.root.l1d.tags);
  EXPECT_EQ(loaded.root.bpred.counters, tree.root.bpred.counters);

  ASSERT_EQ(loaded.children.size(), 1u);
  const WarmState mc = loaded.MaterializeChild(0);
  EXPECT_EQ(mc.pc, child.state.pc);
  EXPECT_EQ(mc.warmed_instrs, child.state.warmed_instrs);
  EXPECT_EQ(mc.iregs, child.state.iregs);
  EXPECT_EQ(mc.fregs, child.state.fregs);
  EXPECT_EQ(mc.l1d.stamp, child.state.l1d.stamp);
  EXPECT_EQ(mc.l1d.tags, child.state.l1d.tags);
  EXPECT_EQ(mc.l1d.lru, child.state.l1d.lru);
  EXPECT_EQ(mc.l2.tags, child.state.l2.tags);
  EXPECT_EQ(mc.bpred.counters, child.state.bpred.counters);
  EXPECT_EQ(mc.bpred.btb_pcs, child.state.bpred.btb_pcs);
  // The materialized image must reproduce every page of the snapshot —
  // both the delta-carried pages and the ones inherited from the root.
  for (const Addr pn : child.state.mem.PageNumbers()) {
    const std::uint8_t* want = child.state.mem.PageData(pn);
    const std::uint8_t* got = mc.mem.PageData(pn);
    ASSERT_NE(got, nullptr) << "page " << pn << " missing";
    EXPECT_EQ(std::memcmp(got, want, Memory::kPageSize), 0)
        << "page " << pn << " differs";
  }
}

TEST(CheckpointTreeTest, FlatReaderOnTreeFileNamesBothVersions) {
  const std::string dir = TempDir("vskew1");
  const CheckpointTreeKey tk = MatrixTreeKey(5'000);

  CheckpointTree tree;
  FastForwardResult ff = FastForward(MatrixProgram(), tk.base);
  tree.root = std::move(ff.state);
  ASSERT_TRUE(SaveCheckpointTree(dir, tk, tree));

  // Simulate a mis-shared cache directory: the v2 tree file sits where
  // the v1 flat reader looks. Still a miss for control flow, but the
  // diagnostic must name both versions and the right reader.
  std::filesystem::copy_file(CheckpointTreePath(dir, tk),
                             CheckpointPath(dir, tk.base));
  WarmState state;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(dir, tk.base, &state, &error));
  EXPECT_TRUE(IsCheckpointVersionMismatch(error)) << error;
  EXPECT_NE(error.find("SPCK format version 2"), std::string::npos) << error;
  EXPECT_NE(error.find("expects 1"), std::string::npos) << error;
  EXPECT_NE(error.find("LoadCheckpointTree"), std::string::npos) << error;
}

TEST(CheckpointTreeTest, TreeReaderOnFlatFileNamesBothVersions) {
  const std::string dir = TempDir("vskew2");
  const CheckpointTreeKey tk = MatrixTreeKey(5'000);

  const FastForwardResult ff = FastForward(MatrixProgram(), tk.base);
  ASSERT_TRUE(SaveCheckpoint(dir, tk.base, ff.state));

  std::filesystem::copy_file(CheckpointPath(dir, tk.base),
                             CheckpointTreePath(dir, tk));
  CheckpointTree tree;
  std::string error;
  EXPECT_FALSE(LoadCheckpointTree(dir, tk, &tree, &error));
  EXPECT_TRUE(IsCheckpointVersionMismatch(error)) << error;
  EXPECT_NE(error.find("SPCK format version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("expects 2"), std::string::npos) << error;
  EXPECT_NE(error.find("LoadCheckpoint"), std::string::npos) << error;

  // Ordinary corruption is NOT a version mismatch: the warning path must
  // stay silent for garbage files.
  {
    std::ofstream out(CheckpointTreePath(dir, tk), std::ios::binary);
    out << "not a checkpoint";
  }
  error.clear();
  EXPECT_FALSE(LoadCheckpointTree(dir, tk, &tree, &error));
  EXPECT_FALSE(IsCheckpointVersionMismatch(error)) << error;
}

// --- worker pool ---

TEST(ProcessPoolTest, TimeoutKillsAndRetriesWithBackoff) {
  const std::string marker = TempDir("pool") + "/attempts";
  PoolJob job;
  job.argv = {"/bin/sh", "-c", "echo x >> " + marker + "; sleep 30"};
  job.timeout_ms = 300;
  job.max_retries = 2;
  job.backoff_ms = 50;

  const std::vector<PoolResult> results = ProcessPool(2).Run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[0].timed_out);
  EXPECT_EQ(results[0].attempts, 3);

  // Every attempt actually started a child (the hang is real, not queued).
  std::ifstream in(marker);
  int lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 3);
}

TEST(ProcessPoolTest, RetryBackoffDelaysReattempts) {
  PoolJob job;
  job.argv = {"/bin/sh", "-c", "exit 1"};
  job.max_retries = 2;
  job.backoff_ms = 100;  // attempt 2 waits 100ms, attempt 3 waits 200ms

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<PoolResult> results = ProcessPool(1).Run({job});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].exit_code, 1);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_GE(elapsed, 250);  // 100 + 200 of backoff, minus scheduling slack
}

TEST(ProcessPoolTest, FailFastExitsAreNotRetried) {
  PoolJob job;
  job.argv = {"/bin/sh", "-c", "exit 3"};
  job.max_retries = 5;
  job.fail_fast_exits = {kExitUsage, kExitIncomplete};

  const std::vector<PoolResult> results = ProcessPool(1).Run({job});
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].exit_code, kExitIncomplete);
  EXPECT_EQ(results[0].attempts, 1);
}

TEST(ProcessPoolTest, CrashedWorkerFailsOnlyItsJob) {
  PoolJob crash;
  crash.argv = {"/bin/sh", "-c", "kill -9 $$"};
  PoolJob fine;
  fine.argv = {"/bin/sh", "-c", "exit 0"};

  const std::vector<PoolResult> results = ProcessPool(2).Run({crash, fine});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].exit_code, -1);
  EXPECT_EQ(results[0].term_signal, 9);
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(results[1].exit_code, 0);
}

TEST(ProcessPoolTest, StderrTailSurvivesFailThenSucceedRetry) {
  // Regression: the retry path must surface the *last* attempt's stderr.
  // Attempt 1 writes a scary message and fails; attempt 2 writes its own
  // message and succeeds — the result must carry attempt 2's stderr, not
  // the stale first-attempt one.
  const std::string marker = TempDir("stderr") + "/marker";
  PoolJob job;
  job.argv = {"/bin/sh", "-c",
              "if [ -e " + marker +
                  " ]; then echo second-attempt-stderr >&2; exit 0; "
                  "else touch " +
                  marker + "; echo first-attempt-stderr >&2; exit 1; fi"};
  job.max_retries = 1;
  job.stderr_tail_bytes = 4096;

  const std::vector<PoolResult> results = ProcessPool(1).Run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_NE(results[0].stderr_tail.find("second-attempt-stderr"),
            std::string::npos)
      << results[0].stderr_tail;
  EXPECT_EQ(results[0].stderr_tail.find("first-attempt-stderr"),
            std::string::npos)
      << results[0].stderr_tail;
}

TEST(ProcessPoolTest, StderrTailOfRepeatedFailureIsTheLastAttempts) {
  const std::string marker = TempDir("stderr2") + "/marker";
  PoolJob job;
  job.argv = {"/bin/sh", "-c",
              "if [ -e " + marker +
                  " ]; then echo final-failure >&2; exit 7; "
                  "else touch " +
                  marker + "; echo first-failure >&2; exit 1; fi"};
  job.max_retries = 1;
  job.stderr_tail_bytes = 4096;

  const std::vector<PoolResult> results = ProcessPool(1).Run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].exit_code, 7);
  EXPECT_NE(results[0].stderr_tail.find("final-failure"), std::string::npos);
  EXPECT_EQ(results[0].stderr_tail.find("first-failure"), std::string::npos);
}

TEST(ProcessPoolTest, StderrTailKeepsOnlyTheTrailingBytes) {
  PoolJob job;
  job.argv = {"/bin/sh", "-c",
              "i=0; while [ $i -lt 200 ]; do echo line$i >&2; "
              "i=$((i+1)); done; echo THE-END >&2; exit 1"};
  job.stderr_tail_bytes = 64;

  const std::vector<PoolResult> results = ProcessPool(1).Run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_LE(results[0].stderr_tail.size(), 64u);
  EXPECT_NE(results[0].stderr_tail.find("THE-END"), std::string::npos);
}

TEST(ProcessPoolTest, IncrementalSubmitPumpCollectsCompletions) {
  ProcessPool pool(2);
  PoolJob ok;
  ok.argv = {"/bin/sh", "-c", "exit 0"};
  PoolJob fail;
  fail.argv = {"/bin/sh", "-c", "exit 1"};
  const std::uint64_t t_ok = pool.Submit(ok);
  const std::uint64_t t_fail = pool.Submit(fail);
  ASSERT_NE(t_ok, t_fail);
  EXPECT_EQ(pool.outstanding(), 2u);

  std::map<std::uint64_t, PoolResult> done;
  for (int spin = 0; spin < 2000 && done.size() < 2; ++spin) {
    pool.Pump();
    for (auto& [ticket, result] : pool.TakeCompletions()) {
      done.emplace(ticket, std::move(result));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_TRUE(done.at(t_ok).ok);
  EXPECT_FALSE(done.at(t_fail).ok);
  EXPECT_EQ(done.at(t_fail).exit_code, 1);
}

TEST(ProcessPoolTest, CancelKillsRunningAndDropsQueued) {
  ProcessPool pool(1);
  PoolJob hang;
  hang.argv = {"/bin/sh", "-c", "sleep 30"};
  const std::uint64_t t_running = pool.Submit(hang);
  pool.Pump();  // launches the hang into the only slot
  const std::uint64_t t_queued = pool.Submit(hang);

  pool.Cancel(t_running);
  pool.Cancel(t_queued);
  std::map<std::uint64_t, PoolResult> done;
  for (int spin = 0; spin < 2000 && done.size() < 2; ++spin) {
    pool.Pump();
    for (auto& [ticket, result] : pool.TakeCompletions()) {
      done.emplace(ticket, std::move(result));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done.at(t_running).canceled);
  EXPECT_FALSE(done.at(t_running).ok);
  EXPECT_TRUE(done.at(t_queued).canceled);
}

// --- worker-row recovery (shared by spearrun and the spearfarm daemon) ---

TEST(RecoverWorkerRowTest, EmbedsWorkerRowVerbatimOrSynthesizesFailure) {
  Manifest m;
  std::string error;
  ASSERT_TRUE(ParseManifest(R"({
    "manifest_version": 1,
    "name": "t",
    "workloads": ["matrix"],
    "configs": [{"label": "base"}]
  })",
                            &m, &error))
      << error;
  const std::vector<JobSpec> jobs = ExpandJobs(m);

  // Verdict path: the worker's row is embedded byte-for-byte.
  const std::string job_out = TempDir("recover") + "/job0.json";
  {
    std::ofstream out(job_out);
    out << R"({"job": {"id": "matrix/base", "stats": {"cycles": 5}},)"
        << R"( "run": {"ckpt": "hit", "ms": 3}})" << "\n";
  }
  PoolResult ok;
  ok.ok = true;
  ok.exit_code = 0;
  const WorkerRow from_worker = RecoverWorkerRow(m, jobs[0], ok, job_out);
  EXPECT_TRUE(from_worker.from_worker);
  EXPECT_EQ(from_worker.ckpt, "hit");
  EXPECT_EQ(from_worker.row.FindPath("stats.cycles")->AsInt(), 5);

  // Timeout: canonical failure row carrying the last attempt's stderr.
  PoolResult timeout;
  timeout.timed_out = true;
  timeout.stderr_tail = "sim stuck at cycle 999";
  const WorkerRow timed = RecoverWorkerRow(m, jobs[0], timeout, "/no/file");
  EXPECT_FALSE(timed.from_worker);
  EXPECT_EQ(timed.row.Find("error")->AsString(), "timeout");
  EXPECT_EQ(timed.row.Find("stderr")->AsString(), "sim stuck at cycle 999");

  // Crash by signal, no stderr captured: no stderr member at all (the
  // deterministic row shape must not change with capture settings).
  PoolResult crash;
  crash.term_signal = 9;
  crash.exit_code = -1;
  const WorkerRow crashed = RecoverWorkerRow(m, jobs[0], crash, "/no/file");
  EXPECT_EQ(crashed.row.Find("error")->AsString(), "crashed (signal 9)");
  EXPECT_EQ(crashed.row.Find("stderr"), nullptr);

  // Cancellation.
  PoolResult canceled;
  canceled.canceled = true;
  const WorkerRow dropped = RecoverWorkerRow(m, jobs[0], canceled, "/no/file");
  EXPECT_EQ(dropped.row.Find("error")->AsString(), "canceled");
}

// --- manifest parsing ---

constexpr const char* kMinimalManifest = R"({
  "manifest_version": 1,
  "name": "t",
  "workloads": ["matrix", "mcf"],
  "configs": [{"label": "base"}, {"label": "spear", "spear": true}]
})";

TEST(ManifestTest, ParsesAndExpandsWorkloadMajor) {
  Manifest m;
  std::string error;
  ASSERT_TRUE(ParseManifest(kMinimalManifest, &m, &error)) << error;
  EXPECT_EQ(m.name, "t");
  const std::vector<JobSpec> jobs = ExpandJobs(m);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(JobId(m, jobs[0]), "matrix/base");
  EXPECT_EQ(JobId(m, jobs[1]), "matrix/spear");
  EXPECT_EQ(JobId(m, jobs[2]), "mcf/base");
  EXPECT_EQ(JobId(m, jobs[3]), "mcf/spear");
}

TEST(ManifestTest, RejectionDiagnosticsNameThePath) {
  Manifest m;
  std::string error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 9, "name": "t", "workloads": ["w"],
          "configs": [{"label": "a"}]})",
      &m, &error));
  EXPECT_NE(error.find("manifest_version"), std::string::npos) << error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": ["w"],
          "configs": [{"label": "a"}], "frobnicate": 1})",
      &m, &error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": ["w"],
          "configs": [{"label": "a"}, {"label": "b", "bpred_kind": "oracle"}]})",
      &m, &error));
  EXPECT_NE(error.find("configs[1].bpred_kind"), std::string::npos) << error;
  EXPECT_NE(error.find("oracle"), std::string::npos) << error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": ["w"],
          "configs": [{"label": "a"}, {"label": "a"}]})",
      &m, &error));
  EXPECT_NE(error.find("duplicate label 'a'"), std::string::npos) << error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": ["w"],
          "configs": [{"label": "a"}],
          "jobs": [{"workload": "w", "config": "nope"}]})",
      &m, &error));
  EXPECT_NE(error.find("jobs[0].config"), std::string::npos) << error;
  EXPECT_NE(error.find("nope"), std::string::npos) << error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": ["w"],
          "configs": [{"label": "a"}],
          "derived": [{"name": "d", "op": "median", "metric": "ipc",
                       "num": "a", "den": "a"}]})",
      &m, &error));
  EXPECT_NE(error.find("derived[0].op"), std::string::npos) << error;

  // Workload names are checked against the registry, after every
  // structural check: a matrix name and a mix-job name.
  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": ["mcf", "mfc"],
          "configs": [{"label": "a"}]})",
      &m, &error));
  EXPECT_NE(error.find("workloads[1]: unknown workload 'mfc'"),
            std::string::npos)
      << error;

  EXPECT_FALSE(ParseManifest(
      R"({"manifest_version": 1, "name": "t", "workloads": [],
          "configs": [{"label": "a"}],
          "jobs": [{"workload": "art", "config": "a"},
                   {"workloads": ["mcf", "atr"], "config": "a"}]})",
      &m, &error));
  EXPECT_NE(error.find("jobs[1].workloads[1]: unknown workload 'atr'"),
            std::string::npos)
      << error;
}

// Every committed experiment definition loads, declares at least one job
// and has a name of its own: documents are written to <out>/<name>.json,
// so two manifests sharing a name would overwrite each other's results.
TEST(ManifestTest, EveryCommittedManifestLoads) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SPEAR_MANIFEST_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no manifests under " << SPEAR_MANIFEST_DIR;

  std::map<std::string, std::string> file_of_name;
  for (const std::filesystem::path& path : files) {
    Manifest m;
    std::string error;
    if (!LoadManifestFile(path.string(), &m, &error)) {
      ADD_FAILURE() << error;
      continue;
    }
    EXPECT_FALSE(ExpandJobs(m).empty()) << path;
    const auto [it, fresh] =
        file_of_name.emplace(m.name, path.filename().string());
    EXPECT_TRUE(fresh) << path.filename() << " and " << it->second
                       << " both name '" << m.name << "'";
  }
}

TEST(ManifestTest, EmitParseIsAnIdentity) {
  Manifest m;
  m.name = "ident";
  m.defaults.sim_instrs = 1234;
  m.defaults.ff_instrs = 999;
  m.defaults.timeout_ms = 5000;
  m.workloads = {"matrix", "art"};
  ConfigSpec base;
  base.label = "base";
  ConfigSpec tuned;
  tuned.label = "tuned";
  tuned.spear = true;
  tuned.ifq = 256;
  tuned.separate_fu = true;
  tuned.mem_latency = 200;
  tuned.l2_latency = 20;
  tuned.bpred_kind = "gshare";
  tuned.bpred_entries = 16384;
  tuned.trigger_occupancy_div = 4;
  tuned.extract_per_cycle = 2;
  tuned.drain_policy = "drain_to_trigger";
  tuned.chaining_trigger = true;
  tuned.stride_prefetch = true;
  tuned.stride_degree = 3;
  tuned.dcycle_budget = 60.0;
  m.configs = {base, tuned};
  JobSpec hang;
  hang.workload = "matrix";
  hang.config = 0;
  hang.debug_hang = true;
  hang.timeout_ms = 1000;
  hang.max_retries = 0;
  m.extra_jobs = {hang};
  m.derived = {DerivedSpec{"spd", "mean_ratio", "ipc", "tuned", "base"}};

  const std::string a = ManifestToJson(m).Dump(2);
  Manifest m2;
  std::string error;
  ASSERT_TRUE(ParseManifest(a, &m2, &error)) << error;
  EXPECT_EQ(a, ManifestToJson(m2).Dump(2));
  EXPECT_EQ(ExpandJobs(m2).size(), 5u);
}

// --- in-process execution ---

TEST(RunnerTest, InProcessRunIsDeterministicAcrossCheckpointReuse) {
  Manifest m;
  std::string error;
  ASSERT_TRUE(ParseManifest(
      R"({"manifest_version": 1, "name": "smoke",
          "defaults": {"sim_instrs": 20000, "ff_instrs": 10000},
          "workloads": ["matrix"],
          "configs": [{"label": "base"}, {"label": "spear", "spear": true}],
          "derived": [{"name": "spd", "op": "mean_ratio", "metric": "ipc",
                       "num": "spear", "den": "base"}]})",
      &m, &error))
      << error;

  RunnerOptions opts;
  opts.ckpt_dir = TempDir("inproc");

  // First run warms live and saves checkpoints; the second restores them.
  // The deterministic document must not change either way.
  const ManifestRunResult cold = RunManifestInProcess(m, opts);
  EXPECT_EQ(cold.failed_jobs, 0);
  const ManifestRunResult warm = RunManifestInProcess(m, opts);
  EXPECT_EQ(warm.failed_jobs, 0);

  telemetry::JsonValue a = cold.document;
  telemetry::JsonValue b = warm.document;
  // Hit/miss tallies and wall times live in "run" and differ by design.
  // Both configs share one checkpoint (the key excludes the IFQ size and
  // binary flavor), so the cold run misses once and hits once.
  EXPECT_EQ(a.FindPath("run.stats.runner.ckpt.misses")->AsInt(), 1);
  EXPECT_EQ(a.FindPath("run.stats.runner.ckpt.hits")->AsInt(), 1);
  EXPECT_EQ(b.FindPath("run.stats.runner.ckpt.hits")->AsInt(), 2);
  a.Set("run", telemetry::JsonValue());
  b.Set("run", telemetry::JsonValue());
  EXPECT_EQ(a.Dump(2), b.Dump(2));

  const telemetry::JsonValue* spd = cold.document.FindPath("derived.spd");
  ASSERT_NE(spd, nullptr);
  EXPECT_GT(spd->AsDouble(), 0.0);
}

TEST(RunnerTest, DebugHangJobFailsDeterministicallyInProcess) {
  Manifest m;
  std::string error;
  ASSERT_TRUE(ParseManifest(
      R"({"manifest_version": 1, "name": "hang",
          "defaults": {"sim_instrs": 2000},
          "workloads": [],
          "configs": [{"label": "base"}],
          "jobs": [{"workload": "matrix", "config": "base",
                    "debug_hang": true}]})",
      &m, &error))
      << error;

  RunnerOptions opts;
  opts.use_ckpt = false;
  const ManifestRunResult result = RunManifestInProcess(m, opts);
  EXPECT_EQ(result.failed_jobs, 1);
  const telemetry::JsonValue* err = result.document.FindPath("jobs");
  ASSERT_NE(err, nullptr);
  ASSERT_EQ(err->items().size(), 1u);
  EXPECT_TRUE(err->items()[0].Find("failed")->AsBool());
  EXPECT_EQ(err->items()[0].Find("error")->AsString(), "debug_hang");
}

}  // namespace
}  // namespace spear::runner

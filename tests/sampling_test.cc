// Tests for the interval-sampling subsystem (src/sampling): the plan
// validator, the SMARTS population estimator (Student-t CIs, the
// monotone CPI -> IPC bound transform, the RunStats extrapolation), and
// the end-to-end property the ISSUE demands — a sampled manifest run is
// byte-identical modulo "run" whether its detailed intervals are warmed
// fresh or restored from an SPCK v2 checkpoint tree.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "cpu/config.h"
#include "isa/assembler.h"
#include "runner/manifest.h"
#include "runner/runner.h"
#include "sampling/sampled_run.h"
#include "sampling/sampling.h"
#include "sim/emulator.h"

namespace spear::sampling {
namespace {

std::string TempDir(const std::string& tag) {
  static int counter = 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("spear_sampling_test." + std::to_string(::getpid()) + "." + tag +
        "." + std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(path);
  return path;
}

// --- plan validation ---

TEST(SamplingPlanTest, ValidatesGeometry) {
  std::string why;
  SamplingPlan off;
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.Validate(&why)) << why;

  // Disabled plans must not smuggle in detail/warmup.
  off.detail = 100;
  EXPECT_FALSE(off.Validate(&why));

  SamplingPlan p;
  p.period = 10'000;
  p.detail = 1'000;
  p.warmup = 2'000;
  EXPECT_TRUE(p.enabled());
  EXPECT_TRUE(p.Validate(&why)) << why;

  // Enabled needs a measured window...
  p.detail = 0;
  EXPECT_FALSE(p.Validate(&why));
  // ...that fits in the period together with its warmup.
  p.detail = 9'000;
  EXPECT_FALSE(p.Validate(&why));
  EXPECT_NE(why.find("10000"), std::string::npos) << why;
}

// --- estimator math ---

TEST(EstimateTest, TQuantileTableAndAsymptote) {
  EXPECT_DOUBLE_EQ(TQuantile975(1), 12.706);
  EXPECT_DOUBLE_EQ(TQuantile975(4), 2.776);
  EXPECT_DOUBLE_EQ(TQuantile975(30), 2.042);
  EXPECT_DOUBLE_EQ(TQuantile975(35), 2.021);
  EXPECT_DOUBLE_EQ(TQuantile975(60), 2.000);
  EXPECT_DOUBLE_EQ(TQuantile975(100), 1.980);
  EXPECT_DOUBLE_EQ(TQuantile975(10'000), 1.960);
}

TEST(EstimateTest, Estimate95MatchesHandComputation) {
  // {1..5}: mean 3, sample variance 2.5, se = sqrt(2.5/5), t(4) = 2.776.
  const Estimate e = Estimate95({1, 2, 3, 4, 5});
  EXPECT_EQ(e.n, 5u);
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  EXPECT_DOUBLE_EQ(e.se, std::sqrt(0.5));
  EXPECT_DOUBLE_EQ(e.ci_lo, 3.0 - 2.776 * std::sqrt(0.5));
  EXPECT_DOUBLE_EQ(e.ci_hi, 3.0 + 2.776 * std::sqrt(0.5));

  // One sample: a point, not an interval.
  const Estimate one = Estimate95({7.0});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.se, 0.0);
  EXPECT_DOUBLE_EQ(one.ci_lo, 7.0);
  EXPECT_DOUBLE_EQ(one.ci_hi, 7.0);

  const Estimate none = Estimate95({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
}

// Regression: a single interval used to produce {mean, ci_lo == ci_hi ==
// mean} indistinguishable from a genuinely tight interval. The estimator
// now marks the degenerate case explicitly: ci_defined is true iff the
// variance estimator has at least one degree of freedom (n >= 2).
TEST(EstimateTest, Estimate95MarksDegenerateIntervals) {
  EXPECT_FALSE(Estimate95({}).ci_defined);
  EXPECT_FALSE(Estimate95({7.0}).ci_defined);
  EXPECT_TRUE(Estimate95({7.0, 7.0}).ci_defined);  // dof 1, even if se = 0
  EXPECT_TRUE(Estimate95({1, 2, 3, 4, 5}).ci_defined);
}

TEST(SummarizeTest, SingleIntervalRowCarriesDegenerateCiMarker) {
  SamplingPlan plan;
  plan.period = 10'000;
  plan.detail = 1'000;

  std::vector<IntervalSample> samples(1);
  samples[0].instrs = 1'000;
  samples[0].cycles = 3'000;

  const SampledStats s = Summarize(plan, samples, 10'000, false);
  EXPECT_FALSE(s.cpi.ci_defined);
  EXPECT_FALSE(s.ipc.ci_defined);  // inherits the CPI sample set's dof
  EXPECT_DOUBLE_EQ(s.cpi.ci_lo, s.cpi.mean);
  EXPECT_DOUBLE_EQ(s.cpi.ci_hi, s.cpi.mean);

  // The JSON marker is emitted only for the degenerate case...
  const telemetry::JsonValue row = SampledStatsToJson(s);
  const telemetry::JsonValue* marker = row.FindPath("sampling.cpi.ci_defined");
  ASSERT_NE(marker, nullptr);
  EXPECT_FALSE(marker->AsBool());
  ASSERT_NE(row.FindPath("sampling.ipc.ci_defined"), nullptr);

  // ...so well-formed multi-interval rows keep their exact shape.
  std::vector<IntervalSample> three(3);
  for (std::size_t i = 0; i < three.size(); ++i) {
    three[i].instrs = 1'000;
    three[i].cycles = 2'000 + 1'000 * i;
  }
  const SampledStats ok = Summarize(plan, three, 30'000, false);
  EXPECT_TRUE(ok.cpi.ci_defined);
  const telemetry::JsonValue okrow = SampledStatsToJson(ok);
  EXPECT_EQ(okrow.FindPath("sampling.cpi.ci_defined"), nullptr);
  EXPECT_EQ(okrow.FindPath("sampling.ipc.ci_defined"), nullptr);
}

TEST(SummarizeTest, IpcBoundsAreTransformedCpiBounds) {
  SamplingPlan plan;
  plan.period = 10'000;
  plan.detail = 1'000;
  plan.warmup = 1'000;

  // Three intervals with CPIs 2.0, 3.0 and 4.0: se = 1/sqrt(3), t(2) =
  // 4.303, so the CPI interval stays strictly positive and the monotone
  // transform applies.
  std::vector<IntervalSample> samples(3);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].instrs = 1'000;
    samples[i].cycles = 2'000 + 1'000 * i;
  }

  const SampledStats s = Summarize(plan, samples, 30'000, false);
  EXPECT_EQ(s.intervals, 3u);
  EXPECT_EQ(s.covered_instrs, 30'000u);
  EXPECT_EQ(s.sampled_instrs, 3'000u);
  EXPECT_DOUBLE_EQ(s.cpi.mean, 3.0);
  ASSERT_GT(s.cpi.ci_lo, 0.0);

  // IPC = 1/CPI is monotone decreasing, so the bounds swap sides.
  EXPECT_DOUBLE_EQ(s.ipc.mean, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.ipc.ci_lo, 1.0 / s.cpi.ci_hi);
  EXPECT_DOUBLE_EQ(s.ipc.ci_hi, 1.0 / s.cpi.ci_lo);
  // Delta-method SE: se(1/x) = se(x) / x^2.
  EXPECT_DOUBLE_EQ(s.ipc.se, s.cpi.se / (s.cpi.mean * s.cpi.mean));

  // The RunStats summary extrapolates onto the covered region: 30k
  // instructions at the window-aggregate CPI of 3.0.
  EXPECT_EQ(s.stats.instructions, 30'000u);
  EXPECT_EQ(s.stats.cycles, 90'000);
  EXPECT_TRUE(s.stats.complete);

  // The row JSON carries the estimates under "sampling".
  const telemetry::JsonValue row = SampledStatsToJson(s);
  ASSERT_NE(row.FindPath("sampling.ipc.ci_lo"), nullptr);
  EXPECT_DOUBLE_EQ(row.FindPath("sampling.cpi.mean")->AsDouble(), 3.0);
  EXPECT_EQ(row.FindPath("sampling.intervals")->AsInt(), 3);
}

TEST(SummarizeTest, DegenerateCpiIntervalFallsBackToSymmetricCi) {
  SamplingPlan plan;
  plan.period = 10'000;
  plan.detail = 1'000;

  // Two wildly different intervals: t(1) = 12.706 pushes the CPI lower
  // bound below zero, where 1/x is undefined. The IPC CI must still be a
  // well-formed interval around the mean, clamped at zero.
  std::vector<IntervalSample> samples(2);
  samples[0].instrs = 1'000;
  samples[0].cycles = 2'000;
  samples[1].instrs = 1'000;
  samples[1].cycles = 4'000;

  const SampledStats s = Summarize(plan, samples, 20'000, false);
  EXPECT_LT(s.cpi.ci_lo, 0.0);
  EXPECT_GE(s.ipc.ci_lo, 0.0);
  EXPECT_LE(s.ipc.ci_lo, s.ipc.mean);
  EXPECT_GE(s.ipc.ci_hi, s.ipc.mean);
}

TEST(SummarizeTest, PerInstructionRatesComeFromWindows) {
  SamplingPlan plan;
  plan.period = 5'000;
  plan.detail = 1'000;

  std::vector<IntervalSample> samples(2);
  samples[0].instrs = 1'000;
  samples[0].cycles = 1'000;
  samples[0].l1d_misses_main = 10;  // 10 per kinstr
  samples[0].committed_cond_branches = 100;
  samples[0].bpred_dir_correct = 90;
  samples[1].instrs = 1'000;
  samples[1].cycles = 1'000;
  samples[1].l1d_misses_main = 30;  // 30 per kinstr
  samples[1].committed_cond_branches = 100;
  samples[1].bpred_dir_correct = 80;

  const SampledStats s = Summarize(plan, samples, 10'000, false);
  EXPECT_DOUBLE_EQ(s.l1d_miss_per_kinstr.mean, 20.0);
  EXPECT_DOUBLE_EQ(s.branch_hit_ratio.mean, 0.85);
  // Extrapolated counts: 20 misses / kinstr over a 10k region = 200.
  EXPECT_EQ(s.stats.l1d_misses_main, 200u);
}

// --- fresh vs tree-restored byte identity ---

TEST(SampledRunnerTest, FreshAndTreeRestoredDocumentsMatchModuloRun) {
  runner::Manifest m;
  std::string error;
  ASSERT_TRUE(runner::ParseManifest(
      R"({"manifest_version": 1, "name": "sampled_smoke",
          "defaults": {"sim_instrs": 60000, "ff_instrs": 10000,
                       "sampling": {"period": 12000, "detail": 1500,
                                    "warmup": 2000}},
          "workloads": ["matrix", "mcf", "update"],
          "configs": [{"label": "base"},
                      {"label": "spear256", "spear": true, "ifq": 256}],
          "derived": [{"name": "spd", "op": "mean_ratio", "metric": "ipc",
                       "num": "spear256", "den": "base"}]})",
      &m, &error))
      << error;

  runner::RunnerOptions opts;
  opts.ckpt_dir = TempDir("sampled");

  // Cold builds the SPCK v2 trees, warm restores every interval from
  // them; the deterministic document must not notice.
  const runner::ManifestRunResult cold = runner::RunManifestInProcess(m, opts);
  EXPECT_EQ(cold.failed_jobs, 0);
  const runner::ManifestRunResult warm = runner::RunManifestInProcess(m, opts);
  EXPECT_EQ(warm.failed_jobs, 0);

  telemetry::JsonValue a = cold.document;
  telemetry::JsonValue b = warm.document;
  EXPECT_EQ(a.FindPath("run.stats.runner.ckpt.misses")->AsInt(), 3);
  EXPECT_GE(b.FindPath("run.stats.runner.ckpt.hits")->AsInt(), 3);
  a.Set("run", telemetry::JsonValue());
  b.Set("run", telemetry::JsonValue());
  EXPECT_EQ(a.Dump(2), b.Dump(2));

  // Every row is a sampled row: the manifest echo and each job's stats
  // carry the sampling members, and the derived metric still evaluates.
  ASSERT_NE(cold.document.FindPath("defaults.sampling.period"), nullptr);
  const telemetry::JsonValue* jobs = cold.document.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  for (const telemetry::JsonValue& row : jobs->items()) {
    const telemetry::JsonValue* n = row.FindPath("stats.sampling.intervals");
    ASSERT_NE(n, nullptr);
    EXPECT_GT(n->AsInt(), 0);
    EXPECT_TRUE(row.FindPath("stats.complete")->AsBool());
  }
  EXPECT_GT(cold.document.FindPath("derived.spd")->AsDouble(), 0.0);
}

// --- coverage when the PC leaves the text section ---

TEST(SampledRunnerTest, FaultingRegionCountsOnlyExecutedInstructions) {
  // A 5000-iteration loop, then a jump to an address outside the text:
  // 1 + 2*5000 + 2 instructions execute before the wild fetch.
  Program prog;
  Assembler a(&prog);
  const Label loop = a.NewLabel();
  a.li(r(1), 5000);
  a.Bind(loop);
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), loop);
  a.li(r(2), 0x00deadb8);  // not a text PC
  a.jr(r(2));
  a.halt();  // never reached
  a.Finish();

  Emulator ref(prog);
  ref.Run(1'000'000);
  ASSERT_TRUE(ref.faulted());
  ASSERT_EQ(ref.icount(), 10'003u);

  constexpr std::uint64_t kFf = 100;
  EvalOptions options;
  options.sim_instrs = 1'000'000;  // far beyond the program's end
  SamplingPlan plan;
  plan.period = 2'000;
  plan.detail = 500;
  plan.warmup = 500;
  const SampledStats ss =
      RunSampled(prog, prog, BaselineConfig(), options, plan, kFf);

  // The fetch that finds the wild PC executes nothing, so it is not
  // covered: 9903 region instructions, not 9904.
  EXPECT_EQ(ss.covered_instrs, ref.icount() - kFf);
  EXPECT_EQ(ss.stats.instructions, ss.covered_instrs);
  EXPECT_FALSE(ss.stats.complete);
  EXPECT_FALSE(ss.stats.halted);
  EXPECT_GT(ss.intervals, 0u);
}

}  // namespace
}  // namespace spear::sampling

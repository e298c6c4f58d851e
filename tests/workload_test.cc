// Workload-suite tests: every kernel builds deterministically, runs, and
// (the strongest property in the repository) commits exactly the
// emulator's instruction stream on the pipeline — both baseline and
// SPEAR-annotated.
#include <gtest/gtest.h>

#include <string>

#include "cpu/core.h"
#include "eval/harness.h"
#include "sim/emulator.h"
#include "workloads/workload.h"

namespace spear {
namespace {

class EveryWorkload : public testing::TestWithParam<const char*> {};

TEST_P(EveryWorkload, BuildsNonTrivialProgram) {
  WorkloadConfig cfg;
  const Program prog = BuildWorkloadProgram(GetParam(), cfg);
  EXPECT_GT(prog.text.size(), 10u);
  EXPECT_FALSE(prog.data.empty());
  EXPECT_TRUE(prog.ContainsPc(prog.entry));
  EXPECT_TRUE(prog.pthreads.empty());  // annotations come from the compiler
}

TEST_P(EveryWorkload, DeterministicForSeed) {
  WorkloadConfig cfg;
  cfg.seed = 7;
  const Program a = BuildWorkloadProgram(GetParam(), cfg);
  const Program b = BuildWorkloadProgram(GetParam(), cfg);
  ASSERT_EQ(a.text.size(), b.text.size());
  for (std::size_t i = 0; i < a.text.size(); ++i) EXPECT_EQ(a.text[i], b.text[i]);
  ASSERT_EQ(a.data.size(), b.data.size());
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_EQ(a.data[i].bytes, b.data[i].bytes);
  }
}

TEST_P(EveryWorkload, SeedChangesDataNotText) {
  WorkloadConfig s1, s2;
  s1.seed = 1;
  s2.seed = 2;
  const Program a = BuildWorkloadProgram(GetParam(), s1);
  const Program b = BuildWorkloadProgram(GetParam(), s2);
  ASSERT_EQ(a.text.size(), b.text.size());
  for (std::size_t i = 0; i < a.text.size(); ++i) {
    EXPECT_EQ(a.text[i], b.text[i]) << "text must be seed-independent";
  }
  bool any_data_differs = false;
  for (std::size_t i = 0; i < a.data.size() && !any_data_differs; ++i) {
    any_data_differs = a.data[i].bytes != b.data[i].bytes;
  }
  EXPECT_TRUE(any_data_differs);
}

TEST_P(EveryWorkload, RunsOnEmulator) {
  WorkloadConfig cfg;
  const Program prog = BuildWorkloadProgram(GetParam(), cfg);
  Emulator emu(prog);
  const std::uint64_t executed = emu.Run(200'000);
  // Either ran the full budget or halted cleanly before it.
  EXPECT_TRUE(executed == 200'000 || emu.halted());
  EXPECT_GT(executed, 10'000u) << "kernel too short to evaluate";
}

TEST_P(EveryWorkload, PipelineMatchesEmulatorPrefix) {
  WorkloadConfig cfg;
  const Program prog = BuildWorkloadProgram(GetParam(), cfg);
  constexpr std::uint64_t kPrefix = 30'000;

  Emulator emu(prog);
  std::vector<Pc> oracle;
  oracle.reserve(kPrefix);
  while (!emu.halted() && oracle.size() < kPrefix) {
    oracle.push_back(emu.pc());
    emu.Step();
  }

  Core core(prog, BaselineConfig(128));
  core.set_trace_commits(true);
  core.Run(oracle.size(), 50'000'000);
  ASSERT_GE(core.commit_trace().size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(core.commit_trace()[i], oracle[i])
        << GetParam() << " diverged at instruction " << i;
  }
}

TEST_P(EveryWorkload, SpearAnnotatedRunStaysExact) {
  EvalOptions opt;
  opt.sim_instrs = 30'000;
  opt.compiler.profiler.max_instrs = 300'000;
  const PreparedWorkload pw = PrepareWorkload(GetParam(), opt);

  Emulator emu(pw.plain);
  std::vector<Pc> oracle;
  while (!emu.halted() && oracle.size() < opt.sim_instrs) {
    oracle.push_back(emu.pc());
    emu.Step();
  }

  Core core(pw.annotated, SpearCoreConfig(128));
  core.set_trace_commits(true);
  core.Run(oracle.size(), 50'000'000);
  ASSERT_GE(core.commit_trace().size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(core.commit_trace()[i], oracle[i])
        << GetParam() << " diverged at instruction " << i;
  }
}

TEST_P(EveryWorkload, CompilerFindsDelinquentLoads) {
  EvalOptions opt;
  opt.compiler.profiler.max_instrs = 400'000;
  const PreparedWorkload pw = PrepareWorkload(GetParam(), opt);
  // Every kernel in the suite is memory-intensive enough for at least one
  // p-thread (field's scan is the lightest but still crosses the L2).
  EXPECT_FALSE(pw.annotated.pthreads.empty()) << GetParam();
  for (const PThreadSpec& spec : pw.annotated.pthreads) {
    EXPECT_FALSE(spec.slice_pcs.empty());
    EXPECT_TRUE(spec.InSlice(spec.dload_pc));
    EXPECT_TRUE(std::is_sorted(spec.slice_pcs.begin(), spec.slice_pcs.end()));
    for (Pc pc : spec.slice_pcs) {
      EXPECT_TRUE(pw.annotated.ContainsPc(pc));
      EXPECT_FALSE(IsControl(pw.annotated.At(pc).op));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkload,
    testing::Values("pointer", "update", "nbh", "tr", "matrix", "field", "dm",
                    "ray", "fft", "gzip", "mcf", "vpr", "bzip2", "equake",
                    "art"),
    [](const testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(Registry, FifteenWorkloadsInFourSuites) {
  const auto& all = AllWorkloads();
  EXPECT_EQ(all.size(), 15u);
  int stress = 0, dis = 0, cint = 0, cfp = 0;
  for (const WorkloadInfo& w : all) {
    const std::string suite = w.suite;
    stress += suite == "Stressmark";
    dis += suite == "DIS";
    cint += suite == "SPEC CINT2000";
    cfp += suite == "SPEC CFP2000";
  }
  EXPECT_EQ(stress, 6);
  EXPECT_EQ(dis, 3);
  EXPECT_EQ(cint, 4);
  EXPECT_EQ(cfp, 2);
}

// The generators place segments at fixed bases sized for scale 1, so a
// later segment starts overwriting an earlier one at large scales: dm
// from scale 27, mcf and art from 35, matrix from 44, equake from 78
// (EXPERIMENTS.md). 26 is the largest scale at which every kernel's
// image is still what its generator wrote.
TEST(Registry, ScaledSegmentsAreDisjoint) {
  for (const int scale : {1, 26}) {
    for (const WorkloadInfo& w : AllWorkloads()) {
      WorkloadConfig cfg;
      cfg.scale = scale;
      EXPECT_TRUE(OverlappingSegments(w.build(cfg)).empty())
          << w.name << " at scale " << scale;
    }
  }
}

TEST(Registry, FindWorkloadReturnsMatch) {
  EXPECT_STREQ(FindWorkload("mcf").name, "mcf");
  EXPECT_STREQ(FindWorkload("art").suite, "SPEC CFP2000");
}

}  // namespace
}  // namespace spear

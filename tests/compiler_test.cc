// SPEAR post-compiler tests: CFG construction, dominator/loop analysis,
// profiling, hybrid slicing and the end-to-end compile-then-simulate flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/cfg.h"
#include "analysis/loops.h"
#include "compiler/profiler.h"
#include "compiler/slicer.h"
#include "compiler/spear_compiler.h"
#include "cpu/core.h"
#include "isa/assembler.h"
#include "sim/emulator.h"
#include "test_programs.h"
#include "workloads/workload.h"

namespace spear {
namespace {

using testprog::BuildGather;
using testprog::GatherProgram;

// ---- CFG ----

TEST(Cfg, SingleLoopShape) {
  Program prog;
  Assembler a(&prog);
  Label loop = a.NewLabel();
  a.li(r(1), 10);        // B0
  a.Bind(loop);          // B1 (loop body)
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), loop);
  a.halt();              // B2
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  ASSERT_EQ(cfg.num_blocks(), 3);
  EXPECT_EQ(cfg.entry_block(), 0);
  // B0 -> B1; B1 -> {B1, B2}; B2 -> {}.
  EXPECT_EQ(cfg.block(0).succs, (std::vector<int>{1}));
  EXPECT_EQ(cfg.block(1).succs, (std::vector<int>{1, 2}));
  EXPECT_TRUE(cfg.block(2).succs.empty());
  EXPECT_EQ(cfg.BlockOfPc(prog.PcOf(1)), 1);
  EXPECT_EQ(cfg.BlockOfPc(prog.PcOf(3)), 2);
}

TEST(Cfg, DiamondShape) {
  Program prog;
  Assembler a(&prog);
  Label els = a.NewLabel(), join = a.NewLabel();
  a.beq(r(1), r(0), els);  // B0
  a.li(r(2), 1);           // B1 (then)
  a.j(join);
  a.Bind(els);
  a.li(r(2), 2);           // B2 (else)
  a.Bind(join);
  a.halt();                // B3
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  ASSERT_EQ(cfg.num_blocks(), 4);
  EXPECT_EQ(cfg.block(0).succs, (std::vector<int>{1, 2}));
  EXPECT_EQ(cfg.block(1).succs, (std::vector<int>{3}));
  EXPECT_EQ(cfg.block(2).succs, (std::vector<int>{3}));
  EXPECT_EQ(cfg.block(3).preds, (std::vector<int>{1, 2}));
}

TEST(Cfg, CallsAreIntraproceduralFallthrough) {
  Program prog;
  Assembler a(&prog);
  Label fn = a.NewLabel(), done = a.NewLabel();
  a.jal(fn);   // B0, has_call, falls through to B1
  a.j(done);   // B1
  a.Bind(fn);
  a.ret();     // B2 (no intra-CFG successors)
  a.Bind(done);
  a.halt();    // B3
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  ASSERT_EQ(cfg.num_blocks(), 4);
  EXPECT_TRUE(cfg.block(0).has_call);
  EXPECT_EQ(cfg.block(0).succs, (std::vector<int>{1}));  // not to the callee
  EXPECT_TRUE(cfg.block(2).succs.empty());               // return
}

// ---- loops & dominators ----

Program NestedLoopProgram(Pc* inner_dload = nullptr) {
  // for i in 100: for j in 50: r5 += mem[r4]; r4 += 64
  // The pointer r4 carries across outer iterations, so the walk touches
  // 320 KiB of fresh memory (> L2) and the load misses throughout.
  Program prog;
  prog.AddSegment(0x200000, 1 << 22);
  Assembler a(&prog);
  Label outer = a.NewLabel(), inner = a.NewLabel();
  a.li(r(1), 100);
  a.la(r(4), 0x200000);
  a.Bind(outer);
  a.li(r(2), 50);
  a.Bind(inner);
  const Pc dload = a.Here();
  a.lw(r(3), r(4), 0);
  a.add(r(5), r(5), r(3));
  a.addi(r(4), r(4), 64);
  a.addi(r(2), r(2), -1);
  a.bne(r(2), r(0), inner);
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), outer);
  a.halt();
  a.Finish();
  if (inner_dload) *inner_dload = dload;
  return prog;
}

TEST(Loops, DetectsNestingAndDepth) {
  const Program prog = NestedLoopProgram();
  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  ASSERT_EQ(lf.num_loops(), 2);

  const Loop* inner = nullptr;
  const Loop* outer = nullptr;
  for (const Loop& l : lf.loops()) {
    if (l.depth == 2) inner = &l;
    if (l.depth == 1) outer = &l;
  }
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->parent, -1);
  EXPECT_LT(inner->blocks.size(), outer->blocks.size());
  // Every inner block is inside the outer loop.
  for (int b : inner->blocks) EXPECT_TRUE(outer->Contains(b));
}

TEST(Loops, InnermostAtResolvesToDeepestLoop) {
  Pc dload;
  const Program prog = NestedLoopProgram(&dload);
  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const int at = lf.InnermostAt(cfg.BlockOfPc(dload));
  ASSERT_NE(at, -1);
  EXPECT_EQ(lf.loop(at).depth, 2);
}

TEST(Loops, DominatorsOnDiamond) {
  Program prog;
  Assembler a(&prog);
  Label els = a.NewLabel(), join = a.NewLabel();
  a.beq(r(1), r(0), els);
  a.li(r(2), 1);
  a.j(join);
  a.Bind(els);
  a.li(r(2), 2);
  a.Bind(join);
  a.halt();
  a.Finish();
  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  EXPECT_TRUE(lf.Dominates(0, 1));
  EXPECT_TRUE(lf.Dominates(0, 3));
  EXPECT_FALSE(lf.Dominates(1, 3));  // join reachable around the then-arm
  EXPECT_FALSE(lf.Dominates(2, 3));
  EXPECT_EQ(lf.num_loops(), 0);
}

TEST(Loops, LoopWithCallIsFlagged) {
  Program prog;
  Assembler a(&prog);
  Label loop = a.NewLabel(), fn = a.NewLabel(), start = a.NewLabel();
  a.j(start);
  a.Bind(fn);
  a.ret();
  a.Bind(start);
  a.li(r(1), 10);
  a.Bind(loop);
  a.jal(fn);
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), loop);
  a.halt();
  a.Finish();
  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  ASSERT_EQ(lf.num_loops(), 1);
  EXPECT_TRUE(lf.loops()[0].contains_call);
}

// ---- profiler ----

TEST(Profiler, CountsMissesPerStaticLoad) {
  const GatherProgram g = BuildGather(/*iterations=*/5000,
                                      /*table_words=*/1 << 20);
  const Cfg cfg = Cfg::Build(g.prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(g.prog, cfg, lf, ProfilerOptions{});

  ASSERT_TRUE(prof.loads.count(g.dload_pc));
  const LoadProfile& dl = prof.loads.at(g.dload_pc);
  EXPECT_EQ(dl.execs, 5000u);
  // Random accesses into a 4 MiB table: the vast majority miss.
  EXPECT_GT(dl.l1_misses, 4000u);
  // The spine load is sequential: few misses.
  const Pc spine_pc = g.spec.slice_pcs.front();
  ASSERT_TRUE(prof.loads.count(spine_pc));
  EXPECT_LT(prof.loads.at(spine_pc).l1_misses * 5,
            prof.loads.at(spine_pc).execs);
}

TEST(Profiler, SliceVotesCoverTheAddressChain) {
  const GatherProgram g = BuildGather(/*iterations=*/5000,
                                      /*table_words=*/1 << 20);
  const Cfg cfg = Cfg::Build(g.prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(g.prog, cfg, lf, ProfilerOptions{});

  ASSERT_TRUE(prof.slice_votes.count(g.dload_pc));
  const auto& votes = prof.slice_votes.at(g.dload_pc);
  const std::uint64_t misses = prof.loads.at(g.dload_pc).l1_misses;
  // Every hand-identified slice member must be voted on nearly every miss.
  for (Pc member : g.spec.slice_pcs) {
    ASSERT_TRUE(votes.count(member)) << "missing votes for 0x" << std::hex
                                     << member;
    EXPECT_GT(votes.at(member), misses / 2) << "0x" << std::hex << member;
  }
}

TEST(Profiler, LoopDCyclesArePositiveAndOrdered) {
  const Program prog = NestedLoopProgram();
  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(prog, cfg, lf, ProfilerOptions{});
  ASSERT_EQ(prof.loops.size(), 2u);
  double inner_dc = 0, outer_dc = 0;
  for (const Loop& l : lf.loops()) {
    const double dc = prof.loops[static_cast<std::size_t>(l.id)].DCycle();
    if (l.depth == 2) inner_dc = dc;
    if (l.depth == 1) outer_dc = dc;
  }
  EXPECT_GT(inner_dc, 0.0);
  // One outer iteration contains 50 inner iterations: its d-cycle dwarfs
  // the inner one.
  EXPECT_GT(outer_dc, inner_dc * 20);
}

TEST(Profiler, RespectsInstructionBudget) {
  const GatherProgram g = BuildGather(100000, 1 << 20);
  const Cfg cfg = Cfg::Build(g.prog);
  const LoopForest lf = LoopForest::Build(cfg);
  ProfilerOptions opt;
  opt.max_instrs = 10'000;
  const ProfileResult prof = ProfileProgram(g.prog, cfg, lf, opt);
  EXPECT_EQ(prof.instrs, 10'000u);
}

TEST(Profiler, WildJumpProfilesOnlyExecutedInstructions) {
  // Ten iterations of a loop with one load, then a jr to a PC outside the
  // text: the faulting fetch executes nothing and is not counted.
  Program prog;
  prog.AddSegment(0x200000, 4096);
  Assembler a(&prog);
  Label loop = a.NewLabel();
  a.li(r(1), 10);
  a.la(r(3), 0x200000);
  a.Bind(loop);
  const Pc load_pc = a.Here();
  a.lw(r(2), r(3), 0);
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), loop);
  a.li(r(4), 0x10);
  a.jr(r(4));
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(prog, cfg, lf, ProfilerOptions{});
  EXPECT_EQ(prof.instrs, 2u + 10u * 3u + 2u);
  Emulator emu(prog);
  EXPECT_EQ(emu.Run(1'000'000), prof.instrs);
  EXPECT_TRUE(emu.faulted());

  ASSERT_EQ(prof.loads.size(), 1u);
  EXPECT_EQ(prof.loads.at(load_pc).execs, 10u);
  ASSERT_EQ(prof.loops.size(), 1u);
  EXPECT_EQ(prof.loops[0].header_visits, 10u);
}

TEST(Profiler, HaltUnderBudgetIsCounted) {
  Program prog;
  Assembler a(&prog);
  Label loop = a.NewLabel();
  a.li(r(1), 5);
  a.Bind(loop);
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), loop);
  a.halt();
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  ProfilerOptions opt;
  const std::uint64_t whole = 1 + 2 * 5 + 1;  // the HALT included
  for (const std::uint64_t budget : {std::uint64_t{1000}, whole, whole - 1}) {
    opt.max_instrs = budget;
    EXPECT_EQ(ProfileProgram(prog, cfg, lf, opt).instrs,
              std::min(budget, whole))
        << "budget " << budget;
  }
}

TEST(Profiler, UnitWindowVotesOnlyForTheMissingLoad) {
  const GatherProgram g = BuildGather(/*iterations=*/5000,
                                      /*table_words=*/1 << 20);
  const Cfg cfg = Cfg::Build(g.prog);
  const LoopForest lf = LoopForest::Build(cfg);
  ProfilerOptions opt;
  opt.window = 1;
  const ProfileResult prof = ProfileProgram(g.prog, cfg, lf, opt);

  ASSERT_TRUE(prof.slice_votes.count(g.dload_pc));
  for (const auto& [pc, lp] : prof.loads) {
    if (lp.l1_misses == 0) {
      EXPECT_EQ(prof.slice_votes.count(pc), 0u) << "0x" << std::hex << pc;
      continue;
    }
    ASSERT_TRUE(prof.slice_votes.count(pc)) << "0x" << std::hex << pc;
    const auto& votes = prof.slice_votes.at(pc);
    ASSERT_EQ(votes.size(), 1u) << "0x" << std::hex << pc;
    EXPECT_EQ(votes.at(pc), lp.l1_misses) << "0x" << std::hex << pc;
  }
}

// ---- profiler golden dump ----

// Everything a ProfileResult holds, one fact per line, loop costs as exact
// hex floats: unlike the stats goldens, this sees votes below the slicer's
// inclusion share and the low bits of every d-cycle.
std::string DumpProfile(const std::string& label, const ProfileResult& p) {
  std::ostringstream out;
  char buf[96];
  out << "profile " << label << "\n";
  out << "instrs " << p.instrs << " total_l1_misses " << p.total_l1_misses
      << "\n";
  for (const auto& [pc, lp] : p.loads) {
    std::snprintf(buf, sizeof(buf), "load 0x%x execs %llu l1_misses %llu\n",
                  pc, static_cast<unsigned long long>(lp.execs),
                  static_cast<unsigned long long>(lp.l1_misses));
    out << buf;
  }
  for (const auto& [dload, members] : p.slice_votes) {
    std::snprintf(buf, sizeof(buf), "votes 0x%x:", dload);
    out << buf;
    for (const auto& [pc, votes] : members) {
      std::snprintf(buf, sizeof(buf), " 0x%x=%llu", pc,
                    static_cast<unsigned long long>(votes));
      out << buf;
    }
    out << "\n";
  }
  for (const LoopProfile& l : p.loops) {
    std::snprintf(buf, sizeof(buf), "loop %d header_visits %llu total_cost %a\n",
                  l.loop_id, static_cast<unsigned long long>(l.header_visits),
                  l.total_cost);
    out << buf;
  }
  return out.str();
}

// The 15 kernels at the harness's profile seed with default options over
// a 500k budget, plus three runs at the edges of the window and memory-
// dependence options.
std::string ProfileGoldenDump() {
  std::string out;
  auto profile = [&out](const std::string& name, std::uint32_t window,
                        bool memory_deps) {
    WorkloadConfig wc;
    wc.seed = 20040426;
    const Program prog = BuildWorkloadProgram(name, wc);
    const Cfg cfg = Cfg::Build(prog);
    const LoopForest lf = LoopForest::Build(cfg);
    ProfilerOptions opt;
    opt.max_instrs = 500'000;
    opt.window = window;
    opt.memory_deps = memory_deps;
    out += DumpProfile(name + " window " + std::to_string(window) +
                           " memory_deps " + (memory_deps ? "1" : "0"),
                       ProfileProgram(prog, cfg, lf, opt));
  };
  for (const WorkloadInfo& w : AllWorkloads()) profile(w.name, 512, true);
  profile("gzip", 100, true);
  profile("mcf", 1, true);
  profile("art", 512, false);
  return out;
}

TEST(ProfilerGolden, MatchesCommittedDump) {
  std::ifstream in(SPEAR_PROFILE_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << SPEAR_PROFILE_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string actual = ProfileGoldenDump();
  if (actual == golden.str()) return;

  // A deliberate profiler change regenerates the golden by copying this
  // file over it (and says so in CHANGES.md).
  std::ofstream("profile15.actual.txt", std::ios::binary) << actual;
  std::istringstream want(golden.str()), got(actual);
  std::string w, g;
  for (int line = 1;; ++line) {
    const bool has_w = static_cast<bool>(std::getline(want, w));
    const bool has_g = static_cast<bool>(std::getline(got, g));
    if (has_w && has_g && w == g) continue;
    FAIL() << SPEAR_PROFILE_GOLDEN << " differs at line " << line
           << "\n  golden: " << (has_w ? w : "<end of file>")
           << "\n  actual: " << (has_g ? g : "<end of file>")
           << "\n(full dump written to profile15.actual.txt)";
  }
}

// ---- slicer ----

TEST(Slicer, RecoversTheHandWrittenSlice) {
  const GatherProgram g = BuildGather(/*iterations=*/8000,
                                      /*table_words=*/1 << 20,
                                      /*seed=*/42, /*attach_spec=*/false);
  const Cfg cfg = Cfg::Build(g.prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(g.prog, cfg, lf, ProfilerOptions{});
  const SliceResult sr = BuildSlices(g.prog, cfg, lf, prof, SlicerOptions{});

  ASSERT_EQ(sr.specs.size(), 1u);
  const PThreadSpec& spec = sr.specs[0];
  EXPECT_EQ(spec.dload_pc, g.dload_pc);
  EXPECT_EQ(spec.slice_pcs, g.spec.slice_pcs);
  EXPECT_EQ(spec.live_ins, g.spec.live_ins);
  EXPECT_TRUE(std::is_sorted(spec.slice_pcs.begin(), spec.slice_pcs.end()));
}

TEST(Slicer, ThresholdSuppressesColdLoads) {
  // L1-resident data: no load reaches the miss threshold.
  const GatherProgram g = BuildGather(2000, 256, 42, /*attach_spec=*/false);
  const Cfg cfg = Cfg::Build(g.prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(g.prog, cfg, lf, ProfilerOptions{});
  const SliceResult sr = BuildSlices(g.prog, cfg, lf, prof, SlicerOptions{});
  EXPECT_TRUE(sr.specs.empty());
}

TEST(Slicer, MaxDloadsKeepsHeaviest) {
  // Two independent d-loads in one loop; cap at 1 keeps the heavier one.
  Program prog;
  prog.AddSegment(0x03000000, 1 << 22);
  prog.AddSegment(0x04000000, 1 << 22);
  Rng rng(3);
  Assembler a(&prog);
  Label loop = a.NewLabel(), skip = a.NewLabel();
  a.li(r(2), 20000);
  a.li(r(7), 12345);
  a.Bind(loop);
  // Pseudo-random index chain (xorshift-ish).
  a.slli(r(8), r(7), 13);
  a.xor_(r(7), r(7), r(8));
  a.srli(r(8), r(7), 17);
  a.xor_(r(7), r(7), r(8));
  a.slli(r(8), r(7), 5);
  a.xor_(r(7), r(7), r(8));
  a.andi(r(9), r(7), (1 << 20) - 4);
  a.la(r(10), 0x03000000);
  a.add(r(10), r(10), r(9));
  a.lw(r(3), r(10), 0);  // d-load A: every iteration
  a.andi(r(11), r(2), 3);
  a.bne(r(11), r(0), skip);
  a.la(r(12), 0x04000000);
  a.add(r(12), r(12), r(9));
  a.lw(r(4), r(12), 0);  // d-load B: every 4th iteration
  a.Bind(skip);
  a.addi(r(2), r(2), -1);
  a.bne(r(2), r(0), loop);
  a.halt();
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(prog, cfg, lf, ProfilerOptions{});
  SlicerOptions opt;
  opt.max_dloads = 1;
  const SliceResult sr = BuildSlices(prog, cfg, lf, prof, opt);
  ASSERT_EQ(sr.specs.size(), 1u);
  // The kept d-load is the one that misses ~4x more often (d-load A).
  std::uint64_t best_misses = 0;
  for (const auto& [pc, lp] : prof.loads) best_misses = std::max(best_misses, lp.l1_misses);
  EXPECT_EQ(sr.specs[0].profile_misses, best_misses);
}

TEST(Slicer, RegionGrowsThroughCheapInnerLoop) {
  // Inner loop with a tiny d-cycle: region should grow to the outer loop.
  Pc dload;
  const Program prog = NestedLoopProgram(&dload);
  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  const ProfileResult prof = ProfileProgram(prog, cfg, lf, ProfilerOptions{});
  SlicerOptions opt;
  opt.miss_threshold = 100;
  opt.dcycle_budget = 1e9;  // unlimited: growth must reach the outer loop
  const SliceResult srs = BuildSlices(prog, cfg, lf, prof, opt);
  ASSERT_FALSE(srs.reports.empty());
  EXPECT_EQ(srs.reports[0].region_depth, 2);

  opt.dcycle_budget = 1.0;  // no budget: stay in the innermost loop
  const SliceResult srt = BuildSlices(prog, cfg, lf, prof, opt);
  ASSERT_FALSE(srt.reports.empty());
  EXPECT_EQ(srt.reports[0].region_depth, 1);
}

// ---- end-to-end ----

TEST(CompileSpear, CompiledBinarySpeedsUpAndStaysExact) {
  const GatherProgram g = BuildGather(/*iterations=*/20000,
                                      /*table_words=*/1 << 20,
                                      /*seed=*/42, /*attach_spec=*/false);
  // Paper methodology: profile with a different input set.
  const GatherProgram profile_input =
      BuildGather(20000, 1 << 20, /*seed=*/1234, /*attach_spec=*/false);

  CompileReport report;
  const Program spear_bin =
      CompileSpear(profile_input.prog, g.prog, CompilerOptions{}, &report);
  ASSERT_FALSE(spear_bin.pthreads.empty());
  EXPECT_GT(report.profiled_l1_misses, 0u);
  EXPECT_GT(report.num_loops, 0);

  Emulator emu(g.prog);
  emu.Run(10'000'000);
  ASSERT_TRUE(emu.halted());

  Core base(g.prog, BaselineConfig(256));
  const RunResult rb = base.Run(UINT64_MAX, 100'000'000);
  Core sp(spear_bin, SpearCoreConfig(256));
  const RunResult rs = sp.Run(UINT64_MAX, 100'000'000);
  ASSERT_TRUE(rb.halted && rs.halted);
  EXPECT_EQ(sp.outputs(), emu.outputs());
  EXPECT_GT(sp.stats().triggers_fired, 0u);
  EXPECT_LT(rs.cycles, rb.cycles);
}

TEST(CompileSpear, ReportIsHumanReadable) {
  const GatherProgram g = BuildGather(5000, 1 << 20, 42, false);
  CompileReport report;
  CompileSpear(g.prog, CompilerOptions{}, &report);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("profiled"), std::string::npos);
  EXPECT_NE(text.find("dload"), std::string::npos);
}

}  // namespace
}  // namespace spear

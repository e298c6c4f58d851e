// SPEAR front-end hardware tests: trigger logic, P-thread Extractor,
// p-thread execution semantics, and end-to-end prefetching effect, all
// with hand-written PThreadSpecs (compiler-independent).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "cpu/core.h"
#include "isa/assembler.h"
#include "sim/emulator.h"
#include "spear/pthread_context.h"
#include "spear/pthread_table.h"
#include "test_programs.h"

namespace spear {
namespace {

using testprog::BuildChase;
using testprog::BuildGather;
using testprog::GatherProgram;

// ---- PThreadTable unit tests ----

TEST(PThreadTable, EmptyTable) {
  PThreadTable pt;
  EXPECT_TRUE(pt.empty());
  EXPECT_FALSE(pt.InAnySlice(0x1000));
  EXPECT_EQ(pt.DloadSpec(0x1000), PThreadTable::kNoSpec);
}

TEST(PThreadTable, LookupBySliceAndDload) {
  PThreadSpec s1;
  s1.dload_pc = 0x1010;
  s1.slice_pcs = {0x1000, 0x1010};
  PThreadSpec s2;
  s2.dload_pc = 0x2020;
  s2.slice_pcs = {0x2000, 0x2010, 0x2020};
  PThreadTable pt({s1, s2});
  EXPECT_EQ(pt.size(), 2u);
  EXPECT_TRUE(pt.InAnySlice(0x1000));
  EXPECT_TRUE(pt.InAnySlice(0x2010));
  EXPECT_FALSE(pt.InAnySlice(0x1008));
  EXPECT_EQ(pt.DloadSpec(0x1010), 0);
  EXPECT_EQ(pt.DloadSpec(0x2020), 1);
  EXPECT_EQ(pt.DloadSpec(0x1000), PThreadTable::kNoSpec);
  EXPECT_EQ(pt.spec(1).slice_pcs.size(), 3u);
}

// ---- PThreadContext unit tests ----

TEST(PThreadContext, LoadsReadMainMemory) {
  Memory mem;
  mem.WriteU32(0x100, 4242);
  PThreadContext ctx(&mem);
  EXPECT_EQ(ctx.LoadU32(0x100), 4242u);
}

TEST(PThreadContext, StoresStayPrivateButForward) {
  Memory mem;
  mem.WriteU32(0x100, 1);
  PThreadContext ctx(&mem);
  ctx.StoreU32(0x100, 99);
  EXPECT_EQ(ctx.LoadU32(0x100), 99u);   // forwarded from store buffer
  EXPECT_EQ(mem.ReadU32(0x100), 1u);    // main memory untouched
}

TEST(PThreadContext, PartialForwardMergesBytes) {
  Memory mem;
  mem.WriteU32(0x200, 0xaabbccdd);
  PThreadContext ctx(&mem);
  ctx.StoreU8(0x201, 0x11);  // overwrite one middle byte privately
  EXPECT_EQ(ctx.LoadU32(0x200), 0xaabb11ddu);
}

TEST(PThreadContext, ResetClearsRegistersAndBuffer) {
  Memory mem;
  PThreadContext ctx(&mem);
  ctx.CopyLiveInInt(IntReg(3), 77);
  ctx.StoreU32(0x300, 5);
  ctx.Reset();
  EXPECT_EQ(ctx.ReadInt(IntReg(3)), 0u);
  EXPECT_EQ(ctx.store_buffer_entries(), 0u);
  EXPECT_EQ(ctx.LoadU32(0x300), 0u);  // back to main memory (zero)
}

TEST(PThreadContext, F64RoundTripThroughStoreBuffer) {
  Memory mem;
  PThreadContext ctx(&mem);
  ctx.StoreF64(0x400, 6.5);
  EXPECT_DOUBLE_EQ(ctx.LoadF64(0x400), 6.5);
  EXPECT_DOUBLE_EQ(mem.ReadF64(0x400), 0.0);
}

// ---- end-to-end hardware behaviour ----

// Gather kernel sized so the d-load misses heavily (table >> L2).
GatherProgram BigGather() {
  return BuildGather(/*iterations=*/20000, /*table_words=*/1 << 20);
}

TEST(SpearCore, SemanticsUnchangedByPreExecution) {
  const GatherProgram g = BigGather();
  Emulator emu(g.prog);
  emu.Run(10'000'000);
  ASSERT_TRUE(emu.halted());

  Core core(g.prog, SpearCoreConfig(128));
  const RunResult rr = core.Run(UINT64_MAX, 100'000'000);
  ASSERT_TRUE(rr.halted);
  EXPECT_EQ(core.outputs(), emu.outputs());
  EXPECT_GT(core.stats().triggers_fired, 0u);
}

TEST(SpearCore, TriggersFireAndSessionsComplete) {
  const GatherProgram g = BigGather();
  Core core(g.prog, SpearCoreConfig(128));
  core.Run(UINT64_MAX, 100'000'000);
  const CoreStats& s = core.stats();
  EXPECT_GT(s.triggers_fired, 10u);
  EXPECT_GT(s.preexec_sessions_completed, 10u);
  EXPECT_GT(s.pthread_extracted, 100u);
  EXPECT_GT(s.pthread_loads_issued, 100u);
  EXPECT_GT(s.preexec_cycles, 0u);
}

// Regression for the PE scan-pointer desync the old silent clamp hid:
// when the PE stalls (1-wide extraction, tiny p-thread RUU), main
// dispatch pops unmarked IFQ entries the PE has not scanned yet, and the
// pointer must advance with every pop — marked or not — or it ends up
// trailing the IFQ head. A starved PE makes the stall constant, so this
// configuration tripped the clamp on the old code; it must now never
// resync, and the session machinery must keep working regardless.
TEST(SpearCore, StalledExtractorNeverDesyncsScanPointer) {
  const GatherProgram g = BigGather();
  CoreConfig cfg = SpearCoreConfig(128);
  cfg.spear.extract_per_cycle = 1;
  cfg.spear.pthread_ruu_size = 4;
  Core core(g.prog, cfg);
  core.Run(UINT64_MAX, 100'000'000);
  const CoreStats& s = core.stats();
  EXPECT_EQ(s.pe_scan_resyncs, 0u);
  EXPECT_GT(s.triggers_fired, 0u);
  EXPECT_GT(s.pthread_extracted, 0u);
  EXPECT_GT(s.preexec_sessions_completed, 0u);
}

TEST(SpearCore, PrefetchingReducesMainThreadMisses) {
  const GatherProgram g = BigGather();
  Core base(g.prog, BaselineConfig(128));
  base.Run(UINT64_MAX, 100'000'000);
  Core sp(g.prog, SpearCoreConfig(128));
  sp.Run(UINT64_MAX, 100'000'000);
  const std::uint64_t base_misses = base.hierarchy().l1d().misses(kMainThread);
  const std::uint64_t spear_misses = sp.hierarchy().l1d().misses(kMainThread);
  EXPECT_LT(spear_misses, base_misses * 9 / 10)
      << "base=" << base_misses << " spear=" << spear_misses;
}

TEST(SpearCore, SpeedupOnGatherKernel) {
  const GatherProgram g = BigGather();
  Core base(g.prog, BaselineConfig(128));
  const RunResult rb = base.Run(UINT64_MAX, 100'000'000);
  Core sp(g.prog, SpearCoreConfig(128));
  const RunResult rs = sp.Run(UINT64_MAX, 100'000'000);
  ASSERT_TRUE(rb.halted && rs.halted);
  EXPECT_EQ(rb.instructions, rs.instructions);
  EXPECT_LT(rs.cycles, rb.cycles) << "SPEAR should beat baseline here";
}

TEST(SpearCore, LongerIfqExtendsPrefetchDistance) {
  const GatherProgram g = BigGather();
  Core s128(g.prog, SpearCoreConfig(128));
  const RunResult r128 = s128.Run(UINT64_MAX, 100'000'000);
  Core s256(g.prog, SpearCoreConfig(256));
  const RunResult r256 = s256.Run(UINT64_MAX, 100'000'000);
  // The gather loop is perfectly predicted, so the longer IFQ must not
  // hurt and should extract more slice instructions per session.
  EXPECT_LE(r256.cycles, r128.cycles * 101 / 100);
  EXPECT_GE(s256.stats().pthread_extracted, s128.stats().pthread_extracted);
}

TEST(SpearCore, SeparateFuModeAtLeastAsFast) {
  const GatherProgram g = BigGather();
  Core shared(g.prog, SpearCoreConfig(128, /*separate_fu=*/false));
  const RunResult rs = shared.Run(UINT64_MAX, 100'000'000);
  Core sf(g.prog, SpearCoreConfig(128, /*separate_fu=*/true));
  const RunResult rf = sf.Run(UINT64_MAX, 100'000'000);
  EXPECT_LE(rf.cycles, rs.cycles * 102 / 100);
}

TEST(SpearCore, NoTriggerWithoutOccupancy) {
  // A d-load pre-decoded while the IFQ is nearly empty (straight-line code
  // shortly after program start) must not trigger: the paper requires at
  // least half the IFQ to be filled so the p-thread has a window to mine.
  Program prog;
  prog.AddSegment(0x100000, 64);
  Assembler a(&prog);
  a.la(r(1), 0x100000);
  const Pc dload = a.Here();
  a.lw(r(2), r(1), 0);
  for (int i = 0; i < 20; ++i) a.addi(r(3), r(3), 1);
  a.halt();
  a.Finish();
  PThreadSpec spec;
  spec.dload_pc = dload;
  spec.slice_pcs = {dload};
  spec.live_ins = {IntReg(1)};
  prog.pthreads.push_back(spec);

  Core core(prog, SpearCoreConfig(128));
  core.Run(UINT64_MAX, 1'000'000);
  EXPECT_EQ(core.stats().triggers_fired, 0u);
  EXPECT_EQ(core.stats().triggers_suppressed_occupancy, 1u);
}

TEST(SpearCore, OccupancyDivOneRequiresFullIfq) {
  const GatherProgram g = BigGather();
  CoreConfig cfg = SpearCoreConfig(128);
  cfg.spear.trigger_occupancy_div = 1;  // require a completely full IFQ
  Core strict(g.prog, cfg);
  strict.Run(UINT64_MAX, 100'000'000);
  Core normal(g.prog, SpearCoreConfig(128));
  normal.Run(UINT64_MAX, 100'000'000);
  EXPECT_LE(strict.stats().triggers_fired, normal.stats().triggers_fired);
}

TEST(SpearCore, DrainPoliciesPreserveSemantics) {
  const GatherProgram g = BigGather();
  Emulator emu(g.prog);
  emu.Run(10'000'000);
  for (TriggerDrainPolicy policy :
       {TriggerDrainPolicy::kImmediate, TriggerDrainPolicy::kDrainToTrigger,
        TriggerDrainPolicy::kStallDispatch}) {
    CoreConfig cfg = SpearCoreConfig(128);
    cfg.spear.drain_policy = policy;
    Core core(g.prog, cfg);
    const RunResult rr = core.Run(UINT64_MAX, 100'000'000);
    ASSERT_TRUE(rr.halted);
    EXPECT_EQ(core.outputs(), emu.outputs());
    EXPECT_GT(core.stats().triggers_fired, 0u);
  }
}

TEST(SpearCore, ImmediatePolicyHasNoDrainCycles) {
  const GatherProgram g = BigGather();
  Core core(g.prog, SpearCoreConfig(128));  // default policy = kImmediate
  core.Run(UINT64_MAX, 100'000'000);
  EXPECT_EQ(core.stats().drain_cycles, 0u);
  EXPECT_GT(core.stats().copy_cycles, 0u);  // 1 cycle per live-in register
}

TEST(SpearCore, StallDispatchPolicyPaysDrainCycles) {
  const GatherProgram g = BigGather();
  CoreConfig cfg = SpearCoreConfig(128);
  cfg.spear.drain_policy = TriggerDrainPolicy::kStallDispatch;
  Core core(g.prog, cfg);
  const RunResult stall = core.Run(UINT64_MAX, 100'000'000);
  Core fast(g.prog, SpearCoreConfig(128));
  const RunResult imm = fast.Run(UINT64_MAX, 100'000'000);
  EXPECT_GT(core.stats().drain_cycles, 0u);
  EXPECT_GT(core.stats().dispatch_stall_trigger, 0u);
  EXPECT_GT(stall.cycles, imm.cycles);  // the drain costs real time
}

TEST(SpearCore, SerialChaseDoesNoSemanticHarm) {
  const Program prog = BuildChase(/*nodes=*/4096, /*hops=*/20000);
  Emulator emu(prog);
  emu.Run(10'000'000);
  ASSERT_TRUE(emu.halted());
  Core core(prog, SpearCoreConfig(128));
  const RunResult rr = core.Run(UINT64_MAX, 200'000'000);
  ASSERT_TRUE(rr.halted);
  EXPECT_EQ(core.outputs(), emu.outputs());
}

TEST(SpearCore, DisabledSpearIgnoresAnnotations) {
  const GatherProgram g = BigGather();
  Core core(g.prog, BaselineConfig(128));  // spear.enabled = false
  core.Run(UINT64_MAX, 100'000'000);
  EXPECT_EQ(core.stats().triggers_fired, 0u);
  EXPECT_EQ(core.stats().pthread_extracted, 0u);
  EXPECT_EQ(core.hierarchy().l1d().misses(kPThread), 0u);
}

TEST(SpearCore, PThreadStoresNeverReachMemory) {
  // Build a kernel whose *slice* includes a store (read-modify-write on a
  // private accumulator feeding the d-load address). The p-thread will
  // pre-execute the store; architectural results must still match the
  // emulator exactly.
  Program prog;
  const Addr acc_addr = 0x04000000;
  const Addr table_base = 0x05000000;
  const int table_words = 1 << 20;
  DataSegment& acc = prog.AddSegment(acc_addr, 16);
  PokeU32(acc, acc_addr, 1);
  DataSegment& tab = prog.AddSegment(
      table_base, static_cast<std::size_t>(table_words) * 4);
  for (int i = 0; i < table_words; ++i) {
    PokeU32(tab, table_base + static_cast<Addr>(i) * 4,
            static_cast<std::uint32_t>(i * 2654435761u));
  }

  Assembler a(&prog);
  Label loop = a.NewLabel();
  a.la(r(8), acc_addr);
  a.la(r(9), table_base);
  a.li(r(2), 20000);
  a.li(r(3), 0);
  a.Bind(loop);
  const Pc p0 = a.Here();
  a.lw(r(4), r(8), 0);          // load accumulator   (slice)
  const Pc p1 = a.Here();
  a.addi(r(4), r(4), 12345);    //                    (slice)
  const Pc p2 = a.Here();
  a.sw(r(4), r(8), 0);          // store accumulator  (slice!)
  const Pc p3 = a.Here();
  a.andi(r(5), r(4), table_words - 1);  //             (slice)
  const Pc p4 = a.Here();
  a.slli(r(5), r(5), 2);        //                    (slice)
  const Pc p5 = a.Here();
  a.add(r(5), r(9), r(5));      //                    (slice)
  const Pc p6 = a.Here();
  a.lw(r(6), r(5), 0);          // d-load             (slice, trigger)
  a.add(r(3), r(3), r(6));
  a.addi(r(2), r(2), -1);
  a.bne(r(2), r(0), loop);
  a.out(r(3));
  a.halt();
  a.Finish();

  PThreadSpec spec;
  spec.dload_pc = p6;
  spec.slice_pcs = {p0, p1, p2, p3, p4, p5, p6};
  spec.live_ins = {IntReg(8), IntReg(9)};
  prog.pthreads.push_back(spec);

  Emulator emu(prog);
  emu.Run(10'000'000);
  ASSERT_TRUE(emu.halted());

  Core core(prog, SpearCoreConfig(128));
  const RunResult rr = core.Run(UINT64_MAX, 200'000'000);
  ASSERT_TRUE(rr.halted);
  EXPECT_GT(core.stats().triggers_fired, 0u);
  EXPECT_EQ(core.outputs(), emu.outputs());
}

TEST(SpearCore, RecoveryAbortsInFlightSession) {
  // Gather kernel with an unpredictable branch in the loop: mispredict
  // recoveries will land while sessions are in flight; everything must
  // stay architecturally exact and some sessions should abort.
  Program prog;
  const Addr index_base = 0x01000000;
  const Addr table_base = 0x02000000;
  const int iterations = 20000;
  const int table_words = 1 << 20;
  Rng rng(5);
  DataSegment& idx = prog.AddSegment(index_base,
                                     static_cast<std::size_t>(iterations) * 4);
  for (int i = 0; i < iterations; ++i) {
    PokeU32(idx, index_base + static_cast<Addr>(i) * 4,
            static_cast<std::uint32_t>(rng.Below(table_words)));
  }
  prog.AddSegment(table_base, static_cast<std::size_t>(table_words) * 4);

  Assembler a(&prog);
  Label loop = a.NewLabel(), skip = a.NewLabel();
  a.la(r(1), index_base);
  a.li(r(2), iterations);
  a.li(r(3), 0);
  a.la(r(9), table_base);
  a.Bind(loop);
  const Pc p0 = a.Here();
  a.lw(r(4), r(1), 0);
  const Pc p1 = a.Here();
  a.slli(r(5), r(4), 2);
  const Pc p2 = a.Here();
  a.add(r(5), r(9), r(5));
  const Pc p3 = a.Here();
  a.lw(r(6), r(5), 0);
  a.andi(r(7), r(4), 1);        // unpredictable bit from the index stream
  a.beq(r(7), r(0), skip);
  a.add(r(3), r(3), r(6));
  a.Bind(skip);
  const Pc p4 = a.Here();
  a.addi(r(1), r(1), 4);
  a.addi(r(2), r(2), -1);
  a.bne(r(2), r(0), loop);
  a.out(r(3));
  a.halt();
  a.Finish();

  PThreadSpec spec;
  spec.dload_pc = p3;
  spec.slice_pcs = {p0, p1, p2, p3, p4};
  spec.live_ins = {IntReg(1), IntReg(9)};
  prog.pthreads.push_back(spec);

  Emulator emu(prog);
  emu.Run(10'000'000);
  ASSERT_TRUE(emu.halted());

  Core core(prog, SpearCoreConfig(128));
  const RunResult rr = core.Run(UINT64_MAX, 200'000'000);
  ASSERT_TRUE(rr.halted);
  EXPECT_EQ(core.outputs(), emu.outputs());
  EXPECT_GT(core.stats().mispredict_recoveries, 1000u);
  EXPECT_GT(core.stats().triggers_fired, 0u);
}

// Parameterized sweep: SPEAR must preserve semantics for every IFQ size,
// drain policy and FU arrangement combination.
//
// gtest names each case after the raw bytes of its parameter. `name_tag`
// fills the two bytes that would otherwise be padding, so a case's name no
// longer depends on leftover stack contents (which shift with the stack's
// alignment from run to run); its values keep the names the cases are
// already listed under. The test body does not read it.
struct SpearVariant {
  std::uint32_t ifq;
  bool separate_fu;
  TriggerDrainPolicy drain;
  std::uint16_t name_tag;
};
static_assert(std::has_unique_object_representations_v<SpearVariant>,
              "SpearVariant must have no padding: its bytes name the cases");

class SpearVariantTest : public testing::TestWithParam<SpearVariant> {};

TEST_P(SpearVariantTest, OracleExactOnGather) {
  const SpearVariant v = GetParam();
  const GatherProgram g = BuildGather(/*iterations=*/8000,
                                      /*table_words=*/1 << 19);
  Emulator emu(g.prog);
  emu.Run(10'000'000);
  ASSERT_TRUE(emu.halted());

  CoreConfig cfg = SpearCoreConfig(v.ifq, v.separate_fu);
  cfg.spear.drain_policy = v.drain;
  Core core(g.prog, cfg);
  core.set_trace_commits(false);
  const RunResult rr = core.Run(UINT64_MAX, 200'000'000);
  ASSERT_TRUE(rr.halted);
  EXPECT_EQ(core.outputs(), emu.outputs());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SpearVariantTest,
    testing::Values(
        SpearVariant{128, false, TriggerDrainPolicy::kImmediate, 0},
        SpearVariant{256, false, TriggerDrainPolicy::kImmediate, 0},
        SpearVariant{128, true, TriggerDrainPolicy::kImmediate, 0x0009},
        SpearVariant{256, true, TriggerDrainPolicy::kImmediate, 0xCAC0},
        SpearVariant{128, false, TriggerDrainPolicy::kDrainToTrigger, 0xCAD0},
        SpearVariant{256, true, TriggerDrainPolicy::kDrainToTrigger, 0xCAC5},
        SpearVariant{128, false, TriggerDrainPolicy::kStallDispatch, 0},
        SpearVariant{256, true, TriggerDrainPolicy::kStallDispatch, 0},
        SpearVariant{64, false, TriggerDrainPolicy::kImmediate, 0},
        SpearVariant{512, false, TriggerDrainPolicy::kImmediate, 0}));

}  // namespace
}  // namespace spear

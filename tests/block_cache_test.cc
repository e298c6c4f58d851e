// BlockCache behaviour the Emulator and Core hot loops depend on: runs
// split at already-built regions (never merged, never re-decoded), the
// fingerprint keys invalidation on exactly the code image + marks source,
// and the baked pre-decode marks agree with the per-instruction
// PThreadTable probes the pre-decoder used to make on every fetch.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "eval/harness.h"
#include "isa/assembler.h"
#include "isa/instruction.h"
#include "isa/opcode.h"
#include "isa/program.h"
#include "sim/block_cache.h"
#include "spear/pthread_table.h"
#include "test_programs.h"
#include "workloads/workload.h"

namespace spear {
namespace {

// Straight-line body with one backward branch and a halt:
//   0: li   r1
//   1: li   r2
//   2: loop: add r3        <- branch target, mid-run
//   3: addi r2, -1
//   4: bne  r2, r0, loop   <- control, run terminator
//   5: out  r3
//   6: halt
Program BuildLoopProgram() {
  Program prog;
  Assembler a(&prog);
  Label loop = a.NewLabel();
  a.li(r(1), 5);
  a.li(r(2), 3);
  a.Bind(loop);
  a.add(r(3), r(3), r(1));
  a.addi(r(2), r(2), -1);
  a.bne(r(2), r(0), loop);
  a.out(r(3));
  a.halt();
  a.Finish();
  return prog;
}

Pc PcAt(const Program& prog, std::uint32_t index) {
  return prog.text_base + static_cast<Pc>(index) * kInstrBytes;
}

TEST(BlockCache, RunsEndAtControlAndHalt) {
  Program prog = BuildLoopProgram();
  BlockCache cache;
  cache.Attach(prog, nullptr);

  // First touch from the entry decodes the run up to and including the
  // branch (indices 0..4), nothing beyond it.
  BlockCache::Block b = cache.Lookup(prog.entry);
  ASSERT_NE(b.recs, nullptr);
  EXPECT_EQ(b.len, 5u);
  EXPECT_TRUE(b.recs[b.len - 1].is_control());
  for (std::uint32_t i = 0; i + 1 < b.len; ++i) {
    EXPECT_FALSE(b.recs[i].is_control()) << "control mid-run at " << i;
    EXPECT_FALSE(b.recs[i].is_halt());
  }
  EXPECT_EQ(cache.stats().blocks_built, 1u);
  EXPECT_EQ(cache.stats().instrs_decoded, 5u);

  // Fall-through after the branch: out + halt, terminated by HALT.
  BlockCache::Block tail = cache.Lookup(PcAt(prog, 5));
  ASSERT_NE(tail.recs, nullptr);
  EXPECT_EQ(tail.len, 2u);
  EXPECT_TRUE(tail.recs[tail.len - 1].is_halt());
  EXPECT_EQ(cache.stats().blocks_built, 2u);
  EXPECT_EQ(cache.stats().instrs_decoded, 7u);
}

TEST(BlockCache, BranchIntoBuiltRunHitsMidRunRecords) {
  Program prog = BuildLoopProgram();
  BlockCache cache;
  cache.Attach(prog, nullptr);

  BlockCache::Block whole = cache.Lookup(prog.entry);
  ASSERT_EQ(whole.len, 5u);
  const std::uint64_t built = cache.stats().blocks_built;
  const std::uint64_t decoded = cache.stats().instrs_decoded;

  // The branch target (index 2) sits mid-run: the lookup must hit the
  // existing records — same storage, suffix length — with no rebuild.
  BlockCache::Block mid = cache.Lookup(PcAt(prog, 2));
  EXPECT_EQ(mid.recs, whole.recs + 2);
  EXPECT_EQ(mid.len, 3u);
  EXPECT_EQ(cache.stats().blocks_built, built);
  EXPECT_EQ(cache.stats().instrs_decoded, decoded);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(BlockCache, RunsSplitAtBuiltRegionBoundary) {
  Program prog = BuildLoopProgram();
  BlockCache cache;
  cache.Attach(prog, nullptr);

  // Build the loop body first (indices 2..4), as a taken backward branch
  // would touch it before the fall-through path runs.
  BlockCache::Block body = cache.Lookup(PcAt(prog, 2));
  ASSERT_EQ(body.len, 3u);

  // Now the entry run must stop at the edge of the built region: indices
  // 0..1 only, ending in a *non*-terminator. Runs are never merged, so
  // the two instructions already covered are not re-decoded.
  BlockCache::Block head = cache.Lookup(prog.entry);
  ASSERT_NE(head.recs, nullptr);
  EXPECT_EQ(head.len, 2u);
  EXPECT_FALSE(head.recs[head.len - 1].is_control());
  EXPECT_FALSE(head.recs[head.len - 1].is_halt());
  EXPECT_EQ(cache.stats().blocks_built, 2u);
  EXPECT_EQ(cache.stats().instrs_decoded, 5u);

  // The split point still resolves to the original body records.
  EXPECT_EQ(cache.Lookup(PcAt(prog, 2)).recs, body.recs);
}

TEST(BlockCache, OffTextAndMisalignedPcsMiss) {
  Program prog = BuildLoopProgram();
  BlockCache cache;
  cache.Attach(prog, nullptr);

  EXPECT_EQ(cache.Record(prog.text_base - kInstrBytes), nullptr);
  EXPECT_EQ(cache.Record(prog.EndPc()), nullptr);
  EXPECT_EQ(cache.Record(prog.entry + 1), nullptr);  // misaligned
  EXPECT_EQ(cache.Lookup(prog.EndPc()).recs, nullptr);
  EXPECT_EQ(cache.Lookup(prog.EndPc()).len, 0u);
}

TEST(BlockCache, WarmReattachKeepsBlocksColdReattachFlushes) {
  Program prog = BuildLoopProgram();
  BlockCache cache;
  cache.Attach(prog, nullptr);
  cache.Lookup(prog.entry);
  ASSERT_EQ(cache.stats().blocks_built, 1u);

  // Same fingerprint through a different Program copy: warm re-attach,
  // every record survives (this is the sampled-run reuse path).
  Program copy = prog;
  cache.Attach(copy, nullptr);
  EXPECT_EQ(cache.stats().flushes, 0u);
  const std::uint64_t hits = cache.stats().hits;
  EXPECT_NE(cache.Record(copy.entry), nullptr);
  EXPECT_EQ(cache.stats().hits, hits + 1);
  EXPECT_EQ(cache.stats().blocks_built, 1u);

  // Different text: flush; the old entry record is gone and rebuilt.
  Program other = BuildLoopProgram();
  other.text[0] = prog.text[3];
  ASSERT_NE(BlockCache::CodeFingerprint(other, false),
            BlockCache::CodeFingerprint(prog, false));
  cache.Attach(other, nullptr);
  EXPECT_EQ(cache.stats().flushes, 1u);
  const std::uint64_t misses = cache.stats().misses;
  EXPECT_NE(cache.Record(other.entry), nullptr);
  EXPECT_EQ(cache.stats().misses, misses + 1);
}

TEST(BlockCache, FingerprintCoversCodeAndMarksNotData) {
  const testprog::GatherProgram g = testprog::BuildGather(8, 16);
  const std::uint64_t base = BlockCache::CodeFingerprint(g.prog, true);

  // Data segments are excluded: poking data does not invalidate.
  Program data = g.prog;
  ASSERT_FALSE(data.data.empty());
  data.MutableSegment(0).bytes[0] ^= 0xff;
  EXPECT_EQ(BlockCache::CodeFingerprint(data, true), base);

  // The p-thread section participates iff marks are requested.
  Program nopt = g.prog;
  nopt.pthreads.clear();
  EXPECT_NE(BlockCache::CodeFingerprint(nopt, true), base);
  EXPECT_EQ(BlockCache::CodeFingerprint(nopt, false),
            BlockCache::CodeFingerprint(g.prog, false));

  // Entry participates even with identical text.
  Program entry = g.prog;
  entry.entry += kInstrBytes;
  EXPECT_NE(BlockCache::CodeFingerprint(entry, true), base);
}

TEST(BlockCache, PtAttachBakesMarks) {
  const testprog::GatherProgram g = testprog::BuildGather(8, 16);
  const PThreadTable pt(g.prog.pthreads);
  ASSERT_FALSE(pt.empty());

  BlockCache cache;
  cache.Attach(g.prog, &pt);
  const DecodedInstr* dload = cache.Record(g.dload_pc);
  ASSERT_NE(dload, nullptr);
  EXPECT_GE(dload->dload_spec, 0);
  EXPECT_EQ(dload->dload_spec, pt.DloadSpec(g.dload_pc));

  // Attaching with marks vs without is a fingerprint change: the d-load
  // mark must not survive into a no-PT attach.
  cache.Attach(g.prog, nullptr);
  EXPECT_EQ(cache.stats().flushes, 1u);
  const DecodedInstr* plain = cache.Record(g.dload_pc);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->dload_spec, PThreadTable::kNoSpec);
  EXPECT_FALSE(plain->pthread_indicator);
}

// Every record's decode, tag and pre-decode marks must agree with the
// per-instruction path (opcode table + PThreadTable probes) on the full
// 15-workload suite, post-compiler annotations included.
TEST(BlockCache, MarksMatchPerInstructionPreDecoderOnAllWorkloads) {
  EvalOptions opt;
  opt.compiler.profiler.max_instrs = 200'000;
  for (const WorkloadInfo& w : AllWorkloads()) {
    SCOPED_TRACE(w.name);
    const PreparedWorkload pw = PrepareWorkload(w.name, opt);
    const PThreadTable pt(pw.annotated.pthreads);

    BlockCache cache;
    cache.Attach(pw.annotated, pt.empty() ? nullptr : &pt);
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(pw.annotated.text.size()); ++i) {
      const Pc pc = PcAt(pw.annotated, i);
      const DecodedInstr* rec = cache.Record(pc);
      ASSERT_NE(rec, nullptr);
      const Instruction& ref = pw.annotated.text[i];
      EXPECT_EQ(Encode(rec->instr), Encode(ref));
      EXPECT_EQ(rec->is_control(), IsControl(ref.op));
      EXPECT_EQ(rec->is_halt(), IsHalt(ref.op));
      EXPECT_EQ(rec->pthread_indicator, pt.InAnySlice(pc));
      EXPECT_EQ(rec->dload_spec, pt.DloadSpec(pc));
    }
    // Whole text decoded exactly once.
    EXPECT_EQ(cache.stats().instrs_decoded, pw.annotated.text.size());
  }
}

}  // namespace
}  // namespace spear

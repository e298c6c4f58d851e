#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cpu/config.h"
#include "cpu/core.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/memory.h"
#include "runner/checkpoint.h"
#include "sim/emulator.h"
#include "telemetry/registry.h"
#include "workloads/workload.h"

namespace spear {
namespace {

TEST(Memory, UnwrittenReadsAsZero) {
  Memory mem;
  EXPECT_EQ(mem.ReadU32(0x12345678), 0u);
  EXPECT_EQ(mem.ReadU8(0), 0u);
  EXPECT_EQ(mem.AllocatedPages(), 0u);
}

TEST(Memory, ReadBackWrites) {
  Memory mem;
  mem.WriteU32(0x1000, 0xcafebabe);
  EXPECT_EQ(mem.ReadU32(0x1000), 0xcafebabeu);
  mem.WriteU8(0x1000, 0x01);  // overwrites the low byte only
  EXPECT_EQ(mem.ReadU32(0x1000), 0xcafeba01u);
}

TEST(Memory, LittleEndianLayout) {
  Memory mem;
  mem.WriteU32(0x2000, 0x11223344);
  EXPECT_EQ(mem.ReadU8(0x2000), 0x44);
  EXPECT_EQ(mem.ReadU8(0x2003), 0x11);
}

TEST(Memory, CrossPageAccess) {
  Memory mem;
  const Addr boundary = Memory::kPageSize - 2;
  mem.WriteU32(boundary, 0xa1b2c3d4);
  EXPECT_EQ(mem.ReadU32(boundary), 0xa1b2c3d4u);
  EXPECT_EQ(mem.AllocatedPages(), 2u);
}

TEST(Memory, F64RoundTrip) {
  Memory mem;
  mem.WriteF64(0x3000, -123.456);
  EXPECT_DOUBLE_EQ(mem.ReadF64(0x3000), -123.456);
}

TEST(Memory, LoadProgramInstallsSegments) {
  Program prog;
  DataSegment& seg = prog.AddSegment(0x5000, 16);
  PokeU32(seg, 0x5008, 99);
  Memory mem;
  mem.LoadProgram(prog);
  EXPECT_EQ(mem.ReadU32(0x5008), 99u);
}

// Every allocated page of `mem`, by number, as bytes.
std::vector<std::pair<Addr, std::vector<std::uint8_t>>> Pages(
    const Memory& mem) {
  std::vector<std::pair<Addr, std::vector<std::uint8_t>>> out;
  for (Addr pn : mem.PageNumbers()) {
    const std::uint8_t* p = mem.PageData(pn);
    out.emplace_back(pn, std::vector<std::uint8_t>(p, p + Memory::kPageSize));
  }
  return out;
}

constexpr Addr kPage = Memory::kPageSize;

void AddRandomSegment(Program& prog, Addr base, std::size_t size,
                      Rng& rng) {
  for (std::uint8_t& b : prog.AddSegment(base, size).bytes) {
    b = static_cast<std::uint8_t>(rng.Below(255) + 1);  // never zero
  }
}

// The load semantics page adoption must keep: byte for byte what writing
// every segment's bytes in order gives, the later segment winning where
// two overlap, with the same page set.
TEST(Memory, LoadProgramMatchesByteWritesInSegmentOrder) {
  Rng rng(17);
  Program prog;
  // Unaligned start, two whole pages, partial tail page.
  AddRandomSegment(prog, 0x10123, 3 * kPage + 100, rng);
  // Page-aligned, four whole pages and a partial tail page.
  AddRandomSegment(prog, 0x20000, 4 * kPage + 0x80, rng);
  // Overlaps the previous one: part of page 0x21, all of 0x22, part of
  // 0x23.
  AddRandomSegment(prog, 0x21800, 2 * kPage, rng);
  // Overlaps the first one's partial head page from below.
  AddRandomSegment(prog, 0xf000, kPage + 0x200, rng);
  ASSERT_EQ(OverlappingSegments(prog),
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 3},
                                                              {1, 2}}));

  Memory want;
  for (const DataSegment& seg : prog.data) {
    for (std::size_t i = 0; i < seg.bytes.size(); ++i) {
      want.WriteU8(seg.base + static_cast<Addr>(i), seg.bytes[i]);
    }
  }
  Memory mem;
  mem.LoadProgram(prog);
  EXPECT_EQ(mem.PageNumbers(), want.PageNumbers());
  EXPECT_EQ(mem.AllocatedPages(), want.AllocatedPages());
  EXPECT_EQ(Pages(mem), Pages(want));
  // Whole pages alias the program's bytes, unless a later segment
  // overlaps part of them.
  EXPECT_EQ(mem.PageData(0x11), &prog.data[0].bytes[0x11000 - 0x10123]);
  EXPECT_EQ(mem.PageData(0x20), &prog.data[1].bytes[0]);
  EXPECT_NE(mem.PageData(0x21), &prog.data[1].bytes[kPage]);
  EXPECT_EQ(mem.PageData(0x22), &prog.data[2].bytes[0x22000 - 0x21800]);
}

// --- copy-on-write sharing (CopyFrom) ---

void ExpectPageSetsAgree(const Memory& m) {
  EXPECT_EQ(m.AllocatedPages(), m.PageNumbers().size());
}

struct CowWrite {
  std::string name;
  std::function<void(Memory&)> write;
  std::function<bool(const Memory&)> sees_write;
};

// One write of each kind, all landing at 0x10004 (page 0x10), which the
// source image holds before the share.
std::vector<CowWrite> CowWrites() {
  static const std::vector<std::uint8_t> block(64, 0xab);
  static const std::vector<std::uint8_t> page(Memory::kPageSize, 0xcd);
  return {
      {"U8", [](Memory& m) { m.WriteU8(0x10004, 0x7f); },
       [](const Memory& m) { return m.ReadU8(0x10004) == 0x7f; }},
      {"U32", [](Memory& m) { m.WriteU32(0x10004, 0xdeadbeef); },
       [](const Memory& m) { return m.ReadU32(0x10004) == 0xdeadbeefu; }},
      {"U64",
       [](Memory& m) { m.WriteU64(0x10004, 0x0123456789abcdefull); },
       [](const Memory& m) {
         return m.ReadU64(0x10004) == 0x0123456789abcdefull;
       }},
      {"F64", [](Memory& m) { m.WriteF64(0x10004, -2.5); },
       [](const Memory& m) { return m.ReadF64(0x10004) == -2.5; }},
      {"Block",
       [](Memory& m) { m.WriteBlock(0x10004, block.data(), block.size()); },
       [](const Memory& m) { return m.ReadU8(0x10004 + 63) == 0xab; }},
      {"InstallPage", [](Memory& m) { m.InstallPage(0x10, page.data()); },
       [](const Memory& m) { return m.ReadU8(0x10004) == 0xcd; }},
  };
}

Memory CowSource() {
  Memory m;
  m.WriteU32(0x10000, 0x11111111);
  m.WriteU32(0x10004, 0x22222222);
  m.WriteU32(0x20000, 0x33333333);
  return m;
}

TEST(MemoryCow, WriteThroughEitherSideStaysInvisibleToTheOther) {
  for (const CowWrite& w : CowWrites()) {
    for (const bool write_source : {true, false}) {
      SCOPED_TRACE(w.name + (write_source ? " via source" : " via copy"));
      Memory a = CowSource();
      Memory b;
      b.CopyFrom(a);
      Memory& writer = write_source ? a : b;
      const Memory& other = write_source ? b : a;
      const auto before = Pages(other);

      w.write(writer);
      EXPECT_TRUE(w.sees_write(writer));
      EXPECT_FALSE(w.sees_write(other));
      EXPECT_EQ(Pages(other), before);

      // Both sides keep the same page set; neither lost or gained pages.
      EXPECT_EQ(a.PageNumbers(), b.PageNumbers());
      EXPECT_EQ(a.AllocatedPages(), 2u);
      ExpectPageSetsAgree(a);
      ExpectPageSetsAgree(b);
    }
  }
}

TEST(MemoryCow, NewPageOnOneSideDoesNotAppearOnTheOther) {
  Memory a = CowSource();
  Memory b;
  b.CopyFrom(a);
  b.WriteU32(0x900000, 5);
  EXPECT_EQ(a.ReadU32(0x900000), 0u);
  EXPECT_EQ(a.AllocatedPages(), 2u);
  EXPECT_EQ(b.AllocatedPages(), 3u);
  ExpectPageSetsAgree(a);
  ExpectPageSetsAgree(b);
}

TEST(MemoryCow, SourceWriteMemoIsDroppedWhenItsPagesAreShared) {
  // The source writes a page just before the share, so its write memo
  // names that page; the write after the share must clone, not write
  // through the memo into the page the copy now shares.
  Memory a;
  a.WriteU32(0x4000, 1);
  Memory b;
  b.CopyFrom(a);
  a.WriteU32(0x4008, 2);
  EXPECT_EQ(a.ReadU32(0x4008), 2u);
  EXPECT_EQ(b.ReadU32(0x4008), 0u);
  EXPECT_EQ(b.ReadU32(0x4000), 1u);
  // And a second share of the same page after the clone.
  Memory c;
  c.CopyFrom(a);
  a.WriteU32(0x400c, 3);
  EXPECT_EQ(c.ReadU32(0x400c), 0u);
  EXPECT_EQ(c.ReadU32(0x4008), 2u);
}

TEST(MemoryCow, ReadWriteReadOnTheCloningSide) {
  for (const bool clone_source : {true, false}) {
    SCOPED_TRACE(clone_source ? "source clones" : "copy clones");
    Memory a;
    a.WriteU32(0x5000, 7);
    Memory b;
    b.CopyFrom(a);
    Memory& cloner = clone_source ? a : b;
    const Memory& other = clone_source ? b : a;
    EXPECT_EQ(cloner.ReadU32(0x5000), 7u);  // read memo: the shared page
    cloner.WriteU32(0x5000, 8);             // clones the page
    EXPECT_EQ(cloner.ReadU32(0x5000), 8u);  // read memo follows the clone
    EXPECT_EQ(other.ReadU32(0x5000), 7u);
    cloner.WriteU32(0x5004, 9);  // the clone is private: no second clone
    EXPECT_EQ(cloner.ReadU32(0x5004), 9u);
    EXPECT_EQ(other.ReadU32(0x5004), 0u);
  }
}

TEST(MemoryCow, CopyFromReplacesPreviousContents) {
  Memory a = CowSource();
  Memory b;
  b.WriteU32(0x700000, 1);  // a page the source lacks
  EXPECT_EQ(b.ReadU32(0x700000), 1u);
  b.CopyFrom(a);
  EXPECT_EQ(b.ReadU32(0x700000), 0u);
  EXPECT_EQ(b.PageNumbers(), a.PageNumbers());
  EXPECT_EQ(Pages(b), Pages(a));
  b.CopyFrom(b);  // self-copy is a no-op
  EXPECT_EQ(Pages(b), Pages(a));
}

// --- copy-on-write sharing with the program image (LoadProgram) ---

// An image of the two pages CowSource() writes: page 0x10, where every
// CowWrites() write lands, all 0x22 bytes, and page 0x20. Each segment
// covers its page entirely, so a load adopts both.
Program CowProgram() {
  Program prog;
  DataSegment& low = prog.AddSegment(0x10000, kPage);
  std::fill(low.bytes.begin(), low.bytes.end(), 0x22);
  PokeU32(prog.AddSegment(0x20000, kPage), 0x20000, 0x33333333);
  return prog;
}

TEST(MemoryCow, LoadedImageWritesReachNeitherTheProgramNorOtherLoads) {
  for (const CowWrite& w : CowWrites()) {
    SCOPED_TRACE(w.name);
    const Program prog = CowProgram();
    const std::vector<std::uint8_t> image = prog.data[0].bytes;
    Memory a;
    Memory b;
    a.LoadProgram(prog);
    b.LoadProgram(prog);
    // Nothing was copied: both memories alias the program's bytes.
    ASSERT_EQ(a.PageData(0x10), prog.data[0].bytes.data());
    ASSERT_EQ(b.PageData(0x10), prog.data[0].bytes.data());
    EXPECT_EQ(a.ReadU32(0x10004), 0x22222222u);  // read memo: adopted page
    const auto before = Pages(b);

    w.write(a);
    EXPECT_TRUE(w.sees_write(a));
    EXPECT_FALSE(w.sees_write(b));
    EXPECT_EQ(Pages(b), before);
    EXPECT_EQ(prog.data[0].bytes, image);
    EXPECT_NE(a.PageData(0x10), prog.data[0].bytes.data());
    EXPECT_EQ(a.PageNumbers(), b.PageNumbers());
    EXPECT_EQ(a.AllocatedPages(), 2u);
    ExpectPageSetsAgree(a);
  }
}

TEST(MemoryCow, ProgramCopyEditedThroughMutableSegmentLeavesTheOriginal) {
  const Program orig = CowProgram();
  Memory loaded;
  loaded.LoadProgram(orig);
  Program copy = orig;
  EXPECT_EQ(copy.data[0].bytes.data(), orig.data[0].bytes.data());

  PokeU32(copy.MutableSegment(0), 0x10004, 0xfeedface);
  copy.AddSegment(0x30000, 16);
  EXPECT_NE(copy.data[0].bytes.data(), orig.data[0].bytes.data());
  EXPECT_EQ(orig.data.size(), 2u);
  EXPECT_EQ(copy.data.size(), 3u);
  Memory from_copy;
  Memory from_orig;
  from_copy.LoadProgram(copy);
  from_orig.LoadProgram(orig);
  EXPECT_EQ(from_copy.ReadU32(0x10004), 0xfeedfaceu);
  EXPECT_EQ(from_orig.ReadU32(0x10004), 0x22222222u);
  EXPECT_EQ(loaded.ReadU32(0x10004), 0x22222222u);

  // A list nothing else holds is edited in place, not copied.
  Program solo = CowProgram();
  const std::uint8_t* bytes = solo.data[0].bytes.data();
  EXPECT_EQ(solo.MutableSegment(0).bytes.data(), bytes);
}

TEST(MemoryCow, LoadedMemoryOutlivesItsProgram) {
  Memory m;
  Memory last;
  {
    const Program prog = CowProgram();
    m.LoadProgram(prog);
    Program one_page;
    one_page.AddSegment(0x40000, kPage);
    last.LoadProgram(one_page);
  }
  EXPECT_EQ(m.ReadU32(0x10004), 0x22222222u);
  EXPECT_EQ(m.ReadU32(0x20000), 0x33333333u);
  Memory shared;
  shared.CopyFrom(m);
  m.WriteU32(0x10004, 5);
  EXPECT_EQ(m.ReadU32(0x10004), 5u);
  EXPECT_EQ(m.ReadU32(0x10000), 0x22222222u);
  EXPECT_EQ(shared.ReadU32(0x10004), 0x22222222u);

  // Holding the list's last reference, a memory writes the page in place.
  const std::uint8_t* page = last.PageData(0x40);
  last.WriteU32(0x40000, 9);
  EXPECT_EQ(last.PageData(0x40), page);
  EXPECT_EQ(last.ReadU32(0x40000), 9u);
}

// Two cores warm-started in turn from one WarmState (the benchmark's
// calibration and RunSampledFromTree both reuse one state this way) must
// behave identically, match a construct-then-install core, and leave the
// state's pages byte-identical.
TEST(MemoryCow, CoresWarmStartedFromOneStateLeaveItUntouched) {
  WorkloadConfig wc;
  wc.seed = 42;
  const Program prog = BuildWorkloadProgram("matrix", wc);
  const CoreConfig cfg = BaselineConfig(128);
  runner::CheckpointKey key;
  key.workload = "matrix";
  key.ff_instrs = 20'000;
  key.l1d = cfg.mem.l1d;
  key.l2 = cfg.mem.l2;
  key.bpred = cfg.bpred;
  const runner::FastForwardResult ff = runner::FastForward(prog, key);
  const WarmState& ws = ff.state;
  const auto before = Pages(ws.mem);
  constexpr std::uint64_t kInstrs = 20'000;

  // The window stores to memory: a functional run over it dirties pages
  // shared with the state.
  Emulator probe(prog);
  probe.Restore(ws.iregs, ws.fregs, ws.pc, ws.mem, ws.warmed_instrs);
  probe.Run(kInstrs);
  EXPECT_NE(Pages(probe.memory()), before);
  EXPECT_EQ(Pages(ws.mem), before);

  auto stats = [](const Core& core) {
    telemetry::StatRegistry reg;
    core.RegisterStats(reg);
    return reg.Json().Dump(2);
  };
  Core first(prog, cfg, nullptr, &ws);
  first.Run(kInstrs);
  EXPECT_EQ(Pages(ws.mem), before);
  Core second(prog, cfg, nullptr, &ws);
  second.Run(kInstrs);
  EXPECT_EQ(Pages(ws.mem), before);
  Core installed(prog, cfg);
  installed.InstallWarmState(ws);
  installed.Run(kInstrs);
  EXPECT_EQ(Pages(ws.mem), before);

  EXPECT_GE(first.stats().committed, kInstrs);
  EXPECT_EQ(stats(first), stats(second));
  EXPECT_EQ(stats(first), stats(installed));
  EXPECT_EQ(first.outputs(), second.outputs());
}

CacheConfig SmallCache() {
  return CacheConfig{"test", /*sets=*/4, /*block_bytes=*/16, /*assoc=*/2};
}

TEST(Cache, FirstAccessMissesThenHits) {
  Cache c(SmallCache());
  EXPECT_FALSE(c.Access(0x100, false, kMainThread));
  EXPECT_TRUE(c.Access(0x100, false, kMainThread));
  EXPECT_TRUE(c.Access(0x10f, false, kMainThread));   // same block
  EXPECT_FALSE(c.Access(0x110, false, kMainThread));  // next block
  EXPECT_EQ(c.misses(kMainThread), 2u);
  EXPECT_EQ(c.hits(kMainThread), 2u);
}

TEST(Cache, LruEvictionOrder) {
  Cache c(SmallCache());  // 2-way, 4 sets, 16B blocks -> set stride 64
  // Three blocks mapping to set 0: 0x000, 0x040, 0x080.
  c.Access(0x000, false, kMainThread);
  c.Access(0x040, false, kMainThread);
  c.Access(0x000, false, kMainThread);  // refresh 0x000; LRU is 0x040
  c.Access(0x080, false, kMainThread);  // evicts 0x040
  EXPECT_TRUE(c.Contains(0x000));
  EXPECT_FALSE(c.Contains(0x040));
  EXPECT_TRUE(c.Contains(0x080));
}

TEST(Cache, WritebackCountedOnDirtyEviction) {
  Cache c(SmallCache());
  c.Access(0x000, true, kMainThread);   // dirty
  c.Access(0x040, false, kMainThread);
  c.Access(0x080, false, kMainThread);  // evicts dirty 0x000
  EXPECT_EQ(c.writebacks(), 1u);
  c.Access(0x0c0, false, kMainThread);  // evicts clean 0x040
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, PerThreadAttribution) {
  Cache c(SmallCache());
  c.Access(0x000, false, kPThread);     // p-thread takes the miss
  c.Access(0x000, false, kMainThread);  // main thread hits (prefetched)
  EXPECT_EQ(c.misses(kPThread), 1u);
  EXPECT_EQ(c.misses(kMainThread), 0u);
  EXPECT_EQ(c.hits(kMainThread), 1u);
}

TEST(Cache, AsidKeysSeparateAddressSpaces) {
  // Shared-L2 CMP contract (DESIGN.md §17): the same virtual address from
  // two address spaces must occupy distinct lines — a hit in one space
  // never satisfies the other.
  Cache c(SmallCache());
  EXPECT_FALSE(c.Access(0x100, false, kMainThread, /*asid=*/0));
  EXPECT_FALSE(c.Access(0x100, false, kMainThread, /*asid=*/1));  // no alias
  EXPECT_TRUE(c.Access(0x100, false, kMainThread, /*asid=*/0));
  EXPECT_TRUE(c.Access(0x100, false, kMainThread, /*asid=*/1));
  EXPECT_TRUE(c.Contains(0x100, /*asid=*/0));
  EXPECT_TRUE(c.Contains(0x100, /*asid=*/1));
  EXPECT_FALSE(c.Contains(0x100, /*asid=*/2));
}

TEST(Cache, AsidZeroMatchesHistoricalSingleSpaceBehavior) {
  // asid 0 must key blocks exactly as the pre-CMP cache did so
  // single-program configs stay bit-exact.
  Cache a(SmallCache()), b(SmallCache());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Addr addr = static_cast<Addr>(rng.Below(0x400));
    const bool write = rng.Chance(0.3);
    EXPECT_EQ(a.Access(addr, write, kMainThread),
              b.Access(addr, write, kMainThread, /*asid=*/0));
  }
  EXPECT_EQ(a.misses(kMainThread), b.misses(kMainThread));
  EXPECT_EQ(a.writebacks(), b.writebacks());
}

TEST(Cache, ConfigureThreadSlotsWidensPerThreadCounters) {
  // SMT cores carry N main contexts + the p-thread; the per-thread
  // hit/miss vectors must track every tid independently.
  Cache c(SmallCache());
  c.ConfigureThreadSlots(4);
  for (ThreadId t = 0; t < 4; ++t) {
    c.Access(0x100, false, t);  // tid 0 misses, the rest hit
  }
  EXPECT_EQ(c.misses(0), 1u);
  EXPECT_EQ(c.hits(0), 0u);
  for (ThreadId t = 1; t < 4; ++t) {
    EXPECT_EQ(c.misses(t), 0u);
    EXPECT_EQ(c.hits(t), 1u);
  }
}

#ifndef NDEBUG
TEST(CacheDeathTest, OutOfRangeTidAborts) {
  // Regression: counters were hardcoded to two slots, so tid 2 from a
  // second SMT context silently corrupted adjacent memory.
  Cache c(SmallCache());  // default 2 slots: main + p-thread
  EXPECT_DEATH(c.Access(0x100, false, /*tid=*/2), "SPEAR_CHECK failed");
  EXPECT_DEATH(c.hits(2), "SPEAR_CHECK failed");
}
#endif

TEST(Cache, InvalidateEmptiesAllSets) {
  Cache c(SmallCache());
  c.Access(0x000, false, kMainThread);
  c.Access(0x210, false, kMainThread);
  c.Invalidate();
  EXPECT_FALSE(c.Contains(0x000));
  EXPECT_FALSE(c.Contains(0x210));
}

// Regression: the victim scan seeded its LRU argmin with way 0 and only
// probed validity from way 1, so a restored set whose way 0 was invalid
// but carried a nonzero stale stamp evicted a live line while free space
// sat unused. A CacheState is allowed to hold such lines (RestoreState
// installs lru for invalid ways verbatim).
TEST(Cache, MissPrefersInvalidWayZeroOverValidLruLine) {
  Cache donor(SmallCache());  // 2-way, 4 sets; set 0 = lines 0 and 1
  CacheState s = donor.SaveState();
  s.stamp = 100;
  s.tags[0] = 0;
  s.lru[0] = 50;   // invalid, but stale stamp outranks the live way's
  s.flags[0] = 0;  // way 0: invalid
  s.tags[1] = 0x040 >> 4;
  s.lru[1] = 3;
  s.flags[1] = 3;  // way 1: valid + dirty

  Cache c(SmallCache());
  ASSERT_TRUE(c.RestoreState(s));
  ASSERT_TRUE(c.Contains(0x040));
  EXPECT_FALSE(c.Access(0x080, false, kMainThread));  // miss into set 0
  EXPECT_TRUE(c.Contains(0x040)) << "live line evicted past an empty way";
  EXPECT_TRUE(c.Contains(0x080));
  EXPECT_EQ(c.writebacks(), 0u) << "spurious dirty writeback";
}

TEST(Cache, ContainsDoesNotAllocate) {
  Cache c(SmallCache());
  EXPECT_FALSE(c.Contains(0x700));
  EXPECT_FALSE(c.Contains(0x700));
  EXPECT_EQ(c.total_misses(), 0u);
  EXPECT_FALSE(c.Access(0x700, false, kMainThread));  // still a real miss
}

// Property: with a working set that fits, a second pass over the data never
// misses, for several shapes.
struct CacheShape {
  std::uint32_t sets, block, assoc;
};

class CacheSweep : public testing::TestWithParam<CacheShape> {};

TEST_P(CacheSweep, SecondPassOverFittingSetAllHits) {
  const CacheShape shape = GetParam();
  Cache c(CacheConfig{"sweep", shape.sets, shape.block, shape.assoc});
  const std::uint64_t capacity = c.config().SizeBytes();
  const std::uint32_t stride = shape.block;
  for (Addr a = 0; a < capacity; a += stride) c.Access(a, false, kMainThread);
  const std::uint64_t misses_after_fill = c.total_misses();
  for (Addr a = 0; a < capacity; a += stride) {
    EXPECT_TRUE(c.Access(a, false, kMainThread)) << "addr " << a;
  }
  EXPECT_EQ(c.total_misses(), misses_after_fill);
}

TEST_P(CacheSweep, ThrashingSetAlwaysMisses) {
  const CacheShape shape = GetParam();
  Cache c(CacheConfig{"thrash", shape.sets, shape.block, shape.assoc});
  // assoc+1 blocks in one set, accessed round-robin: every access misses.
  const std::uint32_t set_stride = shape.sets * shape.block;
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t w = 0; w <= shape.assoc; ++w) {
      EXPECT_FALSE(c.Access(w * set_stride, false, kMainThread));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheSweep,
    testing::Values(CacheShape{4, 16, 1}, CacheShape{4, 16, 2},
                    CacheShape{16, 32, 4}, CacheShape{256, 32, 4},
                    CacheShape{1024, 64, 4}, CacheShape{8, 64, 8}));

TEST(Hierarchy, LatenciesMatchServicingLevel) {
  HierarchyConfig cfg;
  MemoryHierarchy h(cfg);
  // Cold: L2 miss -> memory latency.
  AccessOutcome first = h.AccessData(0x1000, false, kMainThread, 0);
  EXPECT_TRUE(first.l1_miss);
  EXPECT_TRUE(first.l2_miss);
  EXPECT_EQ(first.latency, cfg.mem_latency);
  // While the fill is outstanding, a second access merges and pays the
  // remaining time (MSHR behaviour).
  AccessOutcome merged = h.AccessData(0x1000, false, kMainThread, 40);
  EXPECT_FALSE(merged.l1_miss);
  EXPECT_EQ(merged.latency, cfg.mem_latency - 40);
  // After the fill lands: a plain L1 hit.
  AccessOutcome second = h.AccessData(0x1000, false, kMainThread, 500);
  EXPECT_FALSE(second.l1_miss);
  EXPECT_EQ(second.latency, cfg.l1_latency);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  HierarchyConfig cfg;
  cfg.l1d = CacheConfig{"dl1", 2, 16, 1};  // tiny L1: 2 sets, direct-mapped
  MemoryHierarchy h(cfg);
  h.AccessData(0x000, false, kMainThread, 0);   // L1+L2 fill
  h.AccessData(0x020, false, kMainThread, 1000);
  AccessOutcome out = h.AccessData(0x000, false, kMainThread, 2000);
  EXPECT_TRUE(out.l1_miss);
  EXPECT_FALSE(out.l2_miss);
  EXPECT_EQ(out.latency, cfg.l2_latency);
}

TEST(Hierarchy, PaperDefaultGeometryMatchesTable2) {
  HierarchyConfig cfg;
  EXPECT_EQ(cfg.l1d.sets, 256u);
  EXPECT_EQ(cfg.l1d.block_bytes, 32u);
  EXPECT_EQ(cfg.l1d.assoc, 4u);
  EXPECT_EQ(cfg.l2.sets, 1024u);
  EXPECT_EQ(cfg.l2.block_bytes, 64u);
  EXPECT_EQ(cfg.l2.assoc, 4u);
  EXPECT_EQ(cfg.l1_latency, 1u);
  EXPECT_EQ(cfg.l2_latency, 12u);
  EXPECT_EQ(cfg.mem_latency, 120u);
}

TEST(Hierarchy, PThreadWarmupReducesMainThreadMisses) {
  // The essence of SPEAR prefetching at the cache level: thread 1 touching
  // a stream of blocks converts thread 0's cold misses into hits.
  HierarchyConfig cfg;
  MemoryHierarchy warm(cfg);
  MemoryHierarchy cold(cfg);
  std::vector<Addr> addrs;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    addrs.push_back(static_cast<Addr>(rng.Below(1u << 22)) & ~3u);
  }
  for (Addr a : addrs) warm.AccessData(a, false, kPThread, 0);
  std::uint64_t warm_misses = 0, cold_misses = 0;
  for (Addr a : addrs) {
    warm_misses += warm.AccessData(a, false, kMainThread, 1'000'000).l1_miss;
    cold_misses += cold.AccessData(a, false, kMainThread, 1'000'000).l1_miss;
  }
  EXPECT_LT(warm_misses, cold_misses / 4);
  EXPECT_EQ(warm.l1d().misses(kMainThread), warm_misses);
}

}  // namespace
}  // namespace spear

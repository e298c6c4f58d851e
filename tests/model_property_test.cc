// Model-based property tests: each hardware structure is driven with long
// random operation traces and compared step-by-step against a trivially
// correct reference model — the classic way to catch replacement-policy
// and ring-arithmetic bugs that example-based tests miss.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <type_traits>
#include <vector>

#include "common/circular_buffer.h"
#include "common/rng.h"
#include "analysis/cfg.h"
#include "analysis/loops.h"
#include "isa/assembler.h"
#include "mem/cache.h"
#include "workloads/workload.h"

namespace spear {
namespace {

// ---------------------------------------------------------------------------
// Cache vs a reference model: per-set LRU lists maintained with a std::map
// of std::deque (obviously correct, unoptimized).
// ---------------------------------------------------------------------------

class ReferenceCache {
 public:
  ReferenceCache(std::uint32_t sets, std::uint32_t block, std::uint32_t assoc)
      : sets_(sets), assoc_(assoc) {
    block_shift_ = 0;
    while ((1u << block_shift_) < block) ++block_shift_;
  }

  bool Access(Addr addr) {
    const std::uint64_t blk = addr >> block_shift_;
    const std::uint32_t set = static_cast<std::uint32_t>(blk) & (sets_ - 1);
    std::deque<std::uint64_t>& lru = sets_state_[set];  // front = MRU
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (*it == blk) {
        lru.erase(it);
        lru.push_front(blk);
        return true;
      }
    }
    lru.push_front(blk);
    if (lru.size() > assoc_) lru.pop_back();
    return false;
  }

 private:
  std::uint32_t sets_, assoc_;
  unsigned block_shift_;
  std::map<std::uint32_t, std::deque<std::uint64_t>> sets_state_;
};

struct CacheModelCase {
  std::uint32_t sets, block, assoc;
  std::uint32_t zero;  // the 4 bytes before `seed`, printed into test names
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<CacheModelCase>,
              "CacheModelCase must have no padding: its bytes name the cases");

class CacheVsModel : public testing::TestWithParam<CacheModelCase> {};

TEST_P(CacheVsModel, HitMissSequenceIdentical) {
  const CacheModelCase c = GetParam();
  Cache dut(CacheConfig{"dut", c.sets, c.block, c.assoc});
  ReferenceCache ref(c.sets, c.block, c.assoc);
  Rng rng(c.seed);
  // Addresses drawn from a footprint ~4x the cache so hits and misses mix.
  const std::uint64_t footprint = 4ull * c.sets * c.block * c.assoc;
  for (int i = 0; i < 50'000; ++i) {
    const Addr addr = static_cast<Addr>(rng.Below(footprint));
    const bool write = rng.Chance(0.3);
    ASSERT_EQ(dut.Access(addr, write, kMainThread), ref.Access(addr))
        << "step " << i << " addr " << addr;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheVsModel,
    testing::Values(CacheModelCase{4, 16, 1, 0, 1},
                    CacheModelCase{4, 16, 2, 0, 2},
                    CacheModelCase{16, 32, 4, 0, 3},
                    CacheModelCase{64, 64, 8, 0, 4},
                    CacheModelCase{256, 32, 4, 0, 5},
                    CacheModelCase{1, 16, 4, 0, 6}),  // fully associative-ish
    [](const testing::TestParamInfo<CacheModelCase>& info) {
      return "s" + std::to_string(info.param.sets) + "b" +
             std::to_string(info.param.block) + "a" +
             std::to_string(info.param.assoc);
    });

// ---------------------------------------------------------------------------
// CircularBuffer vs std::deque under random push/pop/squash traffic, with
// slot-stability checks.
// ---------------------------------------------------------------------------

class BufferVsModel : public testing::TestWithParam<int> {};

TEST_P(BufferVsModel, RandomOpsMatchDeque) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t cap = 1 + rng.Below(32);
  CircularBuffer<int> dut(cap);
  std::deque<int> ref;
  int next_value = 0;

  for (int step = 0; step < 20'000; ++step) {
    const int op = static_cast<int>(rng.Below(100));
    if (op < 45) {  // push
      if (!dut.full()) {
        ASSERT_FALSE(ref.size() == cap);
        const std::size_t slot = dut.PushBack(next_value);
        ref.push_back(next_value);
        ASSERT_EQ(dut.Slot(slot), next_value);
        ++next_value;
      } else {
        ASSERT_EQ(ref.size(), cap);
      }
    } else if (op < 80) {  // pop front
      if (!dut.empty()) {
        ASSERT_FALSE(ref.empty());
        ASSERT_EQ(dut.PopFront(), ref.front());
        ref.pop_front();
      } else {
        ASSERT_TRUE(ref.empty());
      }
    } else if (op < 90) {  // squash newest k
      const std::size_t k = rng.Below(dut.size() + 1);
      dut.PopBack(k);
      ref.erase(ref.end() - static_cast<long>(k), ref.end());
    } else {  // full content check
      ASSERT_EQ(dut.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(dut.At(i), ref[i]) << "logical index " << i;
        // Logical<->physical round trip on live entries.
        ASSERT_EQ(dut.LogicalIndex(dut.PhysicalIndex(i)), i);
        ASSERT_TRUE(dut.SlotLive(dut.PhysicalIndex(i)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferVsModel, testing::Range(1, 9));

// ---------------------------------------------------------------------------
// LoopForest vs generated loop nests: build programs from a random nest
// description (depth/children counts), then assert the analysis recovers
// exactly that nest.
// ---------------------------------------------------------------------------

struct NestSpec {
  int children_per_node;
  int depth;
};

// Recursively emits `children` nested counted loops per level.
void EmitNest(Assembler& a, const NestSpec& spec, int depth, int* loop_count,
              int reg_base) {
  if (depth > spec.depth) return;
  for (int c = 0; c < spec.children_per_node; ++c) {
    Label head = a.NewLabel();
    const RegId counter = IntReg(reg_base + depth);
    a.li(counter, 3);
    a.Bind(head);
    a.addi(IntReg(20), IntReg(20), 1);  // loop body payload
    EmitNest(a, spec, depth + 1, loop_count, reg_base);
    a.addi(counter, counter, -1);
    a.bne(counter, IntReg(0), head);
    ++*loop_count;
  }
}

class LoopNestProperty : public testing::TestWithParam<NestSpec> {};

TEST_P(LoopNestProperty, AnalysisRecoversTheNest) {
  const NestSpec spec = GetParam();
  Program prog;
  Assembler a(&prog);
  int expected_loops = 0;
  EmitNest(a, spec, 1, &expected_loops, 2);
  a.halt();
  a.Finish();

  const Cfg cfg = Cfg::Build(prog);
  const LoopForest lf = LoopForest::Build(cfg);
  EXPECT_EQ(lf.num_loops(), expected_loops);

  int max_depth = 0;
  for (const Loop& loop : lf.loops()) {
    max_depth = loop.depth > max_depth ? loop.depth : max_depth;
    // Every loop header dominates every block of its body.
    for (int b : loop.blocks) EXPECT_TRUE(lf.Dominates(loop.header, b));
    // Parent (if any) strictly contains the child.
    if (loop.parent != -1) {
      const Loop& parent = lf.loop(loop.parent);
      EXPECT_GT(parent.blocks.size(), loop.blocks.size());
      for (int b : loop.blocks) EXPECT_TRUE(parent.Contains(b));
      EXPECT_EQ(parent.depth + 1, loop.depth);
    } else {
      EXPECT_EQ(loop.depth, 1);
    }
  }
  EXPECT_EQ(max_depth, spec.depth);
}

INSTANTIATE_TEST_SUITE_P(Nests, LoopNestProperty,
                         testing::Values(NestSpec{1, 1}, NestSpec{1, 3},
                                         NestSpec{2, 2}, NestSpec{3, 1},
                                         NestSpec{2, 3}, NestSpec{1, 6}),
                         [](const testing::TestParamInfo<NestSpec>& info) {
                           return "c" + std::to_string(info.param.children_per_node) +
                                  "d" + std::to_string(info.param.depth);
                         });

// ---------------------------------------------------------------------------
// CFG structural invariants on every workload binary.
// ---------------------------------------------------------------------------

TEST(CfgInvariants, EveryInstructionInExactlyOneBlock) {
  for (const char* name : {"mcf", "gzip", "fft", "dm", "bzip2"}) {
    WorkloadConfig wcfg;
    const Program prog = BuildWorkloadProgram(name, wcfg);
    const Cfg cfg = Cfg::Build(prog);
    std::vector<int> covered(prog.text.size(), 0);
    for (const BasicBlock& bb : cfg.blocks()) {
      for (InstrIndex i = bb.first; i <= bb.last; ++i) {
        ++covered[i];
        EXPECT_EQ(cfg.BlockOf(i), bb.id);
      }
    }
    for (std::size_t i = 0; i < covered.size(); ++i) {
      EXPECT_EQ(covered[i], 1) << name << " instr " << i;
    }
    // Edge symmetry: every succ edge has the matching pred edge.
    for (const BasicBlock& bb : cfg.blocks()) {
      for (int s : bb.succs) {
        const auto& preds = cfg.block(s).preds;
        EXPECT_NE(std::find(preds.begin(), preds.end(), bb.id), preds.end());
      }
    }
  }
}

}  // namespace
}  // namespace spear

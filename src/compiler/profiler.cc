#include "compiler/profiler.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "sim/emulator.h"

namespace spear {
namespace {

// What the profiler needs of one text instruction, decoded once per run.
struct StaticInstr {
  std::array<RegId, 2> src{};  // register sources other than r0
  std::uint8_t nsrc = 0;
  std::int16_t dest = -1;      // written register, -1 for none
  int loop_slot = 0;           // innermost loop id + 1; 0 = in no loop
  bool header_entry = false;   // first instruction of its loop's header
};

// One dynamic instruction record in the profiling window.
struct Record {
  // Absolute record numbers of the register producers, then the last
  // store to the loaded word; -1 where there is none.
  std::int64_t producer[3] = {-1, -1, -1};
  InstrIndex index = 0;  // text index of the instruction
  std::uint8_t nproducers = 0;
  bool store = false;    // a store to `store_word` (memory_deps runs only)
  Addr store_word = 0;
};

// Last store to each word, over the stores still inside the window: open
// addressing with linear probing and backward-shift deletion. Entries hold
// at most `window` stores, so the table stays at most half full.
class WindowStores {
 public:
  explicit WindowStores(std::uint32_t window) {
    std::size_t cap = 8;
    int bits = 3;
    while (cap < 2 * static_cast<std::size_t>(window)) {
      cap <<= 1;
      ++bits;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
    shift_ = 64 - bits;
  }

  // Record number of the last in-window store to `word`, or -1.
  std::int64_t Find(Addr word) const {
    for (std::size_t i = Home(word);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id < 0) return -1;
      if (s.word == word) return s.id;
    }
  }

  void Put(Addr word, std::int64_t id) {
    std::size_t i = Home(word);
    while (slots_[i].id >= 0 && slots_[i].word != word) i = (i + 1) & mask_;
    slots_[i] = Slot{word, id};
  }

  // Forgets store `id` as it leaves the window, unless a later store to
  // the same word has replaced it.
  void Evict(Addr word, std::int64_t id) {
    std::size_t hole = Home(word);
    for (; slots_[hole].word != word; hole = (hole + 1) & mask_) {
      if (slots_[hole].id < 0) return;
    }
    if (slots_[hole].id != id) return;
    // Shift later chain members back into the hole unless that would move
    // one before its home slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].id >= 0;
         j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].word)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = -1;
  }

 private:
  struct Slot {
    Addr word = 0;
    std::int64_t id = -1;  // -1: empty
  };

  std::size_t Home(Addr word) const {
    return static_cast<std::size_t>(
        (std::uint64_t{word >> 2} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
};

class Profiler {
 public:
  Profiler(const Program& prog, const Cfg& cfg, const LoopForest& loops,
           const ProfilerOptions& options)
      : prog_(prog),
        loops_(loops),
        hier_(options.mem),
        window_(options.window),
        memory_deps_(options.memory_deps),
        stores_(options.window) {
    SPEAR_CHECK(window_ > 0);
    const std::size_t n = prog.text.size();
    statics_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Instruction& in = prog.text[i];
      StaticInstr& s = statics_[i];
      const SrcRegs srcs = SourcesOf(in);
      for (int k = 0; k < srcs.count; ++k) {
        if (srcs.reg[k] != kRegZero) s.src[s.nsrc++] = srcs.reg[k];
      }
      if (const auto rd = DestOf(in)) s.dest = static_cast<std::int16_t>(*rd);
      const int block = cfg.BlockOf(static_cast<InstrIndex>(i));
      const int inner = loops.InnermostAt(block);
      s.loop_slot = inner + 1;
      s.header_entry = inner != -1 && loops.loop(inner).header == block &&
                       cfg.block(block).first == i;
    }
    loop_cost_.assign(static_cast<std::size_t>(loops.num_loops()) + 1, 0);
    loop_visits_.assign(loop_cost_.size(), 0);
    execs_.assign(n, 0);
    misses_.assign(n, 0);
    vote_row_.assign(n, -1);

    std::size_t cap = 1;
    while (cap < options.window) cap <<= 1;
    ring_.resize(cap);
    ring_mask_ = cap - 1;
    stamp_.assign(cap, 0);
    work_.resize(options.window);
    reg_writer_.fill(-1);
  }

  void Observe(Pc pc, const ExecResult& res) {
    const InstrIndex index = prog_.IndexOf(pc);
    const StaticInstr& si = statics_[index];
    ++instrs_;

    // --- cost model & loop accounting ---
    std::uint32_t cost = 1;
    bool l1_miss = false;
    if (res.is_load || res.is_store) {
      const AccessOutcome out = hier_.AccessData(res.mem_addr, res.is_store,
                                                 kMainThread, /*now=*/instrs_);
      cost = out.latency;
      l1_miss = out.l1_miss;
    }
    loop_cost_[si.loop_slot] += cost;
    loop_visits_[si.loop_slot] += si.header_entry ? 1 : 0;

    // --- dependence record ---
    const std::int64_t rec_id = records_++;
    if (memory_deps_ && rec_id >= window_) {
      // Record rec_id - window leaves the window now (its slot may be the
      // one rec_id is about to take).
      const Record& gone = ring_[RingSlot(rec_id - window_)];
      if (gone.store) stores_.Evict(gone.store_word, rec_id - window_);
    }
    Record& rec = ring_[RingSlot(rec_id)];
    rec.index = index;
    rec.nproducers = si.nsrc;
    for (int k = 0; k < si.nsrc; ++k) rec.producer[k] = reg_writer_[si.src[k]];
    const Addr word = res.mem_addr & ~3u;
    if (res.is_load && memory_deps_) {
      rec.producer[rec.nproducers++] = stores_.Find(word);
    }
    if (si.dest >= 0) reg_writer_[si.dest] = rec_id;
    rec.store = res.is_store && memory_deps_;
    if (rec.store) {
      rec.store_word = word;
      stores_.Put(word, rec_id);
    }

    // --- load stats & miss-conditioned slicing ---
    if (res.is_load) {
      ++execs_[index];
      if (l1_miss) {
        ++misses_[index];
        ++total_l1_misses_;
        Walk(rec_id, VoteRow(index));
      }
    }
  }

  ProfileResult Finish() const {
    ProfileResult result;
    result.instrs = instrs_;
    result.total_l1_misses = total_l1_misses_;
    const std::size_t n = statics_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (execs_[i] == 0) continue;
      const Pc pc = prog_.PcOf(static_cast<InstrIndex>(i));
      result.loads.emplace_hint(result.loads.end(), pc,
                                LoadProfile{pc, execs_[i], misses_[i]});
      if (vote_row_[i] < 0) continue;
      const std::uint64_t* row =
          &votes_[static_cast<std::size_t>(vote_row_[i]) * n];
      auto& members = result.slice_votes[pc];
      for (std::size_t m = 0; m < n; ++m) {
        if (row[m] != 0) {
          members.emplace_hint(members.end(),
                               prog_.PcOf(static_cast<InstrIndex>(m)), row[m]);
        }
      }
    }

    // Push each loop's own cost up its nest. Costs are integer latencies
    // and the sums stay far below 2^53, so this equals adding every cost
    // to every enclosing loop in double as it happens.
    const int num_loops = loops_.num_loops();
    std::vector<std::uint64_t> total(static_cast<std::size_t>(num_loops), 0);
    for (int l = 0; l < num_loops; ++l) {
      const std::uint64_t own = loop_cost_[static_cast<std::size_t>(l) + 1];
      for (int up = l; up != -1; up = loops_.loop(up).parent) {
        total[static_cast<std::size_t>(up)] += own;
      }
    }
    result.loops.resize(static_cast<std::size_t>(num_loops));
    for (int l = 0; l < num_loops; ++l) {
      LoopProfile& lp = result.loops[static_cast<std::size_t>(l)];
      lp.loop_id = l;
      lp.header_visits = loop_visits_[static_cast<std::size_t>(l) + 1];
      lp.total_cost = static_cast<double>(total[static_cast<std::size_t>(l)]);
    }
    return result;
  }

 private:
  std::size_t RingSlot(std::int64_t id) const {
    return static_cast<std::size_t>(id) & ring_mask_;
  }

  // The vote counters of d-load `index`, one per text instruction; a row
  // is allocated at the load's first miss.
  std::uint64_t* VoteRow(InstrIndex index) {
    const std::size_t n = statics_.size();
    if (vote_row_[index] < 0) {
      vote_row_[index] = static_cast<std::int32_t>(votes_.size() / n);
      votes_.resize(votes_.size() + n, 0);
    }
    return &votes_[static_cast<std::size_t>(vote_row_[index]) * n];
  }

  // Backward walk over the in-window dependence chains from the missing
  // load's record; every record reached votes for its static instruction.
  // A record is stamped when pushed, so each is pushed at most once and
  // the stack never holds more than the window.
  void Walk(std::int64_t rec_id, std::uint64_t* votes) {
    const std::int64_t oldest = std::max<std::int64_t>(0, records_ - window_);
    ++walk_id_;
    std::size_t depth = 0;
    work_[depth++] = RingSlot(rec_id);
    stamp_[RingSlot(rec_id)] = walk_id_;
    while (depth != 0) {
      const Record& r = ring_[work_[--depth]];
      ++votes[r.index];
      for (int k = 0; k < r.nproducers; ++k) {
        const std::int64_t p = r.producer[k];
        if (p < oldest) continue;
        const std::size_t slot = RingSlot(p);
        if (stamp_[slot] == walk_id_) continue;
        stamp_[slot] = walk_id_;
        work_[depth++] = slot;
      }
    }
  }

  const Program& prog_;
  const LoopForest& loops_;
  MemoryHierarchy hier_;
  const std::int64_t window_;
  const bool memory_deps_;

  std::vector<StaticInstr> statics_;  // by text index

  std::uint64_t instrs_ = 0;
  std::uint64_t total_l1_misses_ = 0;
  std::vector<std::uint64_t> loop_cost_;    // by loop_slot
  std::vector<std::uint64_t> loop_visits_;  // by loop_slot
  std::vector<std::uint64_t> execs_;        // by text index
  std::vector<std::uint64_t> misses_;       // by text index
  std::vector<std::int32_t> vote_row_;      // by text index, -1: no misses
  std::vector<std::uint64_t> votes_;        // rows of text-size counters

  // Dependence window: a power-of-two ring at least `window` long, so the
  // records of the last `window` ids never share a slot.
  std::vector<Record> ring_;
  std::size_t ring_mask_ = 0;
  std::int64_t records_ = 0;  // absolute id of the next record
  std::array<std::int64_t, kNumArchRegs> reg_writer_;
  WindowStores stores_;

  std::vector<std::uint64_t> stamp_;  // per ring slot: last walk to visit
  std::uint64_t walk_id_ = 0;
  std::vector<std::size_t> work_;
};

}  // namespace

ProfileResult ProfileProgram(const Program& prog, const Cfg& cfg,
                             const LoopForest& loops,
                             const ProfilerOptions& options) {
  Profiler profiler(prog, cfg, loops, options);
  Emulator emu(prog);
  emu.Run(options.max_instrs,
          [&profiler](Pc pc, const Instruction&, const ExecResult& res) {
            profiler.Observe(pc, res);
          });
  return profiler.Finish();
}

}  // namespace spear

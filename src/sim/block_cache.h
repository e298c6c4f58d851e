// Decoded basic-block dispatch cache (the classic ISS optimization): a
// PC-keyed cache of straight-line instruction runs, where every record
// carries the decoded Instruction, the P-thread Table pre-decode marks the
// Core's pre-decoder would otherwise re-probe on every fetch (p-thread
// indicator + d-load spec index, each a hash lookup per visit), and a
// precategorized exec-dispatch tag derived from the opcode table.
//
// Both hot loops consume the same records through two views:
//   * Record(pc)  — per-instruction (Core fetch + pre-decode): one bounds
//     check and one array index per fetched instruction;
//   * Lookup(pc)  — block-at-a-time (Emulator::Run): the contiguous run
//     starting at pc, executed without per-step containment checks or
//     table probes.
//
// Blocks are built lazily on first touch and end at a control instruction,
// a HALT, the text-section boundary, or the edge of an already-built
// region (runs are never merged, so record storage never moves). Records
// live in an arena and are dropped wholesale when the cache is re-attached
// to a different code image: invalidation keys on a fingerprint of the
// program's text + entry + p-thread section (the same FNV-1a scheme the
// farm result cache uses for whole-binary fingerprints), so attaching a
// different SPEARBIN or PT flushes and a warm re-attach keeps everything.
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "isa/program.h"
#include "spear/pthread_table.h"

namespace spear {

// Exec-dispatch tag bits, precomputed from GetOpInfo at decode time so the
// hot loops never re-consult the opcode table.
inline constexpr std::uint8_t kTagControl = 1u << 0;
inline constexpr std::uint8_t kTagCondBranch = 1u << 1;
inline constexpr std::uint8_t kTagHalt = 1u << 2;
inline constexpr std::uint8_t kTagLoad = 1u << 3;
inline constexpr std::uint8_t kTagStore = 1u << 4;
inline constexpr std::uint8_t kTagOut = 1u << 5;

// One pre-resolved instruction record. Semantics stay single-sourced in
// ExecuteInstruction (sim/exec.h) — the tag only classifies, it never
// executes.
struct DecodedInstr {
  Instruction instr;
  std::uint8_t tag = 0;
  // P-thread Table pre-decode marks (always false/-1 when the cache was
  // attached without a PT, matching a pre-decoder that is switched off).
  bool pthread_indicator = false;
  std::int32_t dload_spec = -1;  // PThreadTable::kNoSpec

  bool is_control() const { return tag & kTagControl; }
  bool is_halt() const { return tag & kTagHalt; }
};

class BlockCache {
 public:
  // A straight-line run of decoded records. `recs[0..len)` is contiguous;
  // only the last record can be a control instruction or HALT.
  struct Block {
    const DecodedInstr* recs = nullptr;
    std::uint32_t len = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;          // record/block served from cache
    std::uint64_t misses = 0;        // lookups that built a block
    std::uint64_t blocks_built = 0;
    std::uint64_t instrs_decoded = 0;
    std::uint64_t flushes = 0;       // fingerprint-change invalidations
  };

  BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Binds the cache to a program image, baking `pt`'s pre-decode marks
  // into the records (pass nullptr when the pre-decoder is off). A warm
  // re-attach (same fingerprint) keeps every built block — that is what
  // lets the sampled-run orchestrator reuse one cache across per-interval
  // cores; anything else flushes.
  void Attach(const Program& prog, const PThreadTable* pt);

  bool attached() const { return prog_ != nullptr; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const Stats& stats() const { return stats_; }

  // Fingerprint of the code image the records depend on: text bytes,
  // text_base, entry, and (when `marks` is set) the p-thread section's
  // d-load PCs and slice PCs. Data segments are deliberately excluded —
  // they cannot affect decode or pre-decode marks.
  static std::uint64_t CodeFingerprint(const Program& prog, bool marks);

  // Per-instruction view: the record at `pc`, or nullptr when `pc` is not
  // a valid text PC (exactly Program::ContainsPc semantics, so a fetch
  // stall on a wild PC behaves as before).
  const DecodedInstr* Record(Pc pc) {
    if (!InText(pc)) return nullptr;
    const std::uint32_t idx = (pc - text_base_) >> kInstrShift;
    if (recs_[idx] != nullptr) {
      ++stats_.hits;
      return recs_[idx];
    }
    return Build(idx);
  }

  // Block view: the run starting at `pc` (built on miss), or an empty
  // block when `pc` is not a valid text PC.
  Block Lookup(Pc pc) {
    if (!InText(pc)) return Block{};
    const std::uint32_t idx = (pc - text_base_) >> kInstrShift;
    if (recs_[idx] != nullptr) {
      ++stats_.hits;
      return Block{recs_[idx], len_[idx]};
    }
    Build(idx);
    return Block{recs_[idx], len_[idx]};
  }

 private:
  static constexpr std::uint32_t kInstrShift = 3;
  static_assert((1u << kInstrShift) == kInstrBytes);

  bool InText(Pc pc) const {
    return pc >= text_base_ && pc < text_end_ &&
           ((pc - text_base_) & (kInstrBytes - 1)) == 0;
  }

  // Decodes the run starting at `idx`; returns its first record.
  const DecodedInstr* Build(std::uint32_t idx);

  const Program* prog_ = nullptr;
  const PThreadTable* pt_ = nullptr;
  std::uint64_t fingerprint_ = 0;
  Pc text_base_ = 0;
  Pc text_end_ = 0;

  // Per-instruction-index tables: the record pointer (nullptr = not yet
  // built) and the contiguous run length from that index to the end of
  // its arena run.
  std::vector<const DecodedInstr*> recs_;
  std::vector<std::uint32_t> len_;
  Arena arena_;
  Stats stats_;
};

}  // namespace spear

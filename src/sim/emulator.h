// Architectural-state functional emulator.
//
// Four roles:
//   1. Reference semantics — the oracle the pipeline integration tests
//      and lockstep cosim compare against.
//   2. Substrate for the SPEAR profiling tool (per-instruction observer).
//   3. The functional substrate fast-forward and sampling warm on.
//   4. Fast workload validation during development.
//
// Run() executes block-at-a-time through a decoded basic-block cache
// (sim/block_cache.h): one cache lookup per straight-line run instead of a
// PC containment check and text-table probe per instruction. An optional
// per-instruction observer rides on that loop, which is how the
// post-compiler's profiling pass (ProfileProgram) and the
// fast-forward/sampling warming routine (runner::Warmer) see every
// retired instruction at block-dispatch speed. Step() keeps the
// one-instruction-per-call contract lockstep cosim needs.
// Semantics stay single-sourced in ExecuteInstruction — the cache only
// stores decode/classification results, so the two paths cannot diverge.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "isa/program.h"
#include "mem/memory.h"
#include "sim/block_cache.h"
#include "sim/exec.h"

namespace spear {

// Everything Step() reports about one retired instruction (Run()'s
// observer gets the same facts as separate arguments).
struct StepInfo {
  Pc pc = 0;
  Instruction instr;
  ExecResult result;
  std::uint64_t icount = 0;  // 1-based dynamic instruction number
};

class Emulator {
 public:
  // `shared_cache` lets several same-program consumers (e.g. per-interval
  // shadow emulators) reuse one decoded-block cache; the emulator attaches
  // it on first Run(). Default: a private cache, created lazily so pure
  // Step() users (lockstep cosim) pay nothing for it.
  explicit Emulator(const Program& prog, BlockCache* shared_cache = nullptr)
      : prog_(&prog), pc_(prog.entry), shared_cache_(shared_cache) {
    iregs_.fill(0);
    fregs_.fill(0.0);
    mem_.LoadProgram(prog);
    // Conventional stack: grows down from just under 256 MiB — relocated
    // above any data segment that reaches the stack band (isa/program.h).
    iregs_[kRegSp] = InitialStackPointer(prog);
  }

  bool halted() const { return halted_; }
  // The PC left the text section (wild jr target, corrupt return address):
  // a structured error instead of the old CHECK-abort, so orchestrators
  // can surface the run as a failed row. fault_pc() is the offending PC.
  bool faulted() const { return faulted_; }
  Pc fault_pc() const { return fault_pc_; }
  Pc pc() const { return pc_; }
  std::uint64_t icount() const { return icount_; }
  const std::vector<std::uint32_t>& outputs() const { return outputs_; }

  std::uint32_t ReadIntReg(RegId reg) const {
    SPEAR_DCHECK(!IsFpReg(reg));
    return reg == kRegZero ? 0 : iregs_[reg];
  }
  double ReadFpReg(RegId reg) const {
    SPEAR_DCHECK(IsFpReg(reg));
    return fregs_[FpIndex(reg)];
  }
  // Unified read used by trigger logic and tests: FP values are returned
  // as raw bits elsewhere; here we expose typed variants only.
  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }

  // The decoded-block cache backing Run() (nullptr until first use).
  const BlockCache* block_cache() const { return cache_; }

  // Executes one instruction; undefined if already halted or faulted.
  // On an out-of-text PC the emulator latches faulted() and returns a
  // StepInfo with a default (no-effect) result — callers' loops must test
  // faulted() alongside halted().
  StepInfo Step() {
    SPEAR_CHECK(!halted_ && !faulted_);
    StepInfo info;
    info.pc = pc_;
    if (!prog_->ContainsPc(pc_)) {
      faulted_ = true;
      fault_pc_ = pc_;
      info.icount = icount_;
      return info;
    }
    info.instr = prog_->At(pc_);
    ArchState st{this};
    info.result = ExecuteInstruction(st, info.instr, pc_);
    ++icount_;
    info.icount = icount_;
    if (info.result.out_value) outputs_.push_back(*info.result.out_value);
    halted_ = info.result.halted;
    pc_ = info.result.next_pc;
    return info;
  }

  // Runs until halt, fault, or the instruction budget is exhausted.
  // Returns the number of instructions executed by this call; the fetch
  // that finds an out-of-text PC executes nothing and is not counted.
  std::uint64_t Run(std::uint64_t max_instrs) {
    return Run(max_instrs, [](Pc, const Instruction&, const ExecResult&) {});
  }

  // As Run(max_instrs), calling `observe(pc, instr, result)` after every
  // executed instruction (the HALT included), in program order. The
  // observer is inlined into the block loop, so the observer-free Run
  // above pays nothing for it. Flattened:
  // ExecuteInstruction must inline here so the per-instruction ExecResult
  // never materializes in memory.
  template <typename Observer>
  SPEAR_FLATTEN std::uint64_t Run(std::uint64_t max_instrs,
                                  Observer&& observe) {
    BlockCache& bc = EnsureCache();
    std::uint64_t n = 0;
    ArchState st{this};
    while (!halted_ && !faulted_ && n < max_instrs) {
      const BlockCache::Block b = bc.Lookup(pc_);
      if (b.len == 0) {  // pc outside text: structured fault
        faulted_ = true;
        fault_pc_ = pc_;
        break;
      }
      const std::uint64_t budget = max_instrs - n;
      const std::uint32_t take =
          b.len <= budget ? b.len : static_cast<std::uint32_t>(budget);
      Pc pc = pc_;
      std::uint32_t i = 0;
      while (i < take) {
        const Instruction& instr = b.recs[i].instr;
        const ExecResult res = ExecuteInstruction(st, instr, pc);
        ++i;
        observe(pc, instr, res);
        pc = res.next_pc;
        if (res.out_value) outputs_.push_back(*res.out_value);
        if (res.halted) {
          halted_ = true;
          break;
        }
      }
      n += i;
      icount_ += i;
      pc_ = pc;
    }
    return n;
  }

  // Re-seats the emulator at an externally produced architectural state
  // (a functional fast-forward or a restored checkpoint), so it can shadow
  // a warm-started core from the switch point onward. `icount` is the
  // instruction count already consumed producing that state. `mem` is
  // shared copy-on-write, not copied (mem/memory.h).
  void Restore(const std::array<std::uint32_t, kNumIntRegs>& iregs,
               const std::array<double, kNumFpRegs>& fregs, Pc pc,
               const Memory& mem, std::uint64_t icount) {
    SPEAR_CHECK(prog_->ContainsPc(pc));
    iregs_ = iregs;
    iregs_[kRegZero] = 0;  // r0 stays hardwired whatever the source held
    fregs_ = fregs;
    pc_ = pc;
    mem_.CopyFrom(mem);
    icount_ = icount;
    halted_ = false;
    faulted_ = false;
    outputs_.clear();
  }

 private:
  // The state-concept adapter handed to ExecuteInstruction. r0 is masked
  // here as well as in the exec helpers: a state object must never expose
  // a stale r0 value (or accept one), even to a caller that bypasses the
  // rint/wint guards — that's the contract warm-state restore and any
  // future direct user rely on.
  struct ArchState {
    Emulator* e;
    std::uint32_t ReadInt(RegId reg) {
      return reg == kRegZero ? 0 : e->iregs_[reg];
    }
    void WriteInt(RegId reg, std::uint32_t v) {
      if (reg != kRegZero) e->iregs_[reg] = v;
    }
    double ReadFp(RegId reg) { return e->fregs_[FpIndex(reg)]; }
    void WriteFp(RegId reg, double v) { e->fregs_[FpIndex(reg)] = v; }
    std::uint32_t LoadU32(Addr a) { return e->mem_.ReadU32(a); }
    std::uint8_t LoadU8(Addr a) { return e->mem_.ReadU8(a); }
    double LoadF64(Addr a) { return e->mem_.ReadF64(a); }
    void StoreU32(Addr a, std::uint32_t v) { e->mem_.WriteU32(a, v); }
    void StoreU8(Addr a, std::uint8_t v) { e->mem_.WriteU8(a, v); }
    void StoreF64(Addr a, double v) { e->mem_.WriteF64(a, v); }
  };

  BlockCache& EnsureCache() {
    if (cache_ == nullptr) {
      if (shared_cache_ != nullptr) {
        cache_ = shared_cache_;
      } else {
        own_cache_ = std::make_unique<BlockCache>();
        cache_ = own_cache_.get();
      }
      // No PT marks: the emulator never pre-decodes. A shared cache must
      // therefore only be shared between mark-less consumers.
      cache_->Attach(*prog_, nullptr);
    }
    return *cache_;
  }

  const Program* prog_;
  Memory mem_;
  std::array<std::uint32_t, kNumIntRegs> iregs_;
  std::array<double, kNumFpRegs> fregs_;
  Pc pc_;
  bool halted_ = false;
  bool faulted_ = false;
  Pc fault_pc_ = 0;
  std::uint64_t icount_ = 0;
  std::vector<std::uint32_t> outputs_;
  BlockCache* shared_cache_ = nullptr;
  BlockCache* cache_ = nullptr;
  std::unique_ptr<BlockCache> own_cache_;
};

}  // namespace spear

// Dynamic taint-tracking observer over speculative execution — the runtime
// half of the speculative-leakage analysis (the static half is
// analysis/taint.h).
//
// The core calls in at three kinds of events:
//   * execute-at-dispatch of every instruction (main thread, wrong path,
//     p-thread) — register/memory shadow taint propagation and the
//     tainted-address / secret-load counters;
//   * cache access at issue time — which cache lines each speculative
//     episode touches;
//   * episode boundaries (wrong-path recovery, p-thread session start/end)
//     — the leakage-surface histogram sample and overlay discard.
//
// Taint sources mirror the static pass: loads from a @secret range
// (Program::secret_ranges) taint on every path; any load executed
// speculatively (wrong path or p-thread) taints its result. Wrong-path
// taint overlays the main-thread state and is discarded at recovery, the
// same discipline the core applies to its spec_* register/memory overlays.
// P-thread taint starts from the live-in copy and dies with the session.
//
// Everything emits through StatRegistry as `core.spec_leak.*`. The hooks
// compile out under -DSPEAR_ENABLE_TAINT=0 (mirroring
// SPEAR_TELEMETRY_TRACE); the default build keeps them at one null-pointer
// test per event.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"
#include "isa/program.h"
#include "sim/exec.h"
#include "telemetry/registry.h"
#include "telemetry/stat.h"

#ifndef SPEAR_ENABLE_TAINT
#define SPEAR_ENABLE_TAINT 1
#endif

namespace spear::taint {

inline constexpr bool kTaintCompiled = SPEAR_ENABLE_TAINT != 0;

class TaintObserver {
 public:
  // `prog` supplies the @secret ranges and must outlive the observer;
  // `block_bytes` is the L1-D line size (leakage is observed per line).
  TaintObserver(const Program& prog, std::uint32_t block_bytes)
      : prog_(&prog) {
    while ((1u << block_shift_) < block_bytes) ++block_shift_;
  }

  // --- execute-at-dispatch hooks -----------------------------------------

  void OnMainExec(const Instruction& in, const ExecResult& ex,
                  bool wrongpath) {
    if (wrongpath && !in_wrongpath_) {
      // First wrong-path instruction: overlay the committed-path taint.
      in_wrongpath_ = true;
      wp_regs_ = main_regs_;
      wp_mem_.clear();
      wp_lines_.clear();
    }
    Step(in, ex, wrongpath ? Ctx::kWrongPath : Ctx::kMain);
  }

  void OnPThreadExec(const Instruction& in, const ExecResult& ex) {
    if (!pt_active_) return;  // trailing in-flight work after session end
    Step(in, ex, Ctx::kPThread);
  }

  // --- episode boundaries -------------------------------------------------

  // Mispredict recovery: the wrong-path overlay dies with the squashed
  // instructions. No-op when the resolved branch never let a wrong-path
  // instruction reach dispatch.
  void OnWrongPathEnd() {
    if (!in_wrongpath_) return;
    in_wrongpath_ = false;
    surface_.Add(wp_lines_.size());
    ++wp_episodes_;
    wp_regs_ = 0;
    wp_mem_.clear();
    wp_lines_.clear();
  }

  // Live-in snapshot at p-thread launch: the session inherits exactly the
  // taint of the copied registers.
  void OnPThreadSessionStart(const std::vector<RegId>& live_ins) {
    pt_active_ = true;
    pt_regs_ = 0;
    for (RegId r : live_ins) {
      if ((main_regs_ >> (r & 63)) & 1) pt_regs_ |= 1ull << (r & 63);
    }
    pt_lines_.clear();
  }

  void OnPThreadSessionEnd() {
    if (!pt_active_) return;
    pt_active_ = false;
    surface_.Add(pt_lines_.size());
    ++pt_sessions_;
    pt_regs_ = 0;
    pt_lines_.clear();
  }

  // --- issue-time cache hook ----------------------------------------------

  void OnCacheAccess(Addr addr, bool pthread, bool wrongpath) {
    const Addr line = addr >> block_shift_;
    if (pthread) {
      spec_lines_.insert(line);
      if (pt_active_) pt_lines_.insert(line);
    } else if (wrongpath) {
      spec_lines_.insert(line);
      if (in_wrongpath_) wp_lines_.insert(line);
    } else {
      demand_lines_.insert(line);
    }
  }

  // --- telemetry ----------------------------------------------------------

  void RegisterStats(telemetry::StatRegistry& reg,
                     const std::string& prefix = "core.spec_leak.") {
    reg.BindCounter(prefix + "loads.spec", &spec_loads_,
                    "loads executed speculatively (wrong path or p-thread)");
    reg.BindCounter(prefix + "loads.tainted_addr", &tainted_addr_loads_,
                    "loads whose address register carried taint at execute");
    reg.BindCounter(prefix + "loads.secret", &secret_loads_,
                    "loads reading a declared @secret range");
    reg.BindCounter(prefix + "episodes.wrongpath", &wp_episodes_,
                    "wrong-path episodes that reached dispatch");
    reg.BindCounter(prefix + "episodes.pthread", &pt_sessions_,
                    "p-thread pre-execution sessions observed");
    reg.AddFormula(prefix + "lines.spec",
                   [this] { return static_cast<double>(spec_lines_.size()); },
                   "distinct cache lines touched by speculative accesses");
    reg.AddFormula(prefix + "lines.demand",
                   [this] { return static_cast<double>(demand_lines_.size()); },
                   "distinct cache lines touched by committed-path accesses");
    reg.AddFormula(prefix + "lines.spec_only",
                   [this] { return static_cast<double>(SpecOnlyLines()); },
                   "cache lines touched only speculatively: the attacker-"
                   "observable leakage surface");
    reg.BindDistribution(prefix + "surface", &surface_,
                         "cache lines touched per speculative episode");
  }

  std::uint64_t spec_loads() const { return spec_loads_; }
  std::uint64_t tainted_addr_loads() const { return tainted_addr_loads_; }
  std::uint64_t secret_loads() const { return secret_loads_; }
  std::uint64_t spec_line_count() const { return spec_lines_.size(); }
  std::uint64_t demand_line_count() const { return demand_lines_.size(); }

  std::uint64_t SpecOnlyLines() const {
    std::uint64_t n = 0;
    for (Addr line : spec_lines_) n += demand_lines_.count(line) == 0;
    return n;
  }

 private:
  // Which shadow state an executing instruction reads and writes.
  enum class Ctx { kMain, kWrongPath, kPThread };

  static bool Bit(std::uint64_t mask, RegId r) { return (mask >> (r & 63)) & 1; }
  static void SetBit(std::uint64_t& mask, RegId r, bool v) {
    const std::uint64_t bit = 1ull << (r & 63);
    mask = v ? (mask | bit) : (mask & ~bit);
  }

  std::uint64_t& Regs(Ctx ctx) {
    switch (ctx) {
      case Ctx::kWrongPath: return wp_regs_;
      case Ctx::kPThread: return pt_regs_;
      default: return main_regs_;
    }
  }

  bool MemTainted(Ctx ctx, Addr addr, std::uint32_t bytes) const {
    for (std::uint32_t i = 0; i < bytes; ++i) {
      const Addr a = addr + i;
      if (ctx == Ctx::kWrongPath) {
        // Wrong-path stores shadow the committed-path bytes.
        auto it = wp_mem_.find(a);
        if (it != wp_mem_.end()) {
          if (it->second) return true;
          continue;
        }
      }
      if (main_mem_.count(a) > 0) return true;
    }
    return false;
  }

  void TaintMem(Ctx ctx, Addr addr, std::uint32_t bytes, bool taint) {
    for (std::uint32_t i = 0; i < bytes; ++i) {
      const Addr a = addr + i;
      if (ctx == Ctx::kWrongPath) {
        wp_mem_[a] = taint;
      } else if (taint) {
        main_mem_.insert(a);
      } else {
        main_mem_.erase(a);
      }
    }
  }

  void Step(const Instruction& in, const ExecResult& ex, Ctx ctx) {
    std::uint64_t& regs = Regs(ctx);
    const SrcRegs srcs = SourcesOf(in);
    bool src_taint = false;
    for (int i = 0; i < srcs.count; ++i) {
      const RegId r = srcs.reg[i];
      if (r != kRegZero && Bit(regs, r)) src_taint = true;
    }
    const std::uint32_t bytes = GetOpInfo(in.op).access_bytes;
    const auto rd = DestOf(in);

    if (ex.is_load) {
      const bool speculative = ctx != Ctx::kMain;
      const bool addr_taint = in.rs != kRegZero && Bit(regs, in.rs);
      const bool secret = prog_->IsSecretAddr(ex.mem_addr, bytes);
      if (speculative) ++spec_loads_;
      if (addr_taint) ++tainted_addr_loads_;
      if (secret) ++secret_loads_;
      if (rd) {
        SetBit(regs, *rd, speculative || secret || addr_taint ||
                              MemTainted(ctx, ex.mem_addr, bytes));
      }
      return;
    }
    if (ex.is_store) {
      // Taint of the stored value (rt); address taint does not transfer.
      const bool value_taint = in.rt != kRegZero && Bit(regs, in.rt);
      TaintMem(ctx, ex.mem_addr, bytes, value_taint);
      return;
    }
    if (rd) SetBit(regs, *rd, src_taint);
  }

  const Program* prog_;
  std::uint32_t block_shift_ = 0;

  // Shadow register taint, one bit per unified register id.
  std::uint64_t main_regs_ = 0;
  std::uint64_t wp_regs_ = 0;
  std::uint64_t pt_regs_ = 0;
  bool in_wrongpath_ = false;
  bool pt_active_ = false;

  // Byte-granular shadow memory: committed-path tainted bytes, plus a
  // wrong-path overlay discarded at recovery (p-thread slices are
  // store-free by contract, so they need no overlay).
  std::unordered_set<Addr> main_mem_;
  std::unordered_map<Addr, bool> wp_mem_;

  // Cache-line footprints (line ids, i.e. addr >> block_shift).
  std::unordered_set<Addr> spec_lines_;
  std::unordered_set<Addr> demand_lines_;
  std::unordered_set<Addr> wp_lines_;
  std::unordered_set<Addr> pt_lines_;

  std::uint64_t spec_loads_ = 0;
  std::uint64_t tainted_addr_loads_ = 0;
  std::uint64_t secret_loads_ = 0;
  std::uint64_t wp_episodes_ = 0;
  std::uint64_t pt_sessions_ = 0;
  telemetry::Distribution surface_{std::vector<std::uint64_t>{
      0, 1, 2, 4, 8, 16, 32, 64, 128}};
};

}  // namespace spear::taint

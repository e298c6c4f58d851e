// The SPEAR cycle-level core: an 8-wide out-of-order SMT pipeline in the
// sim-outorder tradition, extended with the SPEAR front end (paper
// Section 3):
//
//   fetch -> pre-decode(PD) -> IFQ -> decode/rename -> RUU -> issue ->
//   FUs/memory -> writeback -> commit
//
// Execution model: instructions execute *functionally* at dispatch against
// the in-order dispatch state; the scheduler models timing only. A
// mispredicted (correct-path) branch flips dispatch into speculative-
// overlay mode; its writeback squashes younger entries, discards the
// overlay, flushes the IFQ and redirects fetch.
//
// SPEAR additions: the pre-decoder marks IFQ entries from the P-thread
// Table; the trigger logic (d-load pre-decoded while IFQ >= half full)
// drains the RUU, copies live-ins at 1 reg/cycle, then activates the
// P-thread Extractor, which pulls marked entries out of the IFQ (<= 4 per
// cycle, sharing decode bandwidth) into the p-thread context. P-thread
// instructions get issue priority; their loads warm the shared D-cache;
// pre-execution ends when the triggering d-load retires from the p-thread
// RUU.
//
// Multi-program SMT (DESIGN.md §17): the core hosts N main-thread
// contexts (tids 0..N-1), each with its own program, dispatch-time memory
// image, IFQ share (ifq_size/N) and RUU partition (ruu_size/N), plus one
// p-thread context at tid N. Fetch picks one thread per cycle by ICOUNT
// (fewest in-flight instructions); dispatch/issue/commit bandwidth is
// shared round-robin. At N=1 every policy degenerates to the historical
// single-thread operation sequence, bit-exactly.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bpred/bpred.h"
#include "common/circular_buffer.h"
#include "common/types.h"
#include "cosim/commit_record.h"
#include "cpu/config.h"
#include "cpu/pipeline_types.h"
#include "cpu/scheduler.h"
#include "cpu/warm_state.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "mem/memory.h"
#include "mem/stride_prefetcher.h"
#include "sim/block_cache.h"
#include "spear/pthread_context.h"
#include "spear/pthread_table.h"
#include "spear/taint_observer.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace spear {

struct RunResult {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;  // main-thread committed (all threads)
  bool halted = false;
  double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

// Per-main-thread outcome for multiprogram runs (weighted speedup and
// fairness are derived from these by the harness).
struct ThreadResult {
  std::uint64_t committed = 0;
  Cycle cycles = 0;  // halt cycle, or total elapsed if still running
  bool halted = false;
  double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed) /
                             static_cast<double>(cycles);
  }
};

// Aggregate counters exposed to benches and tests.
struct CoreStats {
  Cycle cycles = 0;
  std::uint64_t committed = 0;          // main-thread instructions
  std::uint64_t committed_loads = 0;
  std::uint64_t committed_stores = 0;
  std::uint64_t committed_branches = 0;     // all control
  std::uint64_t committed_cond_branches = 0;
  std::uint64_t bpred_dir_correct = 0;      // conditional direction hits
  std::uint64_t mispredict_recoveries = 0;
  std::uint64_t fetched = 0;
  std::uint64_t dispatched_main = 0;
  std::uint64_t dispatch_stall_ruu_full = 0;
  std::uint64_t dispatch_stall_trigger = 0;

  // Wrong-path accounting (recovery cost; see Figure 8 cross-checks).
  std::uint64_t dispatched_wrongpath = 0;  // executed past a mispredict
  std::uint64_t squashed_wrongpath = 0;    // RUU entries squashed at recovery
  std::uint64_t ifq_flushed = 0;           // fetched entries discarded at recovery

  // SPEAR.
  std::uint64_t triggers_fired = 0;
  std::uint64_t triggers_suppressed_occupancy = 0;  // d-load seen, IFQ too empty
  std::uint64_t triggers_aborted = 0;               // flushed by recovery
  std::uint64_t preexec_sessions_completed = 0;
  std::uint64_t pthread_extracted = 0;
  std::uint64_t pthread_lost_to_dispatch = 0;  // marked entries the PE missed
  std::uint64_t pthread_loads_issued = 0;
  std::uint64_t drain_cycles = 0;
  std::uint64_t copy_cycles = 0;
  std::uint64_t preexec_cycles = 0;

  // Stride-prefetcher baseline.
  std::uint64_t stride_prefetches = 0;

  // BasicBlocker-style fence (CoreConfig::fence_spec_loads): issue slots a
  // load lost to an older unresolved branch. Bound only when fencing is on.
  std::uint64_t fence_load_stalls = 0;

  // Chaining-trigger extension.
  std::uint64_t chained_triggers = 0;

  // Cross-core pre-execution (CMP mode; bound only when an arbiter is
  // attached): sessions granted a donor core, sessions that fell back to
  // the same-core context, and triggers suppressed while this core was
  // donating its p-thread context to a neighbor.
  std::uint64_t xcore_sessions = 0;
  std::uint64_t xcore_fallback_same_core = 0;
  std::uint64_t triggers_suppressed_donor = 0;

  // Event scheduler (core.sched.*): operand-completion wakeups delivered,
  // ready-queue insertions, and an estimate of the per-cycle RUU scan work
  // the event lists avoided relative to the old linear loops.
  std::uint64_t sched_wakeups = 0;
  std::uint64_t sched_ready_enqueued = 0;
  std::uint64_t sched_scan_saved = 0;

  // PE scan-pointer resyncs (spear.pe_scan_resync). Dispatch keeps the
  // pointer ahead of the IFQ head as it pops, so this must stay 0; a
  // nonzero count means the sequencing bug the old silent clamp hid is
  // back (SPEAR_DCHECKed in debug builds).
  std::uint64_t pe_scan_resyncs = 0;

  double BranchHitRatio() const {
    return committed_cond_branches == 0
               ? 1.0
               : static_cast<double>(bpred_dir_correct) /
                     static_cast<double>(committed_cond_branches);
  }
  double Ipb() const {  // instructions per branch
    // 0/0 convention matches Ipc() and telemetry::SafeRatio: a run that
    // committed no branches reports 0, not `committed` (which leaked a
    // count into a ratio slot and blew up downstream geomeans).
    return committed_branches == 0
               ? 0.0
               : static_cast<double>(committed) /
                     static_cast<double>(committed_branches);
  }
};

// Distribution stats the core samples while running (cheap integer
// accumulators; see telemetry/stat.h).
struct CoreTelemetry {
  telemetry::Distribution ifq_occupancy{
      std::vector<std::uint64_t>{8, 16, 32, 64, 128, 256, 512}};
  telemetry::Distribution access_latency{
      std::vector<std::uint64_t>{1, 4, 12, 40, 120, 240}};
  telemetry::Distribution session_len{
      std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32, 64}};
  telemetry::Distribution sched_ready_occupancy{
      std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32, 64}};
};

class Core {
 public:
  // Arbitrates idle donor cores for cross-core pre-execution (CMP mode;
  // implemented by CmpSystem). A core arming a trigger asks for a donor;
  // a granted donor is reserved until the session ends.
  class XcoreArbiter {
   public:
    virtual ~XcoreArbiter() = default;
    // Returns the reserved donor core id, or -1 when none is idle.
    virtual int RequestDonor(int requester) = 0;
    virtual void ReleaseDonor(int donor) = 0;
  };

  // `shared_block_cache` lets same-program cores (the sampled-run
  // orchestrator constructs one per detailed interval) reuse one decoded
  // code image; nullptr gives the core a private cache. The cache is
  // (re-)attached in the constructor, so a shared cache keyed to a
  // different program or P-thread Table flushes automatically.
  //
  // `warm` warm-starts the core: it is constructed straight into that
  // post-warmup state (as if InstallWarmState(*warm) followed), skipping
  // the program image load the warm image would replace. The memory image
  // is shared copy-on-write with `warm`, so one WarmState can warm-start
  // any number of cores in turn and is never modified by them.
  Core(const Program& prog, const CoreConfig& config,
       BlockCache* shared_block_cache = nullptr,
       const WarmState* warm = nullptr);

  // Multi-program SMT: one main-thread context per program (tid = index),
  // p-thread context at tid = progs.size(). A shared block cache and a
  // warm start are only legal single-program (each context needs its own
  // decoded image, and a WarmState holds one context).
  Core(const std::vector<const Program*>& progs, const CoreConfig& config,
       BlockCache* shared_block_cache = nullptr,
       const WarmState* warm = nullptr);

  // Advances one clock cycle.
  void StepCycle();

  // Runs until every main thread commits a HALT, `max_instrs` main-thread
  // instructions have committed (summed over threads), or `max_cycles`
  // elapsed.
  RunResult Run(std::uint64_t max_instrs,
                std::uint64_t max_cycles = UINT64_MAX);

  // Installs post-warmup state (registers, fetch PC, memory image, cache
  // tag/LRU arrays, predictor tables) from a functional fast-forward or a
  // restored checkpoint. Only legal before the first cycle and with a
  // single main thread; the warm state's cache/predictor geometry must
  // match this core's config. For callers that construct first; passing
  // the state to the constructor skips the image load this replaces.
  void InstallWarmState(const WarmState& ws);

  bool halted() const { return halted_; }
  const CoreStats& stats() const { return stats_; }
  const CoreTelemetry& core_telemetry() const { return telem_; }
  const MemoryHierarchy& hierarchy() const { return hier_; }
  MemoryHierarchy& hierarchy() { return hier_; }
  const CoreConfig& config() const { return config_; }
  const std::vector<std::uint32_t>& outputs() const {
    return threads_[0]->outputs;
  }

  // ---- multi-thread / CMP surface ----
  std::uint32_t num_main_threads() const { return num_main_; }
  ThreadId pthread_tid() const { return static_cast<ThreadId>(num_main_); }
  ThreadResult thread_result(std::uint32_t t) const;
  const std::vector<std::uint32_t>& thread_outputs(std::uint32_t t) const {
    return threads_[t]->outputs;
  }
  bool in_session() const;

  // Address-space ids: main thread t keys shared cache structures with
  // asid_base + t (the p-thread uses its session owner's asid). CmpSystem
  // spaces the bases so cores never collide; the default base of 0 keeps
  // single-program keys bit-identical to the historical form.
  void set_asid_base(std::uint32_t base) { asid_base_ = base; }

  // Attaches the cross-core pre-execution arbiter (CMP mode). `core_id` is
  // this core's index in the CMP, used as the requester id.
  void set_xcore_arbiter(XcoreArbiter* arb, int core_id) {
    xcore_arb_ = arb;
    core_id_ = core_id;
  }
  // Marks this core as donating its p-thread context to a neighbor; its
  // own triggers are suppressed while set.
  void set_donating(bool on) { donating_ = on; }

  // Binds every counter, distribution and derived stat of this core (and
  // its substrates) into `reg` under the core/mem/bpred/spear namespaces.
  // The registry reads live values, so it can be registered once and
  // emitted after (or during) a run. Implemented in core_stats.cc.
  void RegisterStats(telemetry::StatRegistry& reg) const;
  // Same, under "core<id>." etc. for per-core CMP documents.
  void RegisterStatsPrefixed(telemetry::StatRegistry& reg,
                             const std::string& prefix) const;

  // Attaches a pipeline event trace (nullptr detaches). The trace is
  // passive: it never affects simulated timing, and the hooks compile out
  // entirely under -DSPEAR_TELEMETRY_TRACE=0.
  void set_trace(telemetry::PipeTrace* trace) { trace_ = trace; }

  // Attaches a lockstep co-simulation sink (nullptr detaches): every
  // main-thread commit and p-thread retire is delivered as a CommitRecord.
  // When the sink reports divergence the core latches cosim_diverged() and
  // the run stops (deterministically — see src/cosim). Costs one pointer
  // test per commit when detached.
  void set_cosim(cosim::CommitSink* sink) { cosim_ = sink; }
  bool cosim_diverged() const { return cosim_diverged_; }

  // Attaches the speculative-leakage taint observer (nullptr detaches).
  // Purely observational: it sees execute-at-dispatch results, issue-time
  // cache accesses and episode boundaries, and never feeds timing back.
  // Costs one pointer test per event when detached; compiles out under
  // -DSPEAR_ENABLE_TAINT=0.
  void set_taint_observer(taint::TaintObserver* observer) {
    taint_ = observer;
  }

  // Committed-PC trace capture for oracle tests (off by default). The
  // backing store is a bounded ring holding the most recent `cap` commits,
  // so arbitrarily long runs stay O(cap) in memory; evicted entries are
  // tallied in commit_trace_dropped().
  static constexpr std::size_t kDefaultCommitTraceCap = 1u << 16;
  void set_trace_commits(bool on, std::size_t cap = kDefaultCommitTraceCap) {
    trace_commits_ = on;
    commit_trace_cap_ = cap == 0 ? 1 : cap;
  }
  // The retained trace, oldest to newest (materialized from the ring).
  std::vector<Pc> commit_trace() const;
  std::uint64_t commit_trace_dropped() const { return commit_trace_dropped_; }

 private:
  struct RenameMap {
    std::array<std::int32_t, kNumArchRegs> slot;
    std::array<std::uint64_t, kNumArchRegs> seq;
    void Reset() {
      slot.fill(-1);
      seq.fill(0);
    }
  };

  // Wrong-path store overlay slot (open-addressed table; see core.cc).
  struct SpecMemSlot {
    Addr addr = 0;
    std::uint64_t epoch = 0;
    std::uint8_t val = 0;
  };

  // One main-thread hardware context: program, dispatch-time architectural
  // state (with wrong-path overlay), front-end queue and back-end
  // partition. At N=1 the single context is the historical core state.
  struct ThreadCtx {
    // `load_image` false leaves memory empty for a warm image to fill.
    ThreadCtx(const Program& p, std::uint32_t ifq_cap, std::uint32_t ruu_cap,
              std::uint32_t index, bool load_image);

    const Program* prog;
    std::uint32_t index;  // == main-thread tid
    Memory mem;           // dispatch-time memory image (correct path)

    // Front end.
    CircularBuffer<IfqEntry> ifq;
    Pc fetch_pc;
    std::uint64_t fetch_seq = 0;
    BlockCache own_bcache;
    BlockCache* bcache = nullptr;

    // Machine state at dispatch.
    std::array<std::uint32_t, kNumIntRegs> iregs;
    std::array<double, kNumFpRegs> fregs;
    bool spec_mode = false;
    // Wrong-path overlay. Every wrong-path register/memory access funnels
    // through here (vpr dispatches ~2 wrong-path instructions per
    // committed one), so the overlay must not hash per access. Registers
    // are epoch-tagged flat arrays: a slot belongs to the overlay iff its
    // epoch matches spec_epoch, and RecoverFromMispredict discards
    // everything by bumping the epoch. Stores land in an open-addressed
    // linear-probe byte table where stale-epoch slots read as empty, so it
    // too clears in O(1). The epoch is 64-bit: it never wraps within any
    // feasible run.
    std::uint64_t spec_epoch = 1;
    std::array<std::uint32_t, kNumIntRegs> spec_ireg_val{};
    std::array<std::uint64_t, kNumIntRegs> spec_ireg_epoch{};
    std::array<double, kNumFpRegs> spec_freg_val{};
    std::array<std::uint64_t, kNumFpRegs> spec_freg_epoch{};
    std::vector<SpecMemSlot> spec_mem;  // power-of-two open-addressed table
    std::size_t spec_mem_count = 0;     // live entries in the current epoch
    bool dispatch_halted = false;

    // Back end partition.
    CircularBuffer<RuuEntry> ruu;
    RenameMap rename;
    std::uint64_t dispatch_seq = 0;
    EventScheduler sched;

    // Per-program SPEAR pre-decode table.
    PThreadTable pt;

    // Run state.
    bool halted = false;
    Cycle halt_cycle = 0;
    std::uint64_t committed = 0;
    std::vector<std::uint32_t> outputs;
  };

  // ---- pipeline stages (called in reverse order each cycle) ----
  void Commit();
  bool CommitThread(ThreadCtx& t);  // false = stop the cycle (divergence)
  void PThreadRetire();
  void Writeback();
  void Issue();
  void SpearTriggerTick();
  int ExtractPThread();          // returns decode slots consumed
  void Dispatch(std::uint32_t budget);
  void DispatchThread(ThreadCtx& t, std::uint32_t& budget);
  void Fetch();
  void FetchThread(ThreadCtx& t);

  // ---- event scheduler ----
  void IssueReady(EventScheduler& sched, CircularBuffer<RuuEntry>& buf,
                  ThreadCtx& fence_owner, bool pthread_buf);
  void DrainCompletions(EventScheduler& sched, CircularBuffer<RuuEntry>& buf,
                        ThreadId tid, bool main_thread);
  void WakeConsumers(EventScheduler& sched, CircularBuffer<RuuEntry>& buf,
                     std::uint32_t producer_slot, std::uint64_t producer_seq);

  // ---- speculation ----
  void RecoverFromMispredict(ThreadCtx& t, std::size_t branch_slot);
  void RebuildRenameMap(ThreadCtx& t);
  void PurgeDeadRefs(EventScheduler& sched, CircularBuffer<RuuEntry>& buf);
  bool SpecMemFind(const ThreadCtx& t, Addr a, std::uint8_t* out) const;
  void SpecMemInsert(ThreadCtx& t, Addr a, std::uint8_t v);
  void SpecMemGrow(ThreadCtx& t);

  // ---- SPEAR state machine ----
  enum class TriggerState : std::uint8_t {
    kNormal,
    kDraining,
    kCopying,
    kPreExec,
  };
  void ArmTrigger(ThreadCtx& t, int spec_index, std::uint64_t dload_seq);
  void SnapshotLiveIns();
  void ActivatePe();
  void BeginCopy();
  void BeginPreExec();
  void EndPreExec(bool completed);
  void MaybeExtractOnPop(ThreadCtx& t, const IfqEntry& fe);

  // ---- helpers ----
  ThreadCtx& owner_ctx() { return *threads_[session_owner_]; }
  const ThreadCtx& owner_ctx() const { return *threads_[session_owner_]; }
  std::uint32_t AsidOf(ThreadId tid) const {
    return asid_base_ +
           (tid == pthread_tid() ? session_owner_
                                 : static_cast<std::uint32_t>(tid));
  }
  bool DepsReady(const RuuEntry& e) const;
  bool AcquireFu(FuClass fu, ThreadId tid);
  std::uint32_t ExecLatency(const RuuEntry& e);
  void DispatchOne(CircularBuffer<RuuEntry>& buffer, const IfqEntry& fe,
                   ThreadId tid, ThreadCtx& t);
  bool DeliverCommit(const RuuEntry& e);
  void RecordTraceCommit(Pc pc);

  // Dispatch-time architectural state, with speculative overlay for
  // wrong-path execution.
  struct MainState {
    Core* c;
    ThreadCtx* t;
    std::uint32_t ReadInt(RegId reg);
    void WriteInt(RegId reg, std::uint32_t v);
    double ReadFp(RegId reg);
    void WriteFp(RegId reg, double v);
    std::uint8_t LoadU8(Addr a);
    std::uint32_t LoadU32(Addr a);
    double LoadF64(Addr a);
    void StoreU8(Addr a, std::uint8_t v);
    void StoreU32(Addr a, std::uint32_t v);
    void StoreF64(Addr a, double v);
  };
  friend struct MainState;

  CoreConfig config_;
  std::uint32_t num_main_;

  // Substrates (shared by every context).
  MemoryHierarchy hier_;
  BranchPredictor bpred_;
  StridePrefetcher stride_;

  // Main-thread contexts (unique_ptr: ThreadCtx is not movable — its
  // buffers carry explicit capacities).
  std::vector<std::unique_ptr<ThreadCtx>> threads_;

  EventScheduler psched_;  // p-thread RUU shares the machinery
  // Reused completion-drain buffer: DrainCompletions runs twice per cycle
  // and must not allocate a fresh vector each time.
  std::vector<SchedRef> completion_scratch_;

  // P-thread machinery (one session core-wide; session_owner_ names the
  // main thread whose trigger armed it).
  PThreadContext pctx_;
  CircularBuffer<RuuEntry> pruu_;
  RenameMap prename_;
  std::uint64_t pdispatch_seq_ = 0;
  TriggerState trigger_state_ = TriggerState::kNormal;
  std::uint32_t session_owner_ = 0;
  int active_spec_ = -1;
  std::uint64_t trigger_dload_seq_ = 0;
  std::uint64_t trigger_dispatch_seq_ = 0;  // commit point for drain-to-trigger
  std::uint64_t pe_scan_seq_ = 0;
  bool pe_active_ = false;
  bool trigger_captured_ = false;  // the d-load entered the p-thread RUU
  bool chain_pending_ = false;     // chaining extension: next d-load re-arms

  std::uint32_t copy_remaining_ = 0;

  // Cross-core pre-execution (CMP mode).
  XcoreArbiter* xcore_arb_ = nullptr;
  int core_id_ = 0;
  bool donating_ = false;       // reserved as a neighbor's donor
  bool session_xcore_ = false;  // current session runs on a donor core
  int session_donor_ = -1;
  std::uint32_t asid_base_ = 0;

  // Per-cycle FU accounting: [0]=shared/main pool, [1]=p-thread pool when
  // separate_fu is on or the session runs cross-core (donor FUs).
  struct FuUse {
    std::uint32_t int_alu = 0;
    std::uint32_t int_muldiv = 0;
    std::uint32_t fp_alu = 0;
    std::uint32_t fp_muldiv = 0;
    std::uint32_t mem_ports = 0;
  };
  static constexpr std::size_t kNumFuPools = 2;
  FuUse fu_use_[kNumFuPools];
  std::uint32_t issued_this_cycle_ = 0;

  // Run state.
  Cycle now_ = 0;
  bool halted_ = false;
  CoreStats stats_;
  CoreTelemetry telem_;
  std::uint64_t session_extracted_ = 0;  // extraction count, current session
  telemetry::PipeTrace* trace_ = nullptr;

  // Lockstep co-simulation (see cosim/commit_record.h).
  cosim::CommitSink* cosim_ = nullptr;
  bool cosim_diverged_ = false;

  // Speculative-leakage observer (see spear/taint_observer.h).
  taint::TaintObserver* taint_ = nullptr;

  // Bounded committed-PC ring: commit_trace_ fills to commit_trace_cap_,
  // then commit_trace_head_ marks the oldest slot to overwrite.
  bool trace_commits_ = false;
  std::size_t commit_trace_cap_ = kDefaultCommitTraceCap;
  std::size_t commit_trace_head_ = 0;
  std::uint64_t commit_trace_dropped_ = 0;
  std::vector<Pc> commit_trace_;
};

}  // namespace spear

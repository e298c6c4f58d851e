#include "cpu/core.h"

#include "isa/opcode.h"

namespace spear {

using telemetry::TraceEvent;
using telemetry::TraceUid;

// ---------------------------------------------------------------------------
// Dispatch-time architectural state with wrong-path overlay.
//
// On the correct path, reads/writes go straight to the in-order dispatch
// register file and memory image of the owning thread context. After a
// mispredicted branch dispatches, spec_mode routes writes into an
// epoch-tagged overlay that is discarded at recovery, so wrong-path
// execution can never corrupt correct-path state. Recovery is an epoch
// bump, not a clear — see core.h.
// ---------------------------------------------------------------------------

std::uint32_t Core::MainState::ReadInt(RegId reg) {
  if (t->spec_mode && t->spec_ireg_epoch[reg] == t->spec_epoch) {
    return t->spec_ireg_val[reg];
  }
  return t->iregs[reg];
}

void Core::MainState::WriteInt(RegId reg, std::uint32_t v) {
  if (t->spec_mode) {
    t->spec_ireg_val[reg] = v;
    t->spec_ireg_epoch[reg] = t->spec_epoch;
  } else {
    t->iregs[reg] = v;
  }
}

double Core::MainState::ReadFp(RegId reg) {
  const int f = FpIndex(reg);
  if (t->spec_mode && t->spec_freg_epoch[f] == t->spec_epoch) {
    return t->spec_freg_val[f];
  }
  return t->fregs[f];
}

void Core::MainState::WriteFp(RegId reg, double v) {
  if (t->spec_mode) {
    const int f = FpIndex(reg);
    t->spec_freg_val[f] = v;
    t->spec_freg_epoch[f] = t->spec_epoch;
  } else {
    t->fregs[FpIndex(reg)] = v;
  }
}

std::uint8_t Core::MainState::LoadU8(Addr a) {
  if (t->spec_mode && t->spec_mem_count != 0) {
    std::uint8_t v;
    if (c->SpecMemFind(*t, a, &v)) return v;
  }
  return t->mem.ReadU8(a);
}

std::uint32_t Core::MainState::LoadU32(Addr a) {
  // Until the wrong path stores something, the overlay is empty and loads
  // can take the word-wide fast path on the dispatch memory image.
  if (!t->spec_mode || t->spec_mem_count == 0) return t->mem.ReadU32(a);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(LoadU8(a + static_cast<Addr>(i)))
         << (8 * i);
  }
  return v;
}

double Core::MainState::LoadF64(Addr a) {
  if (!t->spec_mode || t->spec_mem_count == 0) return t->mem.ReadF64(a);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(LoadU8(a + static_cast<Addr>(i)))
            << (8 * i);
  }
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

void Core::MainState::StoreU8(Addr a, std::uint8_t v) {
  if (t->spec_mode) {
    c->SpecMemInsert(*t, a, v);
  } else {
    t->mem.WriteU8(a, v);
  }
}

void Core::MainState::StoreU32(Addr a, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    StoreU8(a + static_cast<Addr>(i), static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Core::MainState::StoreF64(Addr a, double v) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    StoreU8(a + static_cast<Addr>(i),
            static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

// Wrong-path store overlay: open addressing with linear probing. A slot
// whose epoch differs from spec_epoch is empty, both for probe
// termination and for insertion, which is what makes recovery an O(1)
// epoch bump. Entries are never deleted within an epoch, so the probe
// chain invariant holds.
namespace {
inline std::size_t SpecMemHash(Addr a) {
  std::uint32_t h = a * 2654435761u;  // Knuth multiplicative
  h ^= h >> 16;
  return h;
}
}  // namespace

bool Core::SpecMemFind(const ThreadCtx& t, Addr a, std::uint8_t* out) const {
  const std::size_t mask = t.spec_mem.size() - 1;
  std::size_t i = SpecMemHash(a) & mask;
  while (t.spec_mem[i].epoch == t.spec_epoch) {
    if (t.spec_mem[i].addr == a) {
      *out = t.spec_mem[i].val;
      return true;
    }
    i = (i + 1) & mask;
  }
  return false;
}

void Core::SpecMemInsert(ThreadCtx& t, Addr a, std::uint8_t v) {
  // Grow at 50% load so probes always terminate at an empty slot.
  if ((t.spec_mem_count + 1) * 2 > t.spec_mem.size()) SpecMemGrow(t);
  const std::size_t mask = t.spec_mem.size() - 1;
  std::size_t i = SpecMemHash(a) & mask;
  while (t.spec_mem[i].epoch == t.spec_epoch) {
    if (t.spec_mem[i].addr == a) {
      t.spec_mem[i].val = v;
      return;
    }
    i = (i + 1) & mask;
  }
  t.spec_mem[i] = SpecMemSlot{a, t.spec_epoch, v};
  ++t.spec_mem_count;
}

void Core::SpecMemGrow(ThreadCtx& t) {
  std::vector<SpecMemSlot> old = std::move(t.spec_mem);
  t.spec_mem.assign(old.empty() ? 1024 : old.size() * 2, SpecMemSlot{});
  const std::size_t mask = t.spec_mem.size() - 1;
  for (const SpecMemSlot& s : old) {
    if (s.epoch != t.spec_epoch) continue;  // stale epochs stay dead
    std::size_t i = SpecMemHash(s.addr) & mask;
    while (t.spec_mem[i].epoch == t.spec_epoch) i = (i + 1) & mask;
    t.spec_mem[i] = s;
  }
}

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

Core::ThreadCtx::ThreadCtx(const Program& p, std::uint32_t ifq_cap,
                           std::uint32_t ruu_cap, std::uint32_t idx,
                           bool load_image)
    : prog(&p), index(idx), ifq(ifq_cap), fetch_pc(p.entry), ruu(ruu_cap) {
  iregs.fill(0);
  fregs.fill(0.0);
  // Match the functional emulator's ABI (same relocation rules, or the
  // lockstep cosim would diverge on the first sp-relative access).
  iregs[kRegSp] = InitialStackPointer(p);
  if (load_image) mem.LoadProgram(p);
  sched.SetSlotCount(ruu.capacity());
  rename.Reset();
}

Core::Core(const Program& prog, const CoreConfig& config,
           BlockCache* shared_block_cache, const WarmState* warm)
    : Core(std::vector<const Program*>{&prog}, config, shared_block_cache,
           warm) {}

Core::Core(const std::vector<const Program*>& progs, const CoreConfig& config,
           BlockCache* shared_block_cache, const WarmState* warm)
    : config_(config),
      num_main_(static_cast<std::uint32_t>(progs.size())),
      hier_(config.mem),
      bpred_(config.bpred),
      stride_(config.stride_prefetch),
      pctx_(nullptr),
      pruu_(config.spear.pthread_ruu_size) {
  SPEAR_CHECK(!progs.empty() && progs.size() < 250);
  SPEAR_CHECK(shared_block_cache == nullptr || progs.size() == 1);
  SPEAR_CHECK(warm == nullptr || progs.size() == 1);
  // Each context gets an equal share of the front-end queue and the RUU.
  // At N=1 the shares are the full structures, preserving the historical
  // single-thread geometry exactly.
  const auto n = static_cast<std::uint32_t>(progs.size());
  const std::uint32_t ifq_cap = config.ifq_size / n;
  const std::uint32_t ruu_cap = config.ruu_size / n;
  SPEAR_CHECK(ifq_cap >= 1 && ruu_cap >= 1);
  threads_.reserve(progs.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    threads_.push_back(std::make_unique<ThreadCtx>(
        *progs[i], ifq_cap, ruu_cap, i, /*load_image=*/warm == nullptr));
    ThreadCtx& t = *threads_.back();
    t.pt = config.spear.enabled ? PThreadTable(progs[i]->pthreads)
                                : PThreadTable();
    t.bcache = (shared_block_cache != nullptr && i == 0) ? shared_block_cache
                                                         : &t.own_bcache;
    // Bake the pre-decoder's PT marks into the decoded records exactly
    // when the per-instruction pre-decoder would consult the PT.
    t.bcache->Attach(*t.prog,
                     config_.spear.enabled && !t.pt.empty() ? &t.pt : nullptr);
  }
  // The p-thread reads its session owner's memory; rebind happens at every
  // live-in snapshot. Seed with thread 0 (the only owner at N=1).
  pctx_.RebindMemory(&threads_[0]->mem);
  psched_.SetSlotCount(pruu_.capacity());
  prename_.Reset();
  // One cache-counter slot per main thread + one for the p-thread.
  hier_.l1d().ConfigureThreadSlots(num_main_ + 1);
  hier_.l2().ConfigureThreadSlots(num_main_ + 1);
  if (warm != nullptr) InstallWarmState(*warm);
}

void Core::InstallWarmState(const WarmState& ws) {
  SPEAR_CHECK(num_main_ == 1);
  ThreadCtx& t = *threads_[0];
  SPEAR_CHECK(now_ == 0 && stats_.committed == 0 && t.ifq.empty() &&
              t.ruu.empty());
  // Checkpoints (SPCK) carry no scheduler state on purpose: install is
  // only legal before the first cycle, where the event scheduler is
  // reconstructible as "all empty". Keep that contract checked.
  SPEAR_CHECK(t.sched.empty() && psched_.empty());
  SPEAR_CHECK(t.prog->ContainsPc(ws.pc));
  t.iregs = ws.iregs;
  t.fregs = ws.fregs;
  t.fetch_pc = ws.pc;
  t.mem.CopyFrom(ws.mem);
  SPEAR_CHECK(hier_.l1d().RestoreState(ws.l1d));
  SPEAR_CHECK(hier_.l2().RestoreState(ws.l2));
  SPEAR_CHECK(bpred_.RestoreState(ws.bpred));
}

ThreadResult Core::thread_result(std::uint32_t t) const {
  const ThreadCtx& ctx = *threads_[t];
  ThreadResult r;
  r.committed = ctx.committed;
  r.cycles = ctx.halted ? ctx.halt_cycle : now_;
  r.halted = ctx.halted;
  return r;
}

bool Core::in_session() const {
  return trigger_state_ != TriggerState::kNormal;
}

// ---------------------------------------------------------------------------
// Cycle loop. Stages run in reverse pipeline order, sim-outorder style.
// ---------------------------------------------------------------------------

void Core::StepCycle() {
  ++now_;
  stats_.cycles = now_;

  Commit();
  if (halted_ || cosim_diverged_) return;
  PThreadRetire();
  Writeback();
  Issue();
  SpearTriggerTick();
  const int extracted = pe_active_ ? ExtractPThread() : 0;
  const std::uint32_t budget =
      config_.decode_width > static_cast<std::uint32_t>(extracted)
          ? config_.decode_width - static_cast<std::uint32_t>(extracted)
          : 0;
  Dispatch(budget);
  Fetch();
  std::size_t ifq_occ = 0;
  for (const auto& t : threads_) ifq_occ += t->ifq.size();
  telem_.ifq_occupancy.Add(ifq_occ);
}

RunResult Core::Run(std::uint64_t max_instrs, std::uint64_t max_cycles) {
  Cycle last_commit_cycle = now_;
  std::uint64_t last_committed = stats_.committed;
  while (!halted_ && !cosim_diverged_ && stats_.committed < max_instrs &&
         now_ < max_cycles) {
    StepCycle();
    if (stats_.committed != last_committed) {
      last_committed = stats_.committed;
      last_commit_cycle = now_;
    }
    SPEAR_CHECK(now_ - last_commit_cycle < config_.commit_watchdog_cycles);
  }
  RunResult r;
  r.cycles = now_;
  r.instructions = stats_.committed;
  r.halted = halted_;
  return r;
}

// ---------------------------------------------------------------------------
// Commit (main threads, round-robin-free: every thread gets the full
// commit width — threads own disjoint RUU partitions, so their commit
// streams are independent; at N=1 this is the historical loop).
// ---------------------------------------------------------------------------

// Builds a CommitRecord from a retiring entry and delivers it to the
// attached checker. Returns false (and latches cosim_diverged_) on
// divergence, in which case the entry must NOT retire: the run is over and
// the diverging instruction stays at the RUU head for post-mortems.
bool Core::DeliverCommit(const RuuEntry& e) {
  const ThreadCtx& t =
      e.tid == pthread_tid() ? owner_ctx() : *threads_[e.tid];
  cosim::CommitRecord rec;
  rec.pc = e.pc;
  rec.instr = e.instr;
  rec.tid = e.tid;
  rec.exec = e.exec;
  rec.int_dest = e.cosim_int_dest;
  rec.fp_dest = e.cosim_fp_dest;
  rec.store_u32 = e.cosim_store_u32;
  rec.store_f64 = e.cosim_store_f64;
  rec.pthread_arch_clobber = e.cosim_arch_clobber;
  rec.cycle = now_;
  rec.ruu_occupancy = static_cast<std::uint32_t>(t.ruu.size());
  rec.ifq_occupancy = static_cast<std::uint32_t>(t.ifq.size());
  if (cosim_->OnCommit(rec)) return true;
  cosim_diverged_ = true;
  return false;
}

// Bounded committed-PC ring (oracle tests): grow until the cap, then
// overwrite the oldest slot.
void Core::RecordTraceCommit(Pc pc) {
  if (commit_trace_.size() < commit_trace_cap_) {
    commit_trace_.push_back(pc);
    return;
  }
  commit_trace_[commit_trace_head_] = pc;
  commit_trace_head_ = (commit_trace_head_ + 1) % commit_trace_cap_;
  ++commit_trace_dropped_;
}

std::vector<Pc> Core::commit_trace() const {
  std::vector<Pc> out;
  out.reserve(commit_trace_.size());
  out.insert(out.end(), commit_trace_.begin() + commit_trace_head_,
             commit_trace_.end());
  out.insert(out.end(), commit_trace_.begin(),
             commit_trace_.begin() + commit_trace_head_);
  return out;
}

void Core::Commit() {
  for (std::uint32_t ti = 0; ti < num_main_; ++ti) {
    if (!CommitThread(*threads_[ti])) return;  // divergence: stop everything
  }
  bool all_halted = true;
  for (const auto& t : threads_) all_halted = all_halted && t->halted;
  halted_ = all_halted;
}

bool Core::CommitThread(ThreadCtx& t) {
  if (t.halted) return true;
  const auto tid = static_cast<ThreadId>(t.index);
  for (std::uint32_t n = 0; n < config_.commit_width && !t.ruu.empty(); ++n) {
    RuuEntry& e = t.ruu.Front();
    if (!e.completed) break;
    SPEAR_CHECK(!e.wrongpath);  // wrong-path entries are squashed at recovery
    if (cosim_ != nullptr && !DeliverCommit(e)) return false;

    if (IsCondBranch(e.instr.op)) {
      bpred_.Update(e.pc, e.instr, e.exec.taken, e.exec.next_pc);
      ++stats_.committed_cond_branches;
      ++stats_.committed_branches;
      if (e.pred_taken == e.exec.taken) ++stats_.bpred_dir_correct;
    } else if (IsControl(e.instr.op)) {
      bpred_.Update(e.pc, e.instr, true, e.exec.next_pc);
      ++stats_.committed_branches;
    }
    if (e.exec.is_load) ++stats_.committed_loads;
    if (e.exec.is_store) ++stats_.committed_stores;
    if (e.exec.out_value) t.outputs.push_back(*e.exec.out_value);
    if (trace_commits_) RecordTraceCommit(e.pc);
    ++stats_.committed;
    ++t.committed;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kCommit, now_,
                      TraceUid(e.fetch_seq, tid), e.pc, tid);

    const bool halt = e.exec.halted;
    t.ruu.PopFront();
    if (halt) {
      t.halted = true;
      t.halt_cycle = now_;
      return true;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// P-thread retirement. The p-thread has no architectural side effects; its
// entries drain in order once completed. Retiring the triggering d-load
// ends pre-execution mode (paper Section 3.3).
// ---------------------------------------------------------------------------

void Core::PThreadRetire() {
  const ThreadId ptid = pthread_tid();
  while (!pruu_.empty() && pruu_.Front().completed) {
    // Audit the p-thread safety invariant: retires are delivered to the
    // checker too (tid = pthread_tid()), which asserts no main
    // architectural state was touched. The oracle is NOT stepped for these.
    if (cosim_ != nullptr && !DeliverCommit(pruu_.Front())) return;
    const bool was_trigger = pruu_.Front().is_trigger_dload;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kPtRetire, now_,
                      TraceUid(pruu_.Front().fetch_seq, ptid),
                      pruu_.Front().pc, ptid);
    pruu_.PopFront();
    if (was_trigger) {
      EndPreExec(/*completed=*/true);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Writeback: drain this cycle's completion events (marking completions and
// waking dependents); resolve at most one mispredicted branch per thread
// per cycle (the oldest completed one), triggering recovery.
// ---------------------------------------------------------------------------

void Core::DrainCompletions(EventScheduler& sched,
                            CircularBuffer<RuuEntry>& buf, ThreadId tid,
                            bool main_thread) {
  std::vector<SchedRef>& bucket = completion_scratch_;
  sched.TakeCompletionsInto(now_, bucket);
  // Everything the old per-cycle writeback scan would have walked and the
  // event list didn't touch counts as saved scan work.
  stats_.sched_scan_saved +=
      buf.size() > bucket.size() ? buf.size() - bucket.size() : 0;
  for (const SchedRef r : bucket) {
    if (!buf.SlotLive(r.slot) || buf.Slot(r.slot).seq != r.seq) {
      continue;  // squashed after issue; slot possibly reused
    }
    RuuEntry& e = buf.Slot(r.slot);
    SPEAR_DCHECK(e.issued && !e.completed && e.complete_cycle == now_);
    e.completed = true;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kComplete, now_,
                      TraceUid(e.fetch_seq, tid), e.pc, tid);
    WakeConsumers(sched, buf, r.slot, e.seq);
    if (main_thread && e.mispredict && !e.recovery_done) {
      sched.pending_recovery().push_back(r);
    }
  }
}

void Core::WakeConsumers(EventScheduler& sched, CircularBuffer<RuuEntry>& buf,
                         std::uint32_t producer_slot,
                         std::uint64_t producer_seq) {
  // A slot's list holds only its occupants' waiters: the current
  // producer's (seq match) plus possibly a squashed predecessor's. A
  // squash kills everything younger than the squashed producer, so those
  // stale waiters' consumers are dead too and the whole list drains here.
  std::vector<EventScheduler::Waiter>& list = sched.waiters(producer_slot);
  if (list.empty()) return;
  for (const EventScheduler::Waiter w : list) {
    if (w.producer_seq != producer_seq) continue;  // stale (squashed) waiter
    if (!buf.SlotLive(w.consumer_slot) ||
        buf.Slot(w.consumer_slot).seq != w.consumer_seq) {
      continue;  // consumer squashed while waiting
    }
    RuuEntry& c = buf.Slot(w.consumer_slot);
    SPEAR_DCHECK(c.pending_deps > 0);
    ++stats_.sched_wakeups;
    if (--c.pending_deps == 0) {
      sched.InsertReady({w.consumer_seq, w.consumer_slot});
      ++stats_.sched_ready_enqueued;
    }
  }
  list.clear();
}

void Core::Writeback() {
  DrainCompletions(psched_, pruu_, pthread_tid(), /*main_thread=*/false);
  for (std::uint32_t ti = 0; ti < num_main_; ++ti) {
    DrainCompletions(threads_[ti]->sched, threads_[ti]->ruu,
                     static_cast<ThreadId>(ti), /*main_thread=*/true);
  }

  // Resolve the oldest completed, still-unrecovered mispredict per thread
  // (one per cycle each). Stale refs — branches squashed by an older
  // branch's recovery — are dropped here.
  for (std::uint32_t ti = 0; ti < num_main_; ++ti) {
    ThreadCtx& t = *threads_[ti];
    std::vector<SchedRef>& pend = t.sched.pending_recovery();
    if (pend.empty()) continue;
    std::size_t out = 0;
    for (std::size_t i = 0; i < pend.size(); ++i) {
      const SchedRef r = pend[i];
      if (!t.ruu.SlotLive(r.slot)) continue;
      const RuuEntry& e = t.ruu.Slot(r.slot);
      if (e.seq != r.seq || e.recovery_done) continue;
      pend[out++] = r;
    }
    pend.resize(out);
    if (out > 0) {
      std::size_t oldest = 0;
      for (std::size_t i = 1; i < out; ++i) {
        if (pend[i].seq < pend[oldest].seq) oldest = i;
      }
      const SchedRef r = pend[oldest];
      pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(oldest));
      RecoverFromMispredict(t, r.slot);
    }
  }
}

void Core::RecoverFromMispredict(ThreadCtx& t, std::size_t branch_slot) {
  const auto tid = static_cast<ThreadId>(t.index);
  RuuEntry& branch = t.ruu.Slot(branch_slot);
  branch.recovery_done = true;
  ++stats_.mispredict_recoveries;

  // Squash everything younger than the branch (all wrong-path). The slot
  // maps straight to the branch's queue position — no head-to-tail rescan.
  const std::size_t idx = t.ruu.LogicalIndex(branch_slot);
  stats_.squashed_wrongpath += t.ruu.size() - idx - 1;
  if constexpr (telemetry::kTraceCompiled) {
    if (trace_ != nullptr) {
      for (std::size_t l = idx + 1; l < t.ruu.size(); ++l) {
        const RuuEntry& s = t.ruu.At(l);
        trace_->Record(TraceEvent::kSquash, now_, TraceUid(s.fetch_seq, tid),
                       s.pc, tid);
      }
    }
  }
  t.ruu.PopBack(t.ruu.size() - idx - 1);

  // Discard the wrong-path overlay and rebuild rename state. Bumping the
  // epoch orphans every overlay slot at once; nothing is walked.
  t.spec_mode = false;
  ++t.spec_epoch;
  t.spec_mem_count = 0;
  if constexpr (taint::kTaintCompiled) {
    // The observer's wrong-path taint overlay dies with the squash.
    if (taint_ != nullptr) taint_->OnWrongPathEnd();
  }
  RebuildRenameMap(t);
  // Drop scheduler references killed by the squash so they cannot pile up
  // across recoveries. (In-flight completion events for squashed entries
  // are validated lazily when their bucket fires — each issued entry owns
  // exactly one event, so those cannot accumulate.)
  PurgeDeadRefs(t.sched, t.ruu);

  // Redirect the front end.
  stats_.ifq_flushed += t.ifq.size();
  if constexpr (telemetry::kTraceCompiled) {
    if (trace_ != nullptr) {
      for (std::size_t l = 0; l < t.ifq.size(); ++l) {
        const IfqEntry& fe = t.ifq.At(l);
        trace_->Record(TraceEvent::kSquash, now_, TraceUid(fe.seq, tid),
                       fe.pc, tid);
      }
    }
  }
  t.ifq.Clear();
  t.fetch_pc = branch.exec.next_pc;
  t.dispatch_halted = false;

  // The IFQ flush destroys the in-flight p-thread session *of this
  // thread*. (Letting a captured session run to completion instead was
  // measured and is *worse*: the completion tail blocks re-arming, and a
  // fresh session over the post-recovery window prefetches more than the
  // stale one finishes — see EXPERIMENTS.md, design notes.)
  if (trigger_state_ != TriggerState::kNormal && session_owner_ == t.index) {
    ++stats_.triggers_aborted;
    EndPreExec(/*completed=*/false);
  }
}

void Core::RebuildRenameMap(ThreadCtx& t) {
  t.rename.Reset();
  for (std::size_t l = 0; l < t.ruu.size(); ++l) {
    const RuuEntry& e = t.ruu.At(l);
    if (auto rd = DestOf(e.instr)) {
      t.rename.slot[*rd] = static_cast<std::int32_t>(t.ruu.PhysicalIndex(l));
      t.rename.seq[*rd] = e.seq;
    }
  }
}

void Core::PurgeDeadRefs(EventScheduler& sched, CircularBuffer<RuuEntry>& buf) {
  auto live = [&buf](std::uint32_t slot, std::uint64_t seq) {
    return buf.SlotLive(slot) && buf.Slot(slot).seq == seq;
  };
  std::vector<SchedRef>& ready = sched.ready();
  std::size_t out = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (live(ready[i].slot, ready[i].seq)) ready[out++] = ready[i];
  }
  ready.resize(out);
  for (std::size_t s = 0; s < buf.capacity(); ++s) {
    std::vector<EventScheduler::Waiter>& list = sched.waiters(s);
    out = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (live(list[i].consumer_slot, list[i].consumer_seq)) {
        list[out++] = list[i];
      }
    }
    list.resize(out);
  }
}

// ---------------------------------------------------------------------------
// Issue: p-thread entries get scheduling priority (paper Section 3.3);
// remaining bandwidth goes to the main threads in age order (round-robin
// across threads, rotating with the cycle count).
// ---------------------------------------------------------------------------

bool Core::DepsReady(const RuuEntry& e) const {
  const CircularBuffer<RuuEntry>& buf =
      e.tid == pthread_tid() ? pruu_ : threads_[e.tid]->ruu;
  for (int i = 0; i < e.ndeps; ++i) {
    const RuuEntry::SrcDep& d = e.dep[i];
    if (d.slot < 0) continue;
    const auto slot = static_cast<std::size_t>(d.slot);
    if (!buf.SlotLive(slot)) continue;  // producer committed/retired
    const RuuEntry& p = buf.Slot(slot);
    if (p.seq != d.producer_seq) continue;  // slot reused by younger entry
    if (!p.completed) return false;
  }
  return true;
}

bool Core::AcquireFu(FuClass fu, ThreadId tid) {
  // Pool 1 models FUs the main threads cannot see: the configured separate
  // p-thread pool, or — for a cross-core session — the donor core's units.
  const bool pthread = tid == pthread_tid();
  const std::size_t pool =
      (pthread && (config_.spear.separate_fu || session_xcore_)) ? 1 : 0;
  SPEAR_DCHECK(pool < kNumFuPools);
  FuUse& use = fu_use_[pool];
  switch (fu) {
    case FuClass::kNone:
      return true;
    case FuClass::kIntAlu:
      if (use.int_alu < config_.fu.int_alu) {
        ++use.int_alu;
        return true;
      }
      return false;
    case FuClass::kIntMul:
    case FuClass::kIntDiv:
      if (use.int_muldiv < config_.fu.int_muldiv) {
        ++use.int_muldiv;
        return true;
      }
      return false;
    case FuClass::kFpAlu:
      if (use.fp_alu < config_.fu.fp_alu) {
        ++use.fp_alu;
        return true;
      }
      return false;
    case FuClass::kFpMul:
    case FuClass::kFpDiv:
      if (use.fp_muldiv < config_.fu.fp_muldiv) {
        ++use.fp_muldiv;
        return true;
      }
      return false;
    case FuClass::kMemRead:
    case FuClass::kMemWrite:
      if (use.mem_ports < config_.fu.mem_ports) {
        ++use.mem_ports;
        return true;
      }
      return false;
  }
  return false;
}

std::uint32_t Core::ExecLatency(const RuuEntry& e) {
  const FuLatencies& lat = config_.lat;
  switch (GetOpInfo(e.instr.op).fu) {
    case FuClass::kNone:
      return 1;
    case FuClass::kIntAlu:
      return lat.int_alu;
    case FuClass::kIntMul:
      return lat.int_mul;
    case FuClass::kIntDiv:
      return lat.int_div;
    case FuClass::kFpAlu:
      return lat.fp_alu;
    case FuClass::kFpMul:
      return lat.fp_mul;
    case FuClass::kFpDiv:
      return lat.fp_div;
    case FuClass::kMemRead: {
      const bool pthread = e.tid == pthread_tid();
      if (pthread) ++stats_.pthread_loads_issued;
      const std::uint32_t asid = AsidOf(e.tid);
      // Cross-core sessions run the p-thread on a donor core: its loads
      // bypass this core's private L1 and warm the shared L2 only.
      const std::uint32_t latency =
          (pthread && session_xcore_)
              ? hier_.AccessDataSkipL1(e.exec.mem_addr, e.tid, now_, asid)
                    .latency
              : hier_.AccessData(e.exec.mem_addr, /*write=*/false, e.tid,
                                 now_, asid)
                    .latency;
      telem_.access_latency.Add(latency);
      if constexpr (taint::kTaintCompiled) {
        // The demand access only; stride-prefetch probes below are cache
        // warming, not program-observable footprint attribution.
        if (taint_ != nullptr) {
          taint_->OnCacheAccess(e.exec.mem_addr, pthread, e.wrongpath);
        }
      }
      if (config_.stride_prefetch.enabled && !pthread) {
        // Prefetch traffic is attributed to the helper (p-thread) stats
        // slot so Figure-8-style miss accounting stays demand-only.
        Addr targets[8];
        const int n = stride_.Observe(e.pc, e.exec.mem_addr, targets, 8);
        for (int i = 0; i < n; ++i) {
          hier_.AccessData(targets[i], /*write=*/false, pthread_tid(), now_,
                           asid);
          ++stats_.stride_prefetches;
        }
      }
      return latency;
    }
    case FuClass::kMemWrite: {
      // Stores complete after address generation; the cache write happens
      // now. P-thread stores never touch memory or cache (private buffer).
      if (e.tid != pthread_tid()) {
        hier_.AccessData(e.exec.mem_addr, /*write=*/true, e.tid, now_,
                         AsidOf(e.tid));
        if constexpr (taint::kTaintCompiled) {
          if (taint_ != nullptr) {
            taint_->OnCacheAccess(e.exec.mem_addr, /*pthread=*/false,
                                  e.wrongpath);
          }
        }
      }
      return 1;
    }
  }
  return 1;
}

void Core::IssueReady(EventScheduler& sched, CircularBuffer<RuuEntry>& buf,
                      ThreadCtx& fence_owner, bool pthread_buf) {
  std::vector<SchedRef>& ready = sched.ready();
  stats_.sched_scan_saved +=
      buf.size() > ready.size() ? buf.size() - ready.size() : 0;
  if (ready.empty()) return;
  // Cross-core sessions spend the donor core's issue bandwidth, not this
  // core's — the donor is idle, which is why it was granted.
  const bool count_width = !(pthread_buf && session_xcore_);
  std::size_t out = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const SchedRef r = ready[i];
    if (!buf.SlotLive(r.slot) || buf.Slot(r.slot).seq != r.seq) continue;
    RuuEntry& e = buf.Slot(r.slot);
    SPEAR_DCHECK(!e.issued && !e.completed && e.pending_deps == 0);
    SPEAR_DCHECK(DepsReady(e));
    // BasicBlocker-style fence: a load is speculative until every older
    // branch has resolved, so it may not touch the cache before then. Main-
    // thread loads wait on older branches in their own RUU; p-thread loads
    // are speculative by construction and wait on the owner's whole window.
    if (config_.fence_spec_loads && IsLoad(e.instr.op)) {
      const CircularBuffer<RuuEntry>& mruu = fence_owner.ruu;
      const std::size_t limit =
          pthread_buf ? mruu.size() : mruu.LogicalIndex(r.slot);
      bool blocked = false;
      for (std::size_t l = 0; l < limit; ++l) {
        const RuuEntry& older = mruu.At(l);
        if (IsControl(older.instr.op) && !older.completed) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        ++stats_.fence_load_stalls;
        ready[out++] = r;  // stays ready; retried next cycle
        continue;
      }
    }
    // Width exhaustion short-circuits before the FU probe, mirroring the
    // old scan's early return: FU slots are not consumed past the width.
    if ((count_width && issued_this_cycle_ >= config_.issue_width) ||
        !AcquireFu(GetOpInfo(e.instr.op).fu, e.tid)) {
      ready[out++] = r;  // stays ready; retried next cycle
      continue;
    }
    e.issued = true;
    e.complete_cycle = now_ + ExecLatency(e);
    sched.ScheduleCompletion(now_, e.complete_cycle, r);
    if (count_width) ++issued_this_cycle_;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kIssue, now_,
                      TraceUid(e.fetch_seq, e.tid), e.pc, e.tid);
  }
  ready.resize(out);
}

void Core::Issue() {
  fu_use_[0] = FuUse{};
  fu_use_[1] = FuUse{};
  issued_this_cycle_ = 0;
  std::size_t ready_occ = psched_.ready().size();
  for (const auto& t : threads_) ready_occ += t->sched.ready().size();
  telem_.sched_ready_occupancy.Add(ready_occ);

  // P-thread issue waits for the deterministic-state drain and live-in
  // copy to finish; until then extracted entries sit dormant in the
  // p-thread RUU. Once running, the p-thread has scheduling priority.
  if (trigger_state_ == TriggerState::kPreExec) {
    IssueReady(psched_, pruu_, owner_ctx(), /*pthread_buf=*/true);
  }
  const auto start = static_cast<std::uint32_t>(now_ % num_main_);
  for (std::uint32_t i = 0; i < num_main_; ++i) {
    ThreadCtx& t = *threads_[(start + i) % num_main_];
    IssueReady(t.sched, t.ruu, t, /*pthread_buf=*/false);
  }
}

// ---------------------------------------------------------------------------
// SPEAR trigger state machine (paper Section 3.2). One session core-wide;
// session_owner_ names the arming main thread.
// ---------------------------------------------------------------------------

void Core::ArmTrigger(ThreadCtx& t, int spec_index, std::uint64_t dload_seq) {
  SPEAR_CHECK(trigger_state_ == TriggerState::kNormal);
  session_owner_ = t.index;
  active_spec_ = spec_index;
  trigger_dload_seq_ = dload_seq;
  trigger_dispatch_seq_ = t.dispatch_seq;  // drain-to-trigger commit point
  trigger_captured_ = false;
  // Cross-core pre-execution (CMP mode): ask the arbiter for an idle donor
  // core. Granted: the session's p-thread models execution on the donor
  // (shared-L2-only warming, donor FUs, costlier live-in transfer).
  // Denied: fall back to the same-core context.
  session_xcore_ = false;
  session_donor_ = -1;
  if (xcore_arb_ != nullptr && config_.spear.xcore_pthreads) {
    const int donor = xcore_arb_->RequestDonor(core_id_);
    if (donor >= 0) {
      session_xcore_ = true;
      session_donor_ = donor;
      ++stats_.xcore_sessions;
    } else {
      ++stats_.xcore_fallback_same_core;
    }
  }
  ++stats_.triggers_fired;
  SPEAR_TRACE_EVENT(trace_, TraceEvent::kTrigger, now_,
                    TraceUid(dload_seq, static_cast<ThreadId>(t.index)),
                    t.pt.spec(spec_index).dload_pc,
                    static_cast<ThreadId>(t.index),
                    static_cast<std::uint16_t>(spec_index));
  switch (config_.spear.drain_policy) {
    case TriggerDrainPolicy::kStallDispatch:
      // Live-ins copied after the full drain; PE activates at pre-exec.
      trigger_state_ = TriggerState::kDraining;
      break;
    case TriggerDrainPolicy::kDrainToTrigger:
      SnapshotLiveIns();
      ActivatePe();
      trigger_state_ = TriggerState::kDraining;
      break;
    case TriggerDrainPolicy::kImmediate:
      SnapshotLiveIns();
      ActivatePe();
      BeginCopy();
      break;
  }
}

// Copies the live-in registers from the owner's in-order dispatch state
// into the p-thread context (the value transfer; the per-register cycle
// cost is modeled by the kCopying countdown — higher for cross-core
// sessions, which ship values to another core).
void Core::SnapshotLiveIns() {
  ThreadCtx& o = owner_ctx();
  pctx_.RebindMemory(&o.mem);
  pctx_.Reset();
  prename_.Reset();
  const PThreadSpec& spec = o.pt.spec(active_spec_);
  for (RegId reg : spec.live_ins) {
    if (IsFpReg(reg)) {
      pctx_.CopyLiveInFp(reg, o.fregs[FpIndex(reg)]);
    } else {
      pctx_.CopyLiveInInt(reg, reg == kRegZero ? 0 : o.iregs[reg]);
    }
  }
  const std::uint32_t per_reg = session_xcore_
                                    ? config_.spear.xcore_copy_cycles_per_reg
                                    : config_.spear.copy_cycles_per_reg;
  copy_remaining_ =
      static_cast<std::uint32_t>(spec.live_ins.size()) * per_reg;
  if constexpr (taint::kTaintCompiled) {
    // The p-thread session inherits exactly the copied registers' taint.
    if (taint_ != nullptr) taint_->OnPThreadSessionStart(spec.live_ins);
  }
  SPEAR_TRACE_EVENT(trace_, TraceEvent::kLiveInCopy, now_,
                    TraceUid(trigger_dload_seq_,
                             static_cast<ThreadId>(o.index)),
                    spec.dload_pc, static_cast<ThreadId>(o.index),
                    static_cast<std::uint16_t>(spec.live_ins.size()));
}

// Starts PE scanning at the owner's current IFQ head. Extraction may begin
// right away (entries buffer in the p-thread RUU); p-thread *issue* is
// gated on reaching kPreExec.
void Core::ActivatePe() {
  ThreadCtx& o = owner_ctx();
  pe_active_ = true;
  pe_scan_seq_ = o.ifq.empty() ? o.fetch_seq : o.ifq.Front().seq;
}

void Core::BeginCopy() {
  trigger_state_ = TriggerState::kCopying;
  if (copy_remaining_ == 0) BeginPreExec();
}

void Core::BeginPreExec() {
  trigger_state_ = TriggerState::kPreExec;
  if (config_.spear.drain_policy == TriggerDrainPolicy::kStallDispatch) {
    // Dispatch was held, so the trigger window is intact; scan from head.
    ActivatePe();
  }
  if (!pe_active_ && !trigger_captured_) {
    // The triggering d-load already left the IFQ without being captured.
    ++stats_.triggers_aborted;
    EndPreExec(/*completed=*/false);
  }
}

void Core::EndPreExec(bool completed) {
  if constexpr (telemetry::kTraceCompiled) {
    if (trace_ != nullptr) {
      const ThreadId otid = static_cast<ThreadId>(session_owner_);
      const Pc dload_pc =
          active_spec_ >= 0 ? owner_ctx().pt.spec(active_spec_).dload_pc : 0;
      trace_->Record(TraceEvent::kSessionEnd, now_,
                     TraceUid(trigger_dload_seq_, otid), dload_pc, otid,
                     completed ? 1 : 0);
      // Whatever is still in the p-thread RUU is discarded with the session.
      for (std::size_t l = 0; l < pruu_.size(); ++l) {
        const RuuEntry& e = pruu_.At(l);
        trace_->Record(TraceEvent::kSquash, now_,
                       TraceUid(e.fetch_seq, pthread_tid()), e.pc,
                       pthread_tid());
      }
    }
  }
  telem_.session_len.Add(session_extracted_);
  session_extracted_ = 0;
  if constexpr (taint::kTaintCompiled) {
    if (taint_ != nullptr) taint_->OnPThreadSessionEnd();
  }
  trigger_state_ = TriggerState::kNormal;
  pe_active_ = false;
  active_spec_ = -1;
  pruu_.Clear();
  psched_.Reset();  // every p-thread scheduler ref died with the buffer
  pctx_.Reset();
  copy_remaining_ = 0;
  if (session_xcore_) {
    if (xcore_arb_ != nullptr) xcore_arb_->ReleaseDonor(session_donor_);
    session_xcore_ = false;
    session_donor_ = -1;
  }
  if (completed) {
    ++stats_.preexec_sessions_completed;
    if (config_.spear.chaining_trigger) chain_pending_ = true;
  }
}

void Core::SpearTriggerTick() {
  switch (trigger_state_) {
    case TriggerState::kNormal:
      break;
    case TriggerState::kPreExec:
      ++stats_.preexec_cycles;
      break;
    case TriggerState::kDraining: {
      ++stats_.drain_cycles;
      ThreadCtx& o = owner_ctx();
      bool drained;
      if (config_.spear.drain_policy == TriggerDrainPolicy::kStallDispatch) {
        drained = o.ruu.empty();
        if (drained) SnapshotLiveIns();  // iregs are now committed values
      } else {
        // Commit has passed the trigger-time dispatch point.
        drained = o.ruu.empty() || o.ruu.Front().seq > trigger_dispatch_seq_;
      }
      if (drained) BeginCopy();
      break;
    }
    case TriggerState::kCopying:
      ++stats_.copy_cycles;
      if (copy_remaining_ > 0) --copy_remaining_;
      if (copy_remaining_ == 0) BeginPreExec();
      break;
  }
}

// ---------------------------------------------------------------------------
// P-thread extraction (the PE). Scans the owner's IFQ from the p-thread
// head, pulling up to issue_width/2 marked entries per cycle into the
// p-thread context; clears each indicator; stops at the triggering d-load.
// ---------------------------------------------------------------------------

int Core::ExtractPThread() {
  int extracted = 0;
  const int limit = static_cast<int>(config_.ExtractPerCycle());
  ThreadCtx& o = owner_ctx();

  while (extracted < limit && pe_active_) {
    if (o.ifq.empty()) break;
    const std::uint64_t front_seq = o.ifq.Front().seq;
    if (pe_scan_seq_ < front_seq) {
      // Every IFQ pop advances the scan pointer via MaybeExtractOnPop, so
      // the pointer can never trail the head; if it does, an IFQ pop
      // bypassed the PE. Count + resync in release, loud in debug.
      SPEAR_DCHECK(false);
      ++stats_.pe_scan_resyncs;
      pe_scan_seq_ = front_seq;
    }
    const std::uint64_t offset = pe_scan_seq_ - front_seq;
    if (offset >= o.ifq.size()) break;  // caught up with fetch; resume later
    IfqEntry& en = o.ifq.At(static_cast<std::size_t>(offset));

    if (!en.pthread_indicator) {
      ++pe_scan_seq_;
      continue;  // scanning unmarked entries is free (indicator bits)
    }
    if (pruu_.full()) break;  // retry next cycle

    en.pthread_indicator = false;
    ++pe_scan_seq_;
    const bool is_trigger = en.seq == trigger_dload_seq_;
    if (IsControl(en.instr.op)) {
      // Slices are data-flow only; a marked control instruction is skipped
      // rather than pre-executed (the p-thread follows the IFQ's path).
      if (is_trigger) pe_active_ = false;
      continue;
    }
    DispatchOne(pruu_, en, pthread_tid(), o);
    if (is_trigger) {
      pruu_.Back().is_trigger_dload = true;
      trigger_captured_ = true;
      pe_active_ = false;  // extraction complete; wait for retirement
    }
    ++extracted;
    ++stats_.pthread_extracted;
    ++session_extracted_;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kPtExtract, now_,
                      TraceUid(en.seq, pthread_tid()), en.pc, pthread_tid());
  }
  return extracted;
}

// ---------------------------------------------------------------------------
// Dispatch (decode/rename/functional-execute/RUU allocate).
// ---------------------------------------------------------------------------

void Core::DispatchOne(CircularBuffer<RuuEntry>& buffer, const IfqEntry& fe,
                       ThreadId tid, ThreadCtx& t) {
  const bool pthread = tid == pthread_tid();
  RuuEntry e;
  e.instr = fe.instr;
  e.pc = fe.pc;
  e.tid = tid;
  e.seq = pthread ? ++pdispatch_seq_ : ++t.dispatch_seq;
  e.fetch_seq = fe.seq;
  e.predicted_next = fe.predicted_next;
  e.pred_taken = fe.pred_taken;

  RenameMap& rm = pthread ? prename_ : t.rename;
  EventScheduler& sc = pthread ? psched_ : t.sched;
  const SrcRegs srcs = SourcesOf(fe.instr);
  for (int i = 0; i < srcs.count; ++i) {
    const RegId reg = srcs.reg[i];
    if (reg == kRegZero) continue;
    if (rm.slot[reg] >= 0) {
      e.dep[e.ndeps].slot = rm.slot[reg];
      e.dep[e.ndeps].producer_seq = rm.seq[reg];
      // A dep is outstanding only while its producer still occupies the
      // renamed slot and has not completed; anything else is already
      // architectural (same predicate the old per-cycle poll applied).
      const auto pslot = static_cast<std::size_t>(rm.slot[reg]);
      if (buffer.SlotLive(pslot) && buffer.Slot(pslot).seq == rm.seq[reg] &&
          !buffer.Slot(pslot).completed) {
        ++e.pending_deps;
      }
      ++e.ndeps;
    }
  }

  if (!pthread) {
    e.wrongpath = t.spec_mode;
    MainState st{this, &t};
    e.exec = ExecuteInstruction(st, fe.instr, fe.pc);
    if (cosim_ != nullptr && !e.wrongpath) {
      // Lockstep capture: correct-path dispatch just updated the in-order
      // register file and memory image, so reading them back here yields
      // exactly the values this instruction committed architecturally.
      if (const auto rd = DestOf(fe.instr)) {
        if (IsFpReg(*rd)) {
          e.cosim_fp_dest = t.fregs[FpIndex(*rd)];
        } else {
          e.cosim_int_dest = t.iregs[*rd];
        }
      }
      if (e.exec.is_store) {
        switch (fe.instr.op) {
          case Opcode::kSw:
            e.cosim_store_u32 = t.mem.ReadU32(e.exec.mem_addr);
            break;
          case Opcode::kSb:
            e.cosim_store_u32 = t.mem.ReadU8(e.exec.mem_addr);
            break;
          case Opcode::kStf:
            e.cosim_store_f64 = t.mem.ReadF64(e.exec.mem_addr);
            break;
          default:
            break;
        }
      }
    }
    if (!e.wrongpath && e.exec.next_pc != fe.predicted_next) {
      e.mispredict = true;
      t.spec_mode = true;  // younger dispatches go to the overlay
    }
    if (IsHalt(fe.instr.op)) t.dispatch_halted = true;
    ++stats_.dispatched_main;
    if (e.wrongpath) ++stats_.dispatched_wrongpath;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kDispatch, now_,
                      TraceUid(fe.seq, tid), fe.pc, tid,
                      e.wrongpath ? 1 : 0);
  } else if (cosim_ != nullptr) {
    // P-thread invariant probe: snapshot the would-be destination in the
    // *owner's* register file around the p-thread execution. PThreadContext
    // routes all effects into its private registers and store buffer, so
    // any change here is a safety-invariant violation the checker flags at
    // retire. (P-thread stores structurally cannot reach dispatch memory;
    // a leak there would surface as a main-thread store/dest divergence.)
    const auto rd = DestOf(fe.instr);
    std::uint32_t before_int = 0;
    double before_fp = 0.0;
    if (rd) {
      if (IsFpReg(*rd)) {
        before_fp = t.fregs[FpIndex(*rd)];
      } else {
        before_int = t.iregs[*rd];
      }
    }
    e.exec = ExecuteInstruction(pctx_, fe.instr, fe.pc);
    if (rd) {
      if (IsFpReg(*rd)) {
        // Bitwise: a NaN parked in the main register file must still
        // compare equal to itself.
        std::uint64_t was, now;
        __builtin_memcpy(&was, &before_fp, sizeof(was));
        __builtin_memcpy(&now, &t.fregs[FpIndex(*rd)], sizeof(now));
        e.cosim_arch_clobber = was != now;
      } else {
        e.cosim_arch_clobber = t.iregs[*rd] != before_int;
      }
    }
  } else {
    e.exec = ExecuteInstruction(pctx_, fe.instr, fe.pc);
  }

  if constexpr (taint::kTaintCompiled) {
    if (taint_ != nullptr) {
      if (pthread) {
        taint_->OnPThreadExec(fe.instr, e.exec);
      } else {
        taint_->OnMainExec(fe.instr, e.exec, e.wrongpath);
      }
    }
  }

  const std::size_t slot = buffer.PushBack(e);
  // Register one wakeup-table waiter per outstanding operand; an entry
  // with none is ready the moment it dispatches.
  for (int i = 0; i < e.ndeps; ++i) {
    const RuuEntry::SrcDep& d = e.dep[i];
    if (d.slot < 0) continue;
    const auto pslot = static_cast<std::size_t>(d.slot);
    if (buffer.SlotLive(pslot) && buffer.Slot(pslot).seq == d.producer_seq &&
        !buffer.Slot(pslot).completed) {
      sc.waiters(pslot).push_back(
          {d.producer_seq, e.seq, static_cast<std::uint32_t>(slot)});
    }
  }
  if (e.pending_deps == 0) {
    sc.InsertReady({e.seq, static_cast<std::uint32_t>(slot)});
    ++stats_.sched_ready_enqueued;
  }
  if (auto rd = DestOf(fe.instr)) {
    rm.slot[*rd] = static_cast<std::int32_t>(slot);
    rm.seq[*rd] = e.seq;
  }
}

// A marked entry leaving the owner's IFQ through main dispatch passes the
// shared decoder, where the PE can still capture it for the p-thread (dual
// delivery). If the p-thread RUU has no room the instance is lost — the
// main thread is executing it anyway, so only prefetch reach is affected,
// never correctness.
void Core::MaybeExtractOnPop(ThreadCtx& t, const IfqEntry& fe) {
  if (!pe_active_ || t.index != session_owner_) return;
  if (fe.seq < pe_scan_seq_) return;  // PE already scanned this entry
  // Advance the scan pointer past every unscanned pop, marked or not.
  // Unmarked pops used to skip this (the early indicator check), leaving
  // the pointer trailing the IFQ head whenever the PE stalled — the
  // trigger for the old silent resync clamp in ExtractPThread.
  pe_scan_seq_ = fe.seq + 1;
  if (!fe.pthread_indicator) return;
  const bool is_trigger = fe.seq == trigger_dload_seq_;
  if (IsControl(fe.instr.op)) {
    if (is_trigger) pe_active_ = false;
    return;
  }
  if (pruu_.full()) {
    ++stats_.pthread_lost_to_dispatch;
    if (is_trigger) {
      // The terminating d-load can never retire from the p-thread RUU now;
      // tear the session down.
      pe_active_ = false;
      ++stats_.triggers_aborted;
      EndPreExec(/*completed=*/false);
    }
    return;
  }
  DispatchOne(pruu_, fe, pthread_tid(), t);
  ++stats_.pthread_extracted;
  ++session_extracted_;
  SPEAR_TRACE_EVENT(trace_, TraceEvent::kPtExtract, now_,
                    TraceUid(fe.seq, pthread_tid()), fe.pc, pthread_tid());
  if (is_trigger) {
    pruu_.Back().is_trigger_dload = true;
    trigger_captured_ = true;
    pe_active_ = false;
  }
}

void Core::DispatchThread(ThreadCtx& t, std::uint32_t& budget) {
  if (t.halted) return;
  if (config_.spear.drain_policy == TriggerDrainPolicy::kStallDispatch &&
      (trigger_state_ == TriggerState::kDraining ||
       trigger_state_ == TriggerState::kCopying) &&
      session_owner_ == t.index) {
    // Stall-dispatch trigger policy: the owner's dispatch holds so its RUU
    // reaches a deterministic (fully committed) state for the live-in copy.
    ++stats_.dispatch_stall_trigger;
    return;
  }
  while (budget > 0 && !t.dispatch_halted && !t.ifq.empty()) {
    if (t.ruu.full()) {
      ++stats_.dispatch_stall_ruu_full;
      break;
    }
    const IfqEntry fe = t.ifq.PopFront();
    MaybeExtractOnPop(t, fe);
    DispatchOne(t.ruu, fe, static_cast<ThreadId>(t.index), t);
    --budget;
  }
}

void Core::Dispatch(std::uint32_t budget) {
  // Decode bandwidth is shared; the serving order rotates with the cycle
  // count so no thread starves. At N=1 thread 0 always gets the full
  // budget, exactly the historical single-thread loop.
  const auto start = static_cast<std::uint32_t>(now_ % num_main_);
  for (std::uint32_t i = 0; i < num_main_ && budget > 0; ++i) {
    DispatchThread(*threads_[(start + i) % num_main_], budget);
  }
}

// ---------------------------------------------------------------------------
// Fetch + pre-decode. ICOUNT thread choice: the eligible thread with the
// fewest in-flight instructions (IFQ + RUU occupancy) fetches this cycle —
// ties go to the lowest tid, so N=1 always picks thread 0. Fetch follows
// the predicted path, breaks after a predicted-taken control instruction,
// marks p-thread indicators and detects trigger conditions (d-load
// pre-decoded AND the thread's IFQ share at least half full).
// ---------------------------------------------------------------------------

void Core::FetchThread(ThreadCtx& t) {
  const auto tid = static_cast<ThreadId>(t.index);
  const auto trig_occ = static_cast<std::uint32_t>(
      t.ifq.capacity() / config_.spear.trigger_occupancy_div);
  for (std::uint32_t n = 0; n < config_.fetch_width && !t.ifq.full(); ++n) {
    IfqEntry fe;
    // One decoded-record lookup replaces the per-fetch text containment
    // check, text-table read, opcode-table probe and the two PT hash
    // probes of the pre-decoder — the marks were baked in at decode.
    const DecodedInstr* rec = t.bcache->Record(t.fetch_pc);
    if (rec == nullptr) break;  // stalled (wrong path / end)
    fe.instr = rec->instr;
    const bool is_control = rec->is_control();
    fe.pthread_indicator = rec->pthread_indicator;
    fe.dload_spec = rec->dload_spec;

    fe.pc = t.fetch_pc;
    fe.seq = t.fetch_seq++;
    bool taken = false;
    if (is_control) {
      const BranchPrediction p = bpred_.Predict(t.fetch_pc, fe.instr);
      fe.pred_taken = p.taken;
      fe.predicted_next = p.target;
      taken = p.taken;
    } else {
      fe.predicted_next = t.fetch_pc + kInstrBytes;
    }

    t.ifq.PushBack(fe);
    ++stats_.fetched;
    SPEAR_TRACE_EVENT(trace_, TraceEvent::kFetch, now_,
                      TraceUid(fe.seq, tid), fe.pc, tid);

    if (fe.dload_spec >= 0 && config_.spear.enabled) {
      if (donating_) {
        // This core's p-thread context is reserved by a neighbor.
        ++stats_.triggers_suppressed_donor;
      } else if (trigger_state_ == TriggerState::kNormal &&
                 (t.ifq.size() >= trig_occ || chain_pending_)) {
        if (chain_pending_ && t.ifq.size() < trig_occ) {
          ++stats_.chained_triggers;
        }
        chain_pending_ = false;
        ArmTrigger(t, fe.dload_spec, fe.seq);
      } else if (trigger_state_ == TriggerState::kNormal) {
        ++stats_.triggers_suppressed_occupancy;
      }
    }

    t.fetch_pc = fe.predicted_next;
    if (taken) break;  // one taken control flow break per cycle
  }
}

void Core::Fetch() {
  ThreadCtx* pick = nullptr;
  std::size_t best = 0;
  for (const auto& up : threads_) {
    ThreadCtx& t = *up;
    if (t.halted) continue;
    const std::size_t inflight = t.ifq.size() + t.ruu.size();
    if (pick == nullptr || inflight < best) {
      pick = &t;
      best = inflight;
    }
  }
  if (pick != nullptr) FetchThread(*pick);
}

}  // namespace spear

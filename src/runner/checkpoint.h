// Checkpointed fast-forward: the expensive half of the paper's
// skip-and-simulate methodology (functional warmup of architectural state,
// caches and the branch predictor) done once per (workload, seed,
// warmup-instrs) and reused across every configuration that sweeps it.
//
// FastForward() runs the functional emulator for N instructions while
// warming a private cache hierarchy and branch predictor of the target
// geometry (the Warmer below, which the sampled-run orchestrator drives
// too); the resulting WarmState warm-starts a timed Core (the Core
// constructor's `warm` argument, or Core::InstallWarmState on a core
// constructed cold). Its memory image is shared copy-on-write with the
// warmer's and the core's, so handing it on copies no pages.
// Save/Load serialize WarmState to a versioned
// binary file in a content-addressed cache directory, keyed by the warmup
// inputs plus the cache/predictor geometry (the only config knobs the warm
// state depends on — latencies, IFQ size etc. do not change it, so one
// checkpoint serves a whole sweep). A format or geometry mismatch is
// reported as a plain miss, never an error: the caller recomputes and
// overwrites. Writes go through a temp file + rename so concurrent workers
// racing on the same key are safe.
//
// Checkpoints carry no pipeline or scheduler state: WarmState installs
// only into a cycle-0 core, where those structures are empty (see
// warm_state.h and DESIGN.md §10), so format v1 stays valid across the
// event-driven scheduler.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bpred/bpred.h"
#include "common/types.h"
#include "cpu/warm_state.h"
#include "isa/program.h"
#include "isa/regs.h"
#include "mem/hierarchy.h"
#include "sim/emulator.h"

namespace spear::runner {

// Bump when the serialized layout changes; old files then read as misses
// and are transparently regenerated (see DESIGN.md "Experiment
// orchestration" for the version policy). Version 2 is the checkpoint
// *tree* layout (one warmup root plus delta-encoded per-interval
// children, written by SaveCheckpointTree); flat single-state files stay
// at version 1, and each reader names both versions in its diagnostic
// when handed the other layout (see IsCheckpointVersionMismatch).
inline constexpr std::uint32_t kCheckpointFormatVersion = 1;
inline constexpr std::uint32_t kCheckpointTreeFormatVersion = 2;

// Inputs that determine a warm state, and therefore the cache key.
struct CheckpointKey {
  std::string workload;       // diagnostic; the program comes from the caller
  std::uint64_t seed = 0;     // workload input seed
  std::uint64_t ff_instrs = 0;
  // Workload working-set scale (WorkloadConfig::scale). Appended to the
  // key string only when != 1 so checkpoints cached before the knob
  // existed keep their keys.
  int scale = 1;
  CacheConfig l1d;
  CacheConfig l2;
  BpredConfig bpred;
};

// Canonical "field=value|..." form of the key (hashed for the filename,
// stored verbatim in the file and verified on load).
std::string KeyString(const CheckpointKey& key);

// Content-addressed path inside `dir`: <fnv1a64(KeyString)>.spck.
std::string CheckpointPath(const std::string& dir, const CheckpointKey& key);

// The one functional warming routine, shared by FastForward and the
// sampled-run orchestrator (src/sampling). The program runs block-at-a-
// time on the Emulator (Emulator::Run with a per-instruction observer),
// routing every data access through a private cache hierarchy and every
// control instruction through a branch predictor of the target geometry
// (predict at fetch, train at commit — the protocol the timed core
// follows; on the functional path fetch and commit coincide).
class Warmer {
 public:
  Warmer(const Program& prog, const CacheConfig& l1d, const CacheConfig& l2,
         const BpredConfig& bpred);

  // Executes up to `n` more instructions, warming as it goes. Returns the
  // number executed: < n iff the program halted, or its PC left the text
  // section (faulted(); the faulting fetch executes nothing and is not
  // counted).
  std::uint64_t Advance(std::uint64_t n);

  bool halted() const { return emu_.halted(); }
  bool faulted() const { return emu_.faulted(); }

  // The current state as a WarmState (warmed_instrs = instructions
  // executed so far). The memory image is shared copy-on-write, so a
  // snapshot costs one reference per page and later Advance calls clone
  // only the pages they write.
  WarmState Snapshot() const;

 private:
  MemoryHierarchy hier_;
  BranchPredictor bpred_;
  Emulator emu_;
};

struct FastForwardResult {
  WarmState state;
  std::uint64_t executed = 0;  // < ff_instrs iff the program halted early
};

// Executes `ff_instrs` instructions of `prog` on a Warmer of the key's
// cache and predictor geometry and returns its snapshot.
FastForwardResult FastForward(const Program& prog, const CheckpointKey& key);

// Serializes `state` to CheckpointPath(dir, key), creating `dir` if
// needed. Returns false (with a message in *error) on I/O failure.
bool SaveCheckpoint(const std::string& dir, const CheckpointKey& key,
                    const WarmState& state, std::string* error = nullptr);

// Loads the checkpoint for `key` from `dir` into *state. Returns false on
// any mismatch — absent file, bad magic, other format version, different
// key, truncation — all of which the caller treats as a cache miss.
// A wrong-format-version file is still a miss for control flow, but the
// error message names both versions (see IsCheckpointVersionMismatch) so
// callers can warn instead of silently recomputing.
bool LoadCheckpoint(const std::string& dir, const CheckpointKey& key,
                    WarmState* state, std::string* error = nullptr);

// True when an error string from LoadCheckpoint/LoadCheckpointTree
// reports a well-formed SPCK file of the *other* format version — i.e.
// the file is not corrupt, the reader is just the wrong one. Callers
// should surface these (they indicate a version skew or a mis-shared
// cache directory), unlike ordinary misses.
bool IsCheckpointVersionMismatch(const std::string& error);

// --- SPCK v2 checkpoint trees (sampled simulation) -----------------------
//
// A sampled run (src/sampling) fast-forwards once to the measurement
// region, then alternates functional gaps with short detailed intervals.
// The tree caches that whole structure: the root is the post-fast-forward
// WarmState (stored in full), and each child is the architectural +
// microarchitectural state at one detailed interval's start, delta-encoded
// against the root where cheap (memory pages are stored only when they
// differ from the root's image; registers, cache tags and predictor
// tables are small and stored whole). Restoring the tree replays the
// detailed intervals without re-running the functional gaps, making a
// sampled row resumable and farm-cacheable per interval. In memory, a
// child materializes by sharing the root's pages copy-on-write and
// replacing only its delta pages.

// Inputs that determine a checkpoint tree, and therefore its cache key:
// the flat warmup key plus the sampled-region budget and the sampling
// plan geometry (interval starts move whenever any of these move).
struct CheckpointTreeKey {
  CheckpointKey base;
  std::uint64_t sim_instrs = 0;  // sampled-region instruction budget
  std::uint64_t period = 0;
  std::uint64_t detail = 0;
  std::uint64_t warmup = 0;
};

std::string TreeKeyString(const CheckpointTreeKey& key);
std::string CheckpointTreePath(const std::string& dir,
                               const CheckpointTreeKey& key);

// One detailed interval's start state, delta-encoded against the root.
struct CheckpointTreeChild {
  std::uint64_t start_icount = 0;  // absolute instrs executed at snapshot
  std::array<std::uint32_t, kNumIntRegs> iregs{};
  std::array<double, kNumFpRegs> fregs{};
  Pc pc = 0;
  // Memory pages whose bytes differ from (or don't exist in) the root
  // image; each is a full kPageSize-byte page keyed by page number.
  std::vector<std::pair<Addr, std::vector<std::uint8_t>>> delta_pages;
  CacheState l1d;
  CacheState l2;
  BpredState bpred;
};

struct CheckpointTree {
  WarmState root;
  // Region coverage recorded at save time, so a restored run reproduces
  // the fresh run's totals without re-executing the functional gaps.
  std::uint64_t covered_instrs = 0;
  bool halted = false;  // the program halted inside the sampled region
  std::vector<CheckpointTreeChild> children;

  // Reconstructs child `i` as a full WarmState: the root memory image
  // with the child's delta pages applied, plus the child's registers,
  // cache and predictor state.
  WarmState MaterializeChild(std::size_t i) const;

  // Delta-encodes `ws` (an interval-start snapshot) against `root` and
  // appends it as a child.
  void AddChild(const WarmState& ws);
};

// Serialization mirrors Save/LoadCheckpoint: content-addressed path from
// TreeKeyString, temp-file + rename writes, every mismatch a miss.
bool SaveCheckpointTree(const std::string& dir, const CheckpointTreeKey& key,
                        const CheckpointTree& tree,
                        std::string* error = nullptr);
bool LoadCheckpointTree(const std::string& dir, const CheckpointTreeKey& key,
                        CheckpointTree* tree, std::string* error = nullptr);

}  // namespace spear::runner

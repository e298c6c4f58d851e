// Commit-stream capture types shared between the core and the lockstep
// co-simulation checker (DESIGN.md §11).
//
// The core cannot depend on the checker (spear_cosim links spear_cpu), so
// this header defines only what the capture sites need: the per-commit
// record and the abstract sink the core calls at each commit (one
// null-pointer test per commit when no checker is attached). The concrete
// CosimChecker lives in cosim/cosim.h.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "isa/instruction.h"
#include "sim/exec.h"

namespace spear::cosim {

// Which architectural fact diverged between the pipeline and the oracle.
enum class DivergentField : std::uint8_t {
  kNone,
  kPc,               // committed a different instruction address
  kNextPc,           // control-flow successor (branch/jump target)
  kTaken,            // conditional branch direction
  kMemAccess,        // load/store classification or effective address
  kIntDest,          // integer destination-register writeback value
  kFpDest,           // FP destination-register writeback value
  kStoreData,        // bytes the store wrote to memory
  kOutValue,         // OUT side-channel value
  kHaltedPastEnd,    // core committed beyond the oracle's HALT
  kPThreadArchWrite, // p-thread commit mutated main architectural state
};

inline const char* FieldName(DivergentField f) {
  switch (f) {
    case DivergentField::kNone: return "none";
    case DivergentField::kPc: return "pc";
    case DivergentField::kNextPc: return "next_pc";
    case DivergentField::kTaken: return "taken";
    case DivergentField::kMemAccess: return "mem_access";
    case DivergentField::kIntDest: return "int_dest";
    case DivergentField::kFpDest: return "fp_dest";
    case DivergentField::kStoreData: return "store_data";
    case DivergentField::kOutValue: return "out_value";
    case DivergentField::kHaltedPastEnd: return "halted_past_end";
    case DivergentField::kPThreadArchWrite: return "pthread_arch_write";
  }
  return "?";
}

// Everything the checker compares for one committed instruction. Captured
// at dispatch (where the core executes functionally) and delivered at
// commit, so only correct-path instructions ever reach the sink.
struct CommitRecord {
  Pc pc = 0;
  Instruction instr;
  ThreadId tid = kMainThread;
  ExecResult exec;  // dispatch-time functional result

  // Destination value read back from the dispatch register file right
  // after functional execution (meaningful when DestOf(instr) is set).
  std::uint32_t int_dest = 0;
  double fp_dest = 0.0;

  // Store payload read back from dispatch memory at exec.mem_addr (kSw:
  // word; kSb: byte in the low 8 bits; kStf: the double).
  std::uint32_t store_u32 = 0;
  double store_f64 = 0.0;

  // P-thread invariant probe: true iff executing this p-thread
  // instruction changed its destination register in the *main* register
  // file (must never happen; see DESIGN.md §11).
  bool pthread_arch_clobber = false;

  // Pipeline context for the divergence report.
  Cycle cycle = 0;
  std::uint32_t ruu_occupancy = 0;
  std::uint32_t ifq_occupancy = 0;
};

// The core's side of the contract. OnCommit returns false when the record
// diverges from the oracle; the core then latches cosim_diverged(), stops
// committing and ends the run.
class CommitSink {
 public:
  virtual ~CommitSink() = default;
  virtual bool OnCommit(const CommitRecord& rec) = 0;
};

}  // namespace spear::cosim

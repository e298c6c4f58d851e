// spearfuzz — random-program fuzzer for the lockstep cosim checker.
//
// Generates seeded random-but-valid SPEAR programs from the assembler DSL
// (ALU/branch/memory/FP mixes, bounded loop nests, guarded loads, leaf
// calls), runs each under the cosim checker on both the baseline and the
// spear256 configuration (the annotated binary comes from the real
// post-compiler, profiled on a different data seed), and reports any
// commit-stream divergence. Failing programs are shrunk by greedy
// nop-substitution and persisted under tests/corpus/ as SPEARBIN
// reproducers; every run replays the corpus first so fixed bugs stay
// fixed.
//
//   spearfuzz                          # corpus replay + default seed set
//   spearfuzz --seeds 200 --time-budget 60
//   spearfuzz --replay-only            # CI regression mode
//
// Exit codes follow the shared table in tool_flags.h: 0 clean,
// 4 divergence found (reproducer written), 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cosim/cosim.h"
#include "eval/harness.h"
#include "isa/assembler.h"
#include "isa/binary.h"
#include "workloads/datagen.h"
#include "tool_flags.h"

namespace {

using namespace spear;

// Data images live well away from text; every access is masked into
// range before the base is added, so any register value makes a valid
// address (the "guarded load" idiom from the workload generators).
constexpr Addr kIntBase = 0x100000;
constexpr int kIntWords = 256;          // 1 KiB — masks 0x3fc (word) / 0x3ff
constexpr Addr kFpBase = 0x200000;
constexpr int kFpCount = 256;           // 2 KiB — mask 0x7f8

// Register convention inside generated programs. Random destinations are
// confined to r1..r12 / f0..f7 so the address bases and loop counters
// are never clobbered and every loop provably terminates.
constexpr int kMaxDest = 12;            // random int dests: r1..r12
constexpr int kScratch = 13;            // r13/r14: address computation
constexpr int kIntBaseReg = 20;
constexpr int kFpBaseReg = 21;
constexpr int kLoopReg0 = 24;           // loop counters, one per nest depth

class FuzzGen {
 public:
  FuzzGen(Program* prog, std::uint64_t seed) : a_(prog), rng_(seed) {}

  void Generate() {
    const int nfuncs = static_cast<int>(rng_.Below(3));  // 0..2 leaf funcs
    for (int i = 0; i < nfuncs; ++i) funcs_.push_back(a_.NewLabel());

    a_.la(r(kIntBaseReg), kIntBase);
    a_.la(r(kFpBaseReg), kFpBase);
    for (int i = 1; i <= kMaxDest; ++i) {
      a_.li(r(i), static_cast<std::int32_t>(rng_.Next()));
    }
    for (int i = 0; i < 8; ++i) {
      a_.ldf(f(i), r(kFpBaseReg), static_cast<std::int32_t>(i) * 8);
    }

    const int items = 10 + static_cast<int>(rng_.Below(9));
    for (int i = 0; i < items; ++i) EmitItem(/*depth=*/0);
    for (int i = 0; i < 3; ++i) {
      a_.out(r(1 + static_cast<int>(rng_.Below(kMaxDest))));
    }
    a_.halt();

    for (Label fn : funcs_) {
      a_.Bind(fn);
      const int body = 4 + static_cast<int>(rng_.Below(7));
      for (int i = 0; i < body; ++i) EmitSimple();
      a_.ret();
    }
    a_.Finish();
  }

 private:
  RegId Dest() { return r(1 + static_cast<int>(rng_.Below(kMaxDest))); }
  RegId Src() { return r(static_cast<int>(rng_.Below(kMaxDest + 1))); }
  RegId Fp() { return f(static_cast<int>(rng_.Below(8))); }

  void EmitAlu() {
    const RegId d = Dest(), s = Src(), t = Src();
    switch (rng_.Below(14)) {
      case 0: a_.add(d, s, t); break;
      case 1: a_.sub(d, s, t); break;
      case 2: a_.mul(d, s, t); break;
      case 3: a_.div(d, s, t); break;   // SafeDiv: /0 is defined
      case 4: a_.rem(d, s, t); break;
      case 5: a_.and_(d, s, t); break;
      case 6: a_.or_(d, s, t); break;
      case 7: a_.xor_(d, s, t); break;
      case 8: a_.slt(d, s, t); break;
      case 9: a_.sltu(d, s, t); break;
      case 10:
        a_.addi(d, s, static_cast<std::int32_t>(rng_.Range(-2048, 2047)));
        break;
      case 11:
        a_.andi(d, s, static_cast<std::int32_t>(rng_.Below(4096)));
        break;
      case 12:
        a_.xori(d, s, static_cast<std::int32_t>(rng_.Below(4096)));
        break;
      default:
        switch (rng_.Below(3)) {
          case 0: a_.slli(d, s, static_cast<std::int32_t>(rng_.Below(32))); break;
          case 1: a_.srli(d, s, static_cast<std::int32_t>(rng_.Below(32))); break;
          default: a_.srai(d, s, static_cast<std::int32_t>(rng_.Below(32))); break;
        }
        break;
    }
  }

  void EmitFp() {
    const RegId fd = Fp(), fs = Fp(), ft = Fp();
    switch (rng_.Below(9)) {
      case 0: a_.fadd(fd, fs, ft); break;
      case 1: a_.fsub(fd, fs, ft); break;
      case 2: a_.fmul(fd, fs, ft); break;
      case 3: a_.fdiv(fd, fs, ft); break;  // guarded: /0.0 yields 0.0
      case 4: a_.fmov(fd, fs); break;
      case 5: a_.fneg(fd, fs); break;
      case 6: a_.cvtif(fd, Src()); break;
      case 7: a_.cvtfi(Dest(), fs); break;  // saturating
      default:
        switch (rng_.Below(3)) {
          case 0: a_.feq(Dest(), fs, ft); break;
          case 1: a_.flt(Dest(), fs, ft); break;
          default: a_.fle(Dest(), fs, ft); break;
        }
        break;
    }
  }

  // Masked table access: any source value lands inside the data image.
  void EmitMem() {
    const RegId addr = r(kScratch);
    if (rng_.Chance(0.3)) {  // FP table
      a_.andi(addr, Src(), 0x7f8);
      a_.add(addr, addr, r(kFpBaseReg));
      if (rng_.Chance(0.5)) {
        a_.ldf(Fp(), addr, 0);
      } else {
        a_.stf(Fp(), addr, 0);
      }
      return;
    }
    const bool byte = rng_.Chance(0.25);
    a_.andi(addr, Src(), byte ? 0x3ff : 0x3fc);
    a_.add(addr, addr, r(kIntBaseReg));
    switch (rng_.Below(4)) {
      case 0: a_.lw(Dest(), addr, 0); break;
      case 1: a_.sw(Src(), addr, 0); break;
      case 2:
        if (byte) a_.lbu(Dest(), addr, 0);
        else a_.lw(Dest(), addr, 0);
        break;
      default:
        if (byte) a_.sb(Src(), addr, 0);
        else a_.sw(Src(), addr, 0);
        break;
    }
  }

  // Straight-line item: safe anywhere, including leaf function bodies.
  void EmitSimple() {
    switch (rng_.Below(4)) {
      case 0: EmitMem(); break;
      case 1: EmitFp(); break;
      default: EmitAlu(); break;
    }
  }

  // Forward conditional skip over a short straight-line block.
  void EmitSkip() {
    Label past = a_.NewLabel();
    const RegId s = Src(), t = Src();
    switch (rng_.Below(6)) {
      case 0: a_.beq(s, t, past); break;
      case 1: a_.bne(s, t, past); break;
      case 2: a_.blt(s, t, past); break;
      case 3: a_.bge(s, t, past); break;
      case 4: a_.bltu(s, t, past); break;
      default: a_.bgeu(s, t, past); break;
    }
    const int body = 1 + static_cast<int>(rng_.Below(4));
    for (int i = 0; i < body; ++i) EmitSimple();
    a_.Bind(past);
  }

  // Counted loop: the counter register is reserved per nest depth, so no
  // body item can clobber it — every loop terminates by construction.
  void EmitLoop(int depth) {
    const RegId ctr = r(kLoopReg0 + depth);
    a_.li(ctr, static_cast<std::int32_t>(2 + rng_.Below(9)));
    Label top = a_.BindNew();
    const int body = 2 + static_cast<int>(rng_.Below(5));
    for (int i = 0; i < body; ++i) EmitItem(depth + 1);
    a_.addi(ctr, ctr, -1);
    a_.bne(ctr, kRegZero, top);
  }

  void EmitItem(int depth) {
    const std::uint64_t roll = rng_.Below(10);
    if (roll == 0 && depth < 2) {
      EmitLoop(depth);
    } else if (roll == 1) {
      EmitSkip();
    } else if (roll == 2 && depth == 0 && !funcs_.empty()) {
      a_.jal(funcs_[rng_.Below(funcs_.size())]);
    } else if (roll == 3) {
      a_.out(Src());
    } else {
      EmitSimple();
    }
  }

  Assembler a_;
  Rng rng_;
  std::vector<Label> funcs_;
};

void AddFuzzData(Program* prog, std::uint64_t data_seed) {
  Rng rng(data_seed);
  DataSegment& ints = prog->AddSegment(kIntBase, kIntWords * 4);
  workloads::FillRandomWords(ints, kIntBase, kIntWords, 0, rng);
  DataSegment& fps = prog->AddSegment(kFpBase, kFpCount * 8);
  workloads::FillRandomF64(fps, kFpBase, kFpCount, rng);
}

// Text depends only on text_seed; the data image on data_seed. The
// reference and profiling variants therefore share their text section,
// which is what CompileSpear requires (and what the paper's
// different-input profiling methodology means).
Program BuildFuzzProgram(std::uint64_t text_seed, std::uint64_t data_seed) {
  Program prog;
  FuzzGen gen(&prog, text_seed);
  gen.Generate();
  AddFuzzData(&prog, data_seed);
  return prog;
}

struct Outcome {
  bool diverged = false;
  std::string summary;
  std::string report;
};

// --taint attaches the speculative-leakage observer to every cosim run,
// proving the observer hooks never perturb the commit stream.
bool g_taint = false;

Outcome RunCosim(const Program& prog, bool spear, std::uint64_t sim_instrs,
                 std::uint64_t max_cycles) {
  CoreConfig cfg = spear ? SpearCoreConfig(256) : BaselineConfig(128);
  cfg.cosim_check = true;
  cfg.taint_observe = g_taint;
  EvalOptions opt;
  opt.sim_instrs = sim_instrs;
  opt.max_cycles = max_cycles;
  const RunStats s = RunConfig(prog, cfg, opt);
  Outcome o;
  o.diverged = s.cosim_diverged;
  o.summary = s.cosim_summary;
  o.report = s.cosim_report;
  return o;
}

Program Annotate(const Program& profile, const Program& plain) {
  CompilerOptions copts;
  return CompileSpear(profile, plain, copts);
}

// Greedy shrink: replace one instruction at a time with a nop and keep
// the substitution whenever the divergence survives. Loop back-edges and
// counter updates may be nopped out — a candidate that stops terminating
// simply burns its (reduced) max_cycles and is rejected because it never
// reaches the divergence.
struct Shrunk {
  Program plain;
  Program profile;
};

Shrunk ShrinkCase(Program plain, Program profile, bool spear,
                  std::uint64_t sim_instrs) {
  const std::uint64_t shrink_cycles = 2'000'000;
  const Instruction nop{Opcode::kNop, 0, 0, 0, 0};
  bool changed = true;
  int pass = 0;
  while (changed && pass < 4) {
    changed = false;
    ++pass;
    for (std::size_t i = 0; i < plain.text.size(); ++i) {
      const Opcode op = plain.text[i].op;
      if (op == Opcode::kHalt || op == Opcode::kNop) continue;
      Program cand = plain;
      cand.text[i] = nop;
      Program cand_prof = profile;
      cand_prof.text[i] = nop;
      const Program& torun = spear ? Annotate(cand_prof, cand) : cand;
      if (RunCosim(torun, spear, sim_instrs, shrink_cycles).diverged) {
        plain = std::move(cand);
        profile = std::move(cand_prof);
        changed = true;
      }
    }
  }
  return {std::move(plain), std::move(profile)};
}

int ReplayCorpus(const std::string& dir, std::uint64_t sim_instrs,
                 std::uint64_t max_cycles, int* replayed) {
  *replayed = 0;
  if (!std::filesystem::is_directory(dir)) return tools::kExitOk;
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string p = e.path().string();
    if (p.size() > 9 && p.substr(p.size() - 9) == ".spearbin") {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  int rc = tools::kExitOk;
  for (const std::string& path : files) {
    const Program prog = ReadProgram(path, SpecLoadPolicy::kWarn);
    ++*replayed;
    const bool spear = !prog.pthreads.empty();
    const Outcome o = RunCosim(prog, spear, sim_instrs, max_cycles);
    if (o.diverged) {
      std::fprintf(stderr, "spearfuzz: corpus %s STILL DIVERGES (%s)\n%s",
                   path.c_str(), spear ? "spear256" : "base",
                   o.report.c_str());
      rc = tools::kExitCosimDivergence;
    } else {
      std::printf("spearfuzz: corpus %s ok (%s)\n", path.c_str(),
                  spear ? "spear256" : "base");
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(
      argc, argv,
      {{"seeds", "number of random programs to generate (default 25)"},
       {"seed-base", "first seed of the range (default 1)"},
       {"instrs", "per-run commit budget (default 200000)"},
       {"time-budget", "stop generating after this many seconds (0 = off)"},
       {"corpus", "reproducer directory, replayed first "
                  "(default tests/corpus)"},
       {"replay-only", "only replay the corpus, generate nothing"},
       {"taint", "attach the speculative-leakage taint observer to every "
                 "run (checks the hooks don't perturb cosim)"},
       {"no-shrink", "persist failing programs without shrinking"}});
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "spearfuzz: unexpected positional argument\n");
    return tools::kExitUsage;
  }
  if (flags.GetBool("taint")) {
    if (!spear::taint::kTaintCompiled) {
      std::fprintf(stderr,
                   "spearfuzz: taint hooks compiled out "
                   "(SPEAR_ENABLE_TAINT=0); --taint unavailable\n");
      return tools::kExitUsage;
    }
    g_taint = true;
  }

  const std::uint64_t sim_instrs =
      static_cast<std::uint64_t>(flags.GetInt("instrs", 200'000));
  const std::uint64_t max_cycles = 20'000'000;
  const std::string corpus = flags.Get("corpus", "tests/corpus");

  int replayed = 0;
  int rc = ReplayCorpus(corpus, sim_instrs, max_cycles, &replayed);
  if (flags.GetBool("replay-only")) {
    std::printf("spearfuzz: replayed %d reproducer%s, %s\n", replayed,
                replayed == 1 ? "" : "s",
                rc == tools::kExitOk ? "all clean" : "DIVERGENCE");
    return rc;
  }

  const long seeds = flags.GetInt("seeds", 25);
  const std::uint64_t seed_base =
      static_cast<std::uint64_t>(flags.GetInt("seed-base", 1));
  const double budget_s =
      static_cast<double>(flags.GetInt("time-budget", 0));
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  long tried = 0;
  int found = 0;
  for (long i = 0; i < seeds; ++i) {
    if (budget_s > 0 && elapsed_s() > budget_s) {
      std::printf("spearfuzz: time budget exhausted after %ld seeds\n",
                  tried);
      break;
    }
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    ++tried;
    // Reference and profiling data images differ (paper methodology);
    // both are derived deterministically from the program seed.
    Program plain = BuildFuzzProgram(seed, seed * 2654435761u + 1);
    Program profile = BuildFuzzProgram(seed, seed * 2654435761u + 2);
    const Program annotated = Annotate(profile, plain);

    for (const bool spear_cfg : {false, true}) {
      const Program& torun = spear_cfg ? annotated : plain;
      const Outcome o = RunCosim(torun, spear_cfg, sim_instrs, max_cycles);
      if (!o.diverged) continue;
      ++found;
      rc = tools::kExitCosimDivergence;
      std::fprintf(stderr, "spearfuzz: seed %llu DIVERGED (%s)\n%s",
                   static_cast<unsigned long long>(seed),
                   spear_cfg ? "spear256" : "base", o.report.c_str());
      Program keep_plain = plain;
      Program keep_profile = profile;
      if (!flags.GetBool("no-shrink")) {
        std::printf("spearfuzz: shrinking seed %llu...\n",
                    static_cast<unsigned long long>(seed));
        Shrunk s =
            ShrinkCase(keep_plain, keep_profile, spear_cfg, sim_instrs);
        keep_plain = std::move(s.plain);
        keep_profile = std::move(s.profile);
      }
      std::filesystem::create_directories(corpus);
      const std::string path =
          corpus + "/div-seed" + std::to_string(seed) +
          (spear_cfg ? "-spear256" : "-base") + ".spearbin";
      WriteProgram(
          spear_cfg ? Annotate(keep_profile, keep_plain) : keep_plain, path);
      std::printf("spearfuzz: reproducer written to %s\n", path.c_str());
    }
    if (tried % 10 == 0) {
      std::printf("spearfuzz: %ld/%ld seeds, %d divergence%s\n", tried,
                  seeds, found, found == 1 ? "" : "s");
      std::fflush(stdout);
    }
  }

  std::printf("spearfuzz: %d reproducer%s replayed, %ld seed%s fuzzed "
              "(base + spear256), %d divergence%s\n",
              replayed, replayed == 1 ? "" : "s", tried,
              tried == 1 ? "" : "s", found, found == 1 ? "" : "s");
  return rc;
}

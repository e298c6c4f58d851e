// The repo benchmark driver (perfbench/README.md). Runs one named workload
// -- a runner manifest under perfbench/workloads/ -- from one thread in a
// closed loop: each row starts when the previous one finishes. It times
// set-up (workload build + SPEAR post-compile) and whole passes over the
// rows, checks every row's simulated result against the committed
// reference, and prints one JSON result line last.
//
// With --trace 1 the passes alternate untraced and traced. Traced passes
// record spans around each layer's public calls (kept in memory, written
// out when the run ends); the per-layer metrics are span self-times plus
// counts from the returned stats, and a few calibrations run after the
// timed passes. End-to-end numbers come from untraced runs only.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cpu/core.h"
#include "eval/harness.h"
#include "runner/checkpoint.h"
#include "runner/manifest.h"
#include "sampling/sampled_run.h"
#include "sim/emulator.h"
#include "telemetry/json.h"
#include "telemetry/registry.h"
#include "tool_flags.h"
#include "workloads/workload.h"

namespace spear::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using telemetry::JsonValue;

constexpr std::uint64_t kDefaultRefSeed = 42;
constexpr std::uint64_t kDefaultProfileSeed = 20040426;
// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow build dominating.
constexpr int kSetups = 5;
// Repetitions of each traced-run calibration (median taken).
constexpr int kCalibrationReps = 5;

const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Sum over items of each item's median across samples (by_item[i] holds
// item i's samples). Host interference here comes in bursts shorter than
// a pass: the per-item median drops a burst that hit one row in one pass,
// where a median of whole-pass times keeps it once half the passes saw one.
double SumOfMedians(const std::vector<std::vector<double>>& by_item) {
  double sum = 0.0;
  for (const std::vector<double>& v : by_item) sum += Median(v);
  return sum;
}

// ---- spans ----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
  int row = -1;     // index into the row-id list, -1 outside rows
  int phase = 0;    // timed pass number, or -1 - k for set-up k
};

// Records spans only while `enabled`; disabled, Begin/End are a branch.
class Tracer {
 public:
  bool enabled = false;
  int phase = 0;

  int Begin(const char* name, int row) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, Now(), 0.0, current_, row, phase});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int idx) {
    if (idx < 0) return;
    spans_[idx].end = Now();
    current_ = spans_[idx].parent;
  }

  // Per span name: total self time (duration minus the part covered by
  // child spans) and span count, over the spans of one phase.
  std::map<std::string, std::pair<double, int>> SelfTimes(int phase) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, std::pair<double, int>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].phase != phase) continue;
      auto& [self, n] = out[spans_[i].name];
      self += spans_[i].end - spans_[i].start - child[i];
      ++n;
    }
    return out;
  }

  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  JsonValue ToJson(const std::vector<std::string>& row_ids) const {
    JsonValue events = JsonValue::Array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue e = JsonValue::Object();
      e.Set("name", JsonValue(s.name));
      e.Set("ph", JsonValue("X"));
      e.Set("ts", JsonValue(s.start * 1e6));
      e.Set("dur", JsonValue((s.end - s.start) * 1e6));
      e.Set("pid", JsonValue(1));
      e.Set("tid", JsonValue(1));
      JsonValue args = JsonValue::Object();
      args.Set("id", JsonValue(static_cast<std::int64_t>(i)));
      args.Set("parent", JsonValue(s.parent));
      args.Set("phase", JsonValue(s.phase));
      if (s.row >= 0) args.Set("row", JsonValue(row_ids[s.row]));
      e.Set("args", std::move(args));
      events.Append(std::move(e));
    }
    JsonValue doc = JsonValue::Object();
    doc.Set("traceEvents", std::move(events));
    return doc;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int row = -1)
      : t_(t), idx_(t.Begin(name, row)) {}
  ~ScopedSpan() { t_.End(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// ---- set-up -----------------------------------------------------------------

double ImageMb(const Program& p) {
  std::size_t bytes = p.text.size() * kInstrBytes;
  for (const DataSegment& seg : p.data) bytes += seg.bytes.size();
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

struct Prepared {
  std::map<std::string, PreparedWorkload> kernels;
  std::vector<double> kernel_s;  // host seconds per kernel, manifest order
  double image_mb = 0.0;  // every program built (reference + profile input)
};

std::vector<std::string> KernelNames(const runner::Manifest& m) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const runner::JobSpec& job : runner::ExpandJobs(m)) {
    std::vector<std::string> ws = job.workloads;
    if (!job.is_mix()) ws = {job.workload};
    for (const std::string& w : ws) {
      if (seen.insert(w).second) names.push_back(w);
    }
  }
  return names;
}

// PrepareWorkload (eval/harness) split at its two layer calls so each
// gets its own span.
Prepared Setup(const runner::Manifest& m, Tracer& tr) {
  Prepared p;
  const CompilerOptions compiler =
      runner::MakeEvalOptions(m.defaults, m.configs.front()).compiler;
  for (const std::string& name : KernelNames(m)) {
    const double t0 = Now();
    PreparedWorkload& pw = p.kernels[name];
    pw.name = name;
    Program profile_input;
    {
      ScopedSpan s(tr, "workloads.build");
      pw.plain = BuildWorkloadProgram(name, {m.defaults.ref_seed,
                                             m.defaults.scale});
      profile_input = BuildWorkloadProgram(name, {m.defaults.profile_seed,
                                                  m.defaults.scale});
    }
    {
      ScopedSpan s(tr, "compiler.compile");
      pw.annotated =
          CompileSpear(profile_input, pw.plain, compiler, &pw.compile_report);
    }
    p.image_mb += ImageMb(pw.plain) + ImageMb(profile_input);
    p.kernel_s.push_back(Now() - t0);
  }
  return p;
}

// ---- rows -------------------------------------------------------------------

struct RowResult {
  JsonValue check;     // simulated result compared against the reference
  bool complete = false;
  std::string error;   // set when the row produced no result
  std::uint64_t sim_instrs = 0;  // committed, or region-covered if sampled
  std::uint64_t cycles = 0;
  // Single-program rows (detailed, or sampled point estimates).
  bool single = false;
  bool spear = false;
  RunStats stats;
  std::uint64_t intervals = 0;
  double ci_halfwidth_pct = 0.0;
  std::size_t doc_bytes = 0;
  double wall_s = 0.0;  // host seconds for the whole row
};

struct Context {
  const runner::Manifest& m;
  const Prepared& prepared;
  Tracer& tr;
  std::string ckpt_dir;
};

runner::CheckpointKey MakeKey(const runner::Manifest& m,
                              const std::string& workload,
                              const CoreConfig& cfg, std::uint64_t ff) {
  runner::CheckpointKey key;
  key.workload = workload;
  key.seed = m.defaults.ref_seed;
  key.ff_instrs = ff;
  key.scale = m.defaults.scale;
  key.l1d = cfg.mem.l1d;
  key.l2 = cfg.mem.l2;
  key.bpred = cfg.bpred;
  return key;
}

// The condensed result RunConfig (eval/harness) reports for a plain run.
RunStats Condense(const Core& core, const RunResult& rr,
                  std::uint64_t budget) {
  RunStats s;
  s.cycles = rr.cycles;
  s.instructions = rr.instructions;
  s.ipc = rr.Ipc();
  s.halted = rr.halted;
  s.l1d_misses_main = core.hierarchy().l1d().misses(kMainThread);
  s.l1d_misses_pthread = core.hierarchy().l1d().misses(kPThread);
  s.l2_misses_main = core.hierarchy().l2().misses(kMainThread);
  s.l2_misses_pthread = core.hierarchy().l2().misses(kPThread);
  s.branch_hit_ratio = core.stats().BranchHitRatio();
  s.ipb = core.stats().Ipb();
  s.triggers = core.stats().triggers_fired;
  s.sessions = core.stats().preexec_sessions_completed;
  s.extracted = core.stats().pthread_extracted;
  s.dispatched_wrongpath = core.stats().dispatched_wrongpath;
  s.squashed_wrongpath = core.stats().squashed_wrongpath;
  s.ifq_flushed = core.stats().ifq_flushed;
  s.chained_triggers = core.stats().chained_triggers;
  s.complete = s.halted || s.instructions >= budget;
  return s;
}

JsonValue DocHeader(const char* kind) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue(telemetry::kStatsSchemaVersion));
  doc.Set("kind", JsonValue(kind));
  return doc;
}

// Full-detail row: fast-forward through the checkpoint layer (save on
// first use, load afterwards), timed core run, stats document emit.
RowResult RunDetailedRow(const Context& c, const runner::JobSpec& job,
                         const CoreConfig& cfg, const Program& prog,
                         const EvalOptions& options, int row) {
  RowResult out;
  const PreparedWorkload& pw = c.prepared.kernels.at(job.workload);
  const std::uint64_t ff = c.m.defaults.ff_instrs;
  WarmState warm;
  if (ff > 0) {
    const runner::CheckpointKey key = MakeKey(c.m, job.workload, cfg, ff);
    bool hit = false;
    {
      ScopedSpan s(c.tr, "ckpt.load", row);
      hit = runner::LoadCheckpoint(c.ckpt_dir, key, &warm);
    }
    if (!hit) {
      {
        ScopedSpan s(c.tr, "ckpt.ff", row);
        warm = std::move(runner::FastForward(pw.plain, key).state);
      }
      std::string err;
      ScopedSpan s(c.tr, "ckpt.save", row);
      if (!runner::SaveCheckpoint(c.ckpt_dir, key, warm, &err)) {
        out.error = "checkpoint save failed: " + err;
        return out;
      }
    }
    if (warm.halted) {
      out.error = "workload halted during fast-forward";
      return out;
    }
  }
  std::unique_ptr<Core> core;
  {
    ScopedSpan s(c.tr, "cpu.construct", row);
    core = std::make_unique<Core>(prog, cfg);
    if (ff > 0) core->InstallWarmState(warm);
  }
  RunResult rr;
  {
    ScopedSpan s(c.tr, "cpu.run", row);
    rr = core->Run(options.sim_instrs, options.max_cycles);
  }
  out.stats = Condense(*core, rr, options.sim_instrs);
  {
    ScopedSpan s(c.tr, "telemetry.emit", row);
    telemetry::StatRegistry reg;
    core->RegisterStats(reg);
    JsonValue meta = JsonValue::Object();
    meta.Set("binary", JsonValue(job.workload));
    meta.Set("spear", JsonValue(cfg.spear.enabled));
    meta.Set("ifq_size", JsonValue(static_cast<std::int64_t>(cfg.ifq_size)));
    if (ff > 0) meta.Set("ff_instrs", JsonValue(ff));
    meta.Set("complete", JsonValue(out.stats.complete));
    out.doc_bytes =
        telemetry::StatsDocument(reg, "spearsim", meta).Dump(2).size();
  }
  out.check = RunStatsToJson(out.stats);
  out.complete = out.stats.complete;
  out.sim_instrs = rr.instructions;
  out.cycles = rr.cycles;
  out.single = true;
  return out;
}

// Sampled row, run cold (no checkpoint tree) so the functional legs and
// the per-interval state materialisation run every time.
RowResult RunSampledRow(const Context& c, const runner::JobSpec& job,
                        const CoreConfig& cfg, const Program& prog,
                        const EvalOptions& options, int row) {
  RowResult out;
  const PreparedWorkload& pw = c.prepared.kernels.at(job.workload);
  sampling::SampledStats ss;
  {
    ScopedSpan s(c.tr, "sampling.run", row);
    ss = sampling::RunSampled(pw.plain, prog, cfg, options,
                              c.m.defaults.sampling, c.m.defaults.ff_instrs);
  }
  if (ss.covered_instrs == 0 && ss.stats.halted) {
    out.error = "workload halted during fast-forward";
    return out;
  }
  {
    ScopedSpan s(c.tr, "telemetry.emit", row);
    JsonValue doc = DocHeader("spearsim");
    doc.Set("binary", JsonValue(job.workload));
    doc.Set("spear", JsonValue(cfg.spear.enabled));
    doc.Set("ifq_size", JsonValue(static_cast<std::int64_t>(cfg.ifq_size)));
    doc.Set("ff_instrs", JsonValue(c.m.defaults.ff_instrs));
    doc.Set("complete", JsonValue(ss.stats.complete));
    doc.Set("stats", sampling::SampledStatsToJson(ss));
    out.doc_bytes = doc.Dump(2).size();
    out.check = *doc.Find("stats");
  }
  out.stats = ss.stats;
  out.complete = ss.stats.complete;
  out.sim_instrs = ss.covered_instrs;
  out.cycles = ss.stats.cycles;
  out.single = true;
  out.intervals = ss.intervals;
  out.ci_halfwidth_pct = 100.0 * Ratio(ss.ipc.ci_hi - ss.ipc.mean,
                                       ss.ipc.mean);
  return out;
}

// Multiprogram row through RunMix: cold, full detail, no solo re-runs.
RowResult RunMixRow(const Context& c, const runner::JobSpec& job,
                    const runner::ConfigSpec& spec, const CoreConfig& cfg,
                    const EvalOptions& options, int row) {
  RowResult out;
  std::vector<const Program*> progs;
  for (const std::string& w : job.workloads) {
    const PreparedWorkload& pw = c.prepared.kernels.at(w);
    progs.push_back(runner::ResolveBinary(spec) == "plain" ? &pw.plain
                                                           : &pw.annotated);
  }
  MixRunStats mix;
  {
    ScopedSpan s(c.tr, "mix.run", row);
    mix = RunMix(progs, job.workloads, cfg, options, spec.cores);
  }
  {
    ScopedSpan s(c.tr, "telemetry.emit", row);
    JsonValue doc = DocHeader("spearsim-mix");
    JsonValue bins = JsonValue::Array();
    for (const std::string& w : job.workloads) bins.Append(JsonValue(w));
    doc.Set("binaries", std::move(bins));
    doc.Set("spear", JsonValue(cfg.spear.enabled));
    doc.Set("cores", JsonValue(static_cast<std::int64_t>(spec.cores)));
    doc.Set("complete", JsonValue(mix.complete));
    doc.Set("stats", MixRunStatsToJson(mix));
    out.doc_bytes = doc.Dump(2).size();
    out.check = *doc.Find("stats");
  }
  out.complete = mix.complete;
  out.sim_instrs = mix.instructions;
  out.cycles = mix.cycles;
  return out;
}

RowResult RunRow(const Context& c, const runner::JobSpec& job, int row) {
  ScopedSpan s(c.tr, "row", row);
  const runner::ConfigSpec& spec = c.m.configs[job.config];
  const EvalOptions options = runner::MakeEvalOptions(c.m.defaults, spec);
  const CoreConfig cfg = runner::MakeCoreConfig(spec);
  if (job.is_mix()) return RunMixRow(c, job, spec, cfg, options, row);
  const PreparedWorkload& pw = c.prepared.kernels.at(job.workload);
  const Program& prog =
      runner::ResolveBinary(spec) == "plain" ? pw.plain : pw.annotated;
  RowResult out = c.m.defaults.sampling.enabled()
                      ? RunSampledRow(c, job, cfg, prog, options, row)
                      : RunDetailedRow(c, job, cfg, prog, options, row);
  out.spear = spec.spear;
  return out;
}

// RunDetailedRow splits RunConfig (eval/harness), the call spearrun makes,
// to place spans between its steps. This re-runs a detailed row through
// RunConfig itself: "" when the result equals the row's, so drift between
// the split and the program's own path fails loudly.
std::string CrossCheckRow(const Context& c, const runner::JobSpec& job,
                          const RowResult& r) {
  const runner::ConfigSpec& spec = c.m.configs[job.config];
  const EvalOptions options = runner::MakeEvalOptions(c.m.defaults, spec);
  const CoreConfig cfg = runner::MakeCoreConfig(spec);
  const PreparedWorkload& pw = c.prepared.kernels.at(job.workload);
  const Program& prog =
      runner::ResolveBinary(spec) == "plain" ? pw.plain : pw.annotated;
  const std::uint64_t ff = c.m.defaults.ff_instrs;
  WarmState warm;
  if (ff > 0) {
    warm = std::move(
        runner::FastForward(pw.plain, MakeKey(c.m, job.workload, cfg, ff))
            .state);
  }
  const JsonValue got =
      RunStatsToJson(RunConfig(prog, cfg, options, ff > 0 ? &warm : nullptr));
  if (got.Dump() == r.check.Dump()) return "";
  return "RunConfig gives " + got.Dump() + ", the benchmark's row " +
         r.check.Dump();
}

// "" when the row is correct, else a one-line reason. Without a reference
// (non-default seeds) only an incomplete or aborted row fails.
std::string CheckRow(const RowResult& r, const JsonValue* want) {
  if (!r.error.empty()) return r.error;
  if (!r.complete) return "incomplete: max_cycles fired before the budget";
  if (want == nullptr) return "";
  for (const auto& [key, value] : want->members()) {
    const JsonValue* got = r.check.Find(key);
    if (got == nullptr) return "missing field " + key;
    if (got->Dump() != value.Dump()) {
      return key + " = " + got->Dump() + ", reference " + value.Dump();
    }
  }
  if (r.check.members().size() != want->members().size()) {
    return "field set differs from the reference";
  }
  return "";
}

// ---- passes -----------------------------------------------------------------

struct Pass {
  bool warmup = false;  // traced runs only: untimed, still checked
  bool traced = false;
  double wall_s = 0.0;
  std::uint64_t sim_instrs = 0;
  double ckpt_mb = 0.0;
  std::vector<RowResult> rows;  // indexed by row (job) number
  std::vector<std::string> verdicts;
};

// The process's resident high-water mark (VmHWM) in MB, or 0 if unknown.
double HighWaterMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double DirMb(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// One pass over every row, in an order shuffled from (seed, pass).
Pass RunPass(const Context& c, const std::vector<runner::JobSpec>& jobs,
             std::uint64_t seed, int pass_no, const JsonValue* reference,
             const std::vector<std::string>& ids) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(pass_no));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }

  std::error_code ec;
  std::filesystem::remove_all(c.ckpt_dir, ec);
  Pass p;
  p.traced = c.tr.enabled;
  p.rows.resize(jobs.size());
  const double t0 = Now();
  for (std::size_t i : order) {
    const double r0 = Now();
    p.rows[i] = RunRow(c, jobs[i], static_cast<int>(i));
    p.rows[i].wall_s = Now() - r0;
  }
  p.wall_s = Now() - t0;
  p.ckpt_mb = DirMb(c.ckpt_dir);
  std::filesystem::remove_all(c.ckpt_dir, ec);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    p.sim_instrs += p.rows[i].sim_instrs;
    const JsonValue* want =
        reference != nullptr ? reference->Find(ids[i]) : nullptr;
    std::string verdict = CheckRow(p.rows[i], want);
    if (reference != nullptr && want == nullptr && verdict.empty()) {
      verdict = "no reference entry";
    }
    p.verdicts.push_back(std::move(verdict));
  }
  return p;
}

// Σ over rows of the row's median host time across the timed passes that
// were (or were not) traced: the pass wall time the run reports.
double RowMedianWall(const std::vector<Pass>& passes, bool traced,
                     std::size_t* samples) {
  std::vector<std::vector<double>> by_row;
  *samples = 0;
  for (const Pass& p : passes) {
    if (p.warmup || p.traced != traced) continue;
    ++*samples;
    by_row.resize(p.rows.size());
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
      by_row[i].push_back(p.rows[i].wall_s);
    }
  }
  return SumOfMedians(by_row);
}

// ---- per-layer calibrations (traced runs, after the timed passes) ----------

struct Calibration {
  double emu_instrs = 0.0;
  double emu_s = 0.0;
  double ff_instrs = 0.0;  // sampled rows: ff + region on the substrate
  double ff_s = 0.0;
  double interval_s = 0.0;  // sum over sampled rows of intervals x median
  std::uint64_t intervals = 0;
};

template <typename Fn>
double MedianTime(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    t.push_back(Now() - t0);
  }
  return Median(t);
}

Calibration Calibrate(const runner::Manifest& m, const Prepared& prepared,
                      const std::vector<runner::JobSpec>& jobs,
                      const Pass& last) {
  Calibration cal;
  const bool sampled = m.defaults.sampling.enabled();
  const std::uint64_t ff = m.defaults.ff_instrs;
  // The functional leg each single-program row runs on the substrate.
  const std::uint64_t leg = sampled ? ff + m.defaults.sim_instrs : ff;
  if (leg == 0) return cal;
  std::set<std::string> done;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const runner::JobSpec& job = jobs[i];
    if (job.is_mix()) continue;
    const PreparedWorkload& pw = prepared.kernels.at(job.workload);
    const runner::ConfigSpec& spec = m.configs[job.config];
    const CoreConfig cfg = runner::MakeCoreConfig(spec);
    if (done.insert(job.workload).second) {
      // Emulator::Run over the same leg, without warming (the image load
      // in the constructor is not part of it).
      std::vector<double> t;
      std::uint64_t executed = 0;
      for (int rep = 0; rep < kCalibrationReps; ++rep) {
        Emulator emu(pw.plain);
        const double t0 = Now();
        executed = emu.Run(leg);
        t.push_back(Now() - t0);
      }
      cal.emu_s += Median(t);
      cal.emu_instrs += static_cast<double>(executed);
    }
    if (!sampled) continue;
    // Warmed functional speed over ff + region (the substrate protocol).
    std::uint64_t ff_executed = 0;
    cal.ff_s += MedianTime(kCalibrationReps, [&] {
      ff_executed = runner::FastForward(pw.plain,
                                        MakeKey(m, job.workload, cfg, leg))
                        .executed;
    });
    cal.ff_instrs += static_cast<double>(ff_executed);
    // One interval: fresh Core + InstallWarmState(root) + warmup + detail,
    // sharing a decoded-block cache across intervals as RunSampled does.
    const WarmState root =
        std::move(runner::FastForward(pw.plain, MakeKey(m, job.workload, cfg,
                                                        ff))
                      .state);
    const Program& prog =
        runner::ResolveBinary(spec) == "plain" ? pw.plain : pw.annotated;
    const sampling::SamplingPlan& plan = m.defaults.sampling;
    BlockCache cache;
    const double per_interval = MedianTime(kCalibrationReps, [&] {
      Core core(prog, cfg, &cache);
      core.InstallWarmState(root);
      core.Run(plan.warmup, m.defaults.max_cycles);
      core.Run(plan.warmup + plan.detail, m.defaults.max_cycles);
    });
    cal.interval_s +=
        per_interval * static_cast<double>(last.rows[i].intervals);
    cal.intervals += last.rows[i].intervals;
  }
  return cal;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

JsonValue MetricsJson(const std::vector<Metric>& ms) {
  JsonValue o = JsonValue::Object();
  for (const Metric& m : ms) {
    JsonValue v = JsonValue::Object();
    v.Set("value", JsonValue(m.value));
    v.Set("unit", JsonValue(m.unit));
    o.Set(m.name, std::move(v));
  }
  return o;
}

std::vector<Metric> LayerMetrics(const runner::Manifest& m,
                                 const Prepared& prepared,
                                 const std::vector<double>& build_s,
                                 const std::vector<double>& compile_s,
                                 const std::vector<Pass>& passes,
                                 const Tracer& tr, const Calibration& cal) {
  // Per traced pass: self time and span count per layer.
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, int> count;
  std::vector<double> ckpt_mb;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    if (!passes[p].traced) continue;
    ckpt_mb.push_back(passes[p].ckpt_mb);
    for (const auto& [name, sn] : tr.SelfTimes(static_cast<int>(p))) {
      self[name].push_back(sn.first);
      count[name] = sn.second;
    }
  }
  auto med = [&](const char* name) { return Median(self[name]); };

  // Counts from the returned stats (identical on every pass).
  const Pass& last = passes.back();
  double committed = 0, cycles = 0, wrongpath = 0, l1d = 0, l2 = 0;
  double spear_instrs = 0, extracted = 0, sessions = 0, triggers = 0;
  double mix_instrs = 0, mix_cycles = 0, intervals = 0, ci_sum = 0;
  double sampled_rows = 0, doc_bytes = 0;
  for (const RowResult& r : last.rows) {
    doc_bytes += static_cast<double>(r.doc_bytes);
    if (!r.single) {
      mix_instrs += static_cast<double>(r.sim_instrs);
      mix_cycles += static_cast<double>(r.cycles);
      continue;
    }
    const RunStats& s = r.stats;
    const double n = static_cast<double>(s.instructions);
    committed += n;
    cycles += static_cast<double>(s.cycles);
    wrongpath += static_cast<double>(s.dispatched_wrongpath);
    l1d += static_cast<double>(s.l1d_misses_main);
    l2 += static_cast<double>(s.l2_misses_main);
    if (r.spear) {
      spear_instrs += n;
      extracted += static_cast<double>(s.extracted);
      sessions += static_cast<double>(s.sessions);
      triggers += static_cast<double>(s.triggers);
    }
    if (m.defaults.sampling.enabled()) {
      intervals += static_cast<double>(r.intervals);
      ci_sum += r.ci_halfwidth_pct;
      ++sampled_rows;
    }
  }
  double specs = 0, slice_instrs = 0;
  for (const auto& [name, pw] : prepared.kernels) {
    specs += static_cast<double>(pw.annotated.pthreads.size());
    for (const PThreadSpec& s : pw.annotated.pthreads) {
      slice_instrs += static_cast<double>(s.slice_pcs.size());
    }
  }
  const double rows = static_cast<double>(last.rows.size());

  // Fast-forward: the flat checkpoint layer on detailed rows, the
  // calibrated substrate speed over ff + region on sampled rows.
  const bool sampled = m.defaults.sampling.enabled();
  double ff_s = med("ckpt.ff");
  double ff_instrs =
      static_cast<double>(count["ckpt.ff"]) *
      static_cast<double>(m.defaults.ff_instrs);
  if (sampled) {
    ff_s = cal.ff_s;
    ff_instrs = cal.ff_instrs;
  }
  const double ff_mips = Ratio(ff_instrs, ff_s) / 1e6;
  const double interval_ms =
      1e3 * Ratio(cal.interval_s, static_cast<double>(cal.intervals));
  const double sampling_run_s = med("sampling.run");
  const double residual_s =
      sampled ? sampling_run_s - cal.ff_s - cal.interval_s : 0.0;
  const double cpu_run_s = med("cpu.run");
  const double mix_run_s = med("mix.run");
  std::size_t n = 0;
  const double untraced = RowMedianWall(passes, false, &n);
  const double traced = RowMedianWall(passes, true, &n);

  return {
      {"workloads.build_s", Median(build_s), "s"},
      {"workloads.image_mb", prepared.image_mb, "MB"},
      {"compiler.compile_s", Median(compile_s), "s"},
      {"compiler.specs", specs, "count"},
      {"compiler.slice_instrs", slice_instrs, "count"},
      {"ckpt.ff_s", ff_s, "s"},
      {"ckpt.ff_mips", ff_mips, "MIPS"},
      {"ckpt.save_s", med("ckpt.save"), "s"},
      {"ckpt.load_s", med("ckpt.load"), "s"},
      {"ckpt.mb", Median(ckpt_mb), "MB"},
      {"sim.emu_mips", Ratio(cal.emu_instrs, cal.emu_s) / 1e6, "MIPS"},
      {"cpu.construct_ms",
       1e3 * Ratio(med("cpu.construct"),
                   static_cast<double>(count["cpu.construct"])),
       "ms"},
      {"cpu.run_s", cpu_run_s, "s"},
      {"cpu.mips",
       sampled ? 0.0 : Ratio(committed, cpu_run_s) / 1e6, "MIPS"},
      {"cpu.host_ns_per_cycle",
       sampled ? 0.0 : 1e9 * Ratio(cpu_run_s, cycles), "ns"},
      {"cpu.useful_dispatch", Ratio(committed, committed + wrongpath),
       "ratio"},
      {"mem.l1d_mpki", 1e3 * Ratio(l1d, committed), "1/kinstr"},
      {"mem.l2_mpki", 1e3 * Ratio(l2, committed), "1/kinstr"},
      {"spear.extracted_pki", 1e3 * Ratio(extracted, spear_instrs),
       "1/kinstr"},
      {"spear.session_ratio", Ratio(sessions, triggers), "ratio"},
      {"sampling.run_s", sampling_run_s, "s"},
      {"sampling.intervals", intervals, "count"},
      {"sampling.ci_halfwidth_pct", Ratio(ci_sum, sampled_rows), "%"},
      {"sampling.interval_ms", interval_ms, "ms"},
      {"sampling.residual_s", residual_s, "s"},
      {"mix.run_s", mix_run_s, "s"},
      {"mix.mips", Ratio(mix_instrs, mix_run_s) / 1e6, "MIPS"},
      {"mix.throughput_ipc", Ratio(mix_instrs, mix_cycles), "IPC"},
      {"telemetry.emit_ms", 1e3 * Ratio(med("telemetry.emit"), rows), "ms"},
      {"telemetry.doc_kb", Ratio(doc_bytes, rows) / 1024.0, "KB"},
      {"trace.overhead_pct",
       100.0 * Ratio(traced - untraced, untraced), "%"},
  };
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Why this binary must not be timed ("" when it may): timing an
// unoptimized or instrumented build measures the build, not the code.
std::string UntimeableBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type.empty() || type == "Debug") {
    return "build type '" + type + "' is unoptimized";
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    return "built with sanitizer flags (" + flags + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  return "";
}

bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!telemetry::JsonParse(buf.str(), out, err)) {
    *err = path + ": " + *err;
    return false;
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  tools::Flags flags(
      argc, argv,
      {{"workload", "workload name (a manifest in --workload-dir)"},
       {"workload-dir", "directory of workload manifests"},
       {"seed", "row-order seed (default 1)"},
       {"seconds", "timed-phase length in seconds (default 10)"},
       {"trace", "1 = traced run reporting per-layer metrics"},
       {"ref-seed", "workload reference input seed (default 42)"},
       {"profile-seed", "workload profiling input seed (default 20040426)"},
       {"reference", "committed per-row reference JSON"},
       {"write-reference", "run one pass and store its rows as the "
                           "reference for this workload"},
       {"out-dir", "where results, the span trace and checkpoints go"},
       {"commit", "source revision recorded in the result"},
       {"src-digest", "source tree digest recorded in the result"}});
  const std::string workload = flags.Get("workload");
  const std::string out_dir =
      flags.Get("out-dir", ".bench_build/perfbench-out");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const double seconds =
      std::strtod(flags.Get("seconds", "10").c_str(), nullptr);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const auto ref_seed =
      static_cast<std::uint64_t>(flags.GetInt("ref-seed", kDefaultRefSeed));
  const auto profile_seed = static_cast<std::uint64_t>(
      flags.GetInt("profile-seed", kDefaultProfileSeed));
  const bool write_reference = flags.GetBool("write-reference");

  if (const std::string why = UntimeableBuild(); !why.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time this build: %s. Rebuild with "
                 "an optimized build type (Release or RelWithDebInfo) and "
                 "no sanitizers.\n",
                 why.c_str());
    return 2;
  }

  runner::Manifest m;
  std::string err;
  const std::string manifest_path =
      flags.Get("workload-dir", "perfbench/workloads") + "/" + workload +
      ".json";
  if (workload.empty() || !runner::LoadManifestFile(manifest_path, &m, &err)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s': %s\n",
                 workload.c_str(), err.c_str());
    return 2;
  }
  m.defaults.ref_seed = ref_seed;
  m.defaults.profile_seed = profile_seed;
  // The committed reference holds the default seeds' results; at any other
  // seed a row fails only when it is incomplete.
  const bool default_seeds =
      ref_seed == kDefaultRefSeed && profile_seed == kDefaultProfileSeed;
  if (write_reference && !default_seeds) {
    std::fprintf(stderr, "perfbench: the reference is defined at the "
                         "default seeds only\n");
    return 2;
  }
  const std::string reference_path =
      flags.Get("reference", "perfbench/reference.json");
  JsonValue reference_doc;
  const JsonValue* reference = nullptr;
  if (default_seeds && !write_reference) {
    if (!ReadJsonFile(reference_path, &reference_doc, &err)) {
      std::fprintf(stderr, "perfbench: %s\n", err.c_str());
      return 2;
    }
    reference = reference_doc.FindPath("workloads." + workload);
    if (reference == nullptr) {
      std::fprintf(stderr, "perfbench: %s has no rows for %s\n",
                   reference_path.c_str(), workload.c_str());
      return 2;
    }
  }

  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  std::vector<std::string> ids;
  for (const runner::JobSpec& job : jobs) ids.push_back(runner::JobId(m, job));

  Tracer tr;
  // Set-up: repeated, per-kernel medians reported; the last one is kept.
  std::vector<std::vector<double>> setup_by_kernel;
  std::vector<double> build_s, compile_s;
  std::unique_ptr<Prepared> prepared;
  for (int k = 0; k < kSetups; ++k) {
    prepared.reset();
    tr.enabled = trace;
    tr.phase = -1 - k;
    prepared = std::make_unique<Prepared>(Setup(m, tr));
    setup_by_kernel.resize(prepared->kernel_s.size());
    for (std::size_t i = 0; i < prepared->kernel_s.size(); ++i) {
      setup_by_kernel[i].push_back(prepared->kernel_s[i]);
    }
    if (trace) {
      const auto self = tr.SelfTimes(tr.phase);
      build_s.push_back(self.count("workloads.build")
                            ? self.at("workloads.build").first
                            : 0.0);
      compile_s.push_back(self.count("compiler.compile")
                              ? self.at("compiler.compile").first
                              : 0.0);
    }
  }

  // peak_rss_mb spans set-up too; the set-up share is recorded so a change
  // that moves the peak into set-up shows in the result document.
  const double setup_peak_mb = HighWaterMb();

  const Context ctx{m, *prepared, tr,
                    out_dir + "/ckpt-" + std::to_string(::getpid())};
  std::vector<Pass> passes;
  const double t_start = Now();
  for (int p = 0;; ++p) {
    // Traced runs start with an untimed warm-up pass, then alternate
    // untraced and traced passes; the difference between the two is the
    // tracing overhead.
    tr.enabled = trace && p > 0 && p % 2 == 0;
    tr.phase = p;
    passes.push_back(RunPass(ctx, jobs, seed, p, reference, ids));
    passes.back().warmup = trace && p == 0;
    if (write_reference) break;
    // Stop before a pass that would run past the budget.
    const bool enough = !trace || p >= 2;
    if (enough && Now() - t_start + passes.back().wall_s > seconds) break;
  }
  tr.enabled = false;

  // Detailed rows re-run through RunConfig: every row when writing the
  // reference, otherwise the one the seed picks.
  std::vector<std::pair<std::size_t, std::string>> cross;  // row, verdict
  if (!m.defaults.sampling.enabled()) {
    std::vector<std::size_t> single;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].is_mix() && passes.back().rows[i].error.empty()) {
        single.push_back(i);
      }
    }
    for (std::size_t k = 0; k < single.size(); ++k) {
      if (!write_reference && k != seed % single.size()) continue;
      const std::size_t i = single[k];
      cross.emplace_back(i, CrossCheckRow(ctx, jobs[i], passes.back().rows[i]));
    }
  }

  if (write_reference) {
    JsonValue doc;
    if (!ReadJsonFile(reference_path, &doc, &err)) {
      doc = JsonValue::Object();
      doc.Set("ref_seed", JsonValue(kDefaultRefSeed));
      doc.Set("profile_seed", JsonValue(kDefaultProfileSeed));
      doc.Set("workloads", JsonValue::Object());
    }
    JsonValue rows = JsonValue::Object();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string& v = passes[0].verdicts[i];
      if (!v.empty()) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", ids[i].c_str(),
                     v.c_str());
        return 1;
      }
      rows.Set(ids[i], passes[0].rows[i].check);
    }
    for (const auto& [i, v] : cross) {
      if (!v.empty()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", ids[i].c_str(), v.c_str());
        return 1;
      }
    }
    JsonValue workloads = *doc.Find("workloads");
    workloads.Set(workload, std::move(rows));
    doc.Set("workloads", std::move(workloads));
    if (!WriteFile(reference_path, doc.Dump(2) + "\n")) return 1;
    std::printf("perfbench: wrote %zu reference rows for %s to %s\n",
                jobs.size(), workload.c_str(), reference_path.c_str());
    return 0;
  }

  // End-to-end numbers come from untraced passes only.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Pass& p : passes) {
    for (const std::string& v : p.verdicts) {
      ++attempted;
      if (!v.empty()) ++failed;
    }
  }
  for (const auto& [i, v] : cross) {
    ++attempted;
    if (!v.empty()) ++failed;
  }
  std::size_t wall_samples = 0;
  const double setup_s = SumOfMedians(setup_by_kernel);
  const double wall_s = RowMedianWall(passes, false, &wall_samples);
  const double sim_mips =
      static_cast<double>(passes.back().sim_instrs) / wall_s / 1e6;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double failure_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);

  // End to end, with the sample count behind each: setups, untraced
  // passes, one peak, rows attempted.
  const std::vector<std::pair<Metric, std::size_t>> e2e = {
      {{"setup_s", setup_s, "s"}, setup_by_kernel.front().size()},
      {{"wall_s", wall_s, "s"}, wall_samples},
      {{"sim_mips", sim_mips, "MIPS"}, wall_samples},
      {{"peak_rss_mb", peak_rss_mb, "MB"}, 1},
      {{"failure_rate", failure_rate, "ratio"},
       static_cast<std::size_t>(attempted)}};
  std::vector<Metric> metrics;
  if (trace) {
    const Calibration cal = Calibrate(m, *prepared, jobs, passes.back());
    metrics = LayerMetrics(m, *prepared, build_s, compile_s, passes, tr, cal);
  } else {
    // failure_rate travels as attempted/failed in the result line.
    for (std::size_t i = 0; i + 1 < e2e.size(); ++i) {
      metrics.push_back(e2e[i].first);
    }
  }

  // Human-readable summary, then the full result document on disk.
  std::printf("perfbench %s: seed %llu, ref/profile seeds %llu/%llu "
              "(reference check %s), trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ref_seed),
              static_cast<unsigned long long>(profile_seed),
              reference != nullptr ? "on" : "off: completeness only",
              trace ? 1 : 0);
  for (const auto& [mt, n] : e2e) {
    std::printf("  %-28s %14.6g %-8s (n=%zu)\n", mt.name.c_str(), mt.value,
                mt.unit.c_str(), n);
  }
  if (trace) {
    for (const Metric& mt : metrics) {
      std::printf("  %-28s %14.6g %s\n", mt.name.c_str(), mt.value,
                  mt.unit.c_str());
    }
  }
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!p.verdicts[i].empty()) {
        std::printf("  FAILED %s: %s\n", ids[i].c_str(),
                    p.verdicts[i].c_str());
      }
    }
  }
  for (const auto& [i, v] : cross) {
    if (!v.empty()) std::printf("  FAILED %s: %s\n", ids[i].c_str(), v.c_str());
  }

  JsonValue host = JsonValue::Object();
  host.Set("commit", JsonValue(flags.Get("commit", "unknown")));
  host.Set("src_digest", JsonValue(flags.Get("src-digest", "unknown")));
  host.Set("nproc", JsonValue(static_cast<std::int64_t>(
                        ::sysconf(_SC_NPROCESSORS_ONLN))));
  host.Set("cpu_model", JsonValue(CpuModel()));
  host.Set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
  JsonValue doc = JsonValue::Object();
  doc.Set("workload", JsonValue(workload));
  doc.Set("seed", JsonValue(seed));
  doc.Set("ref_seed", JsonValue(ref_seed));
  doc.Set("profile_seed", JsonValue(profile_seed));
  doc.Set("reference_checked", JsonValue(reference != nullptr));
  doc.Set("trace", JsonValue(trace));
  doc.Set("host", std::move(host));
  doc.Set("setup_peak_rss_mb", JsonValue(setup_peak_mb));
  JsonValue e2e_json = JsonValue::Object();
  for (const auto& [mt, n] : e2e) {
    JsonValue o = JsonValue::Object();
    o.Set("value", JsonValue(mt.value));
    o.Set("unit", JsonValue(mt.unit));
    o.Set("samples", JsonValue(static_cast<std::int64_t>(n)));
    e2e_json.Set(mt.name, std::move(o));
  }
  doc.Set("end_to_end", std::move(e2e_json));
  if (trace) doc.Set("per_layer", MetricsJson(metrics));
  JsonValue pass_list = JsonValue::Array();
  for (const Pass& p : passes) {
    JsonValue o = JsonValue::Object();
    o.Set("warmup", JsonValue(p.warmup));
    o.Set("traced", JsonValue(p.traced));
    o.Set("wall_s", JsonValue(p.wall_s));
    JsonValue rw = JsonValue::Array();
    for (const RowResult& r : p.rows) rw.Append(JsonValue(r.wall_s));
    o.Set("row_wall_s", std::move(rw));
    o.Set("sim_instrs", JsonValue(p.sim_instrs));
    JsonValue failures = JsonValue::Object();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!p.verdicts[i].empty()) failures.Set(ids[i], p.verdicts[i]);
    }
    o.Set("failures", std::move(failures));
    pass_list.Append(std::move(o));
  }
  doc.Set("passes", std::move(pass_list));
  const std::string stem = out_dir + "/" + workload + "-seed" +
                           std::to_string(seed) + "-trace" +
                           (trace ? "1" : "0");
  WriteFile(stem + ".json", doc.Dump(2) + "\n");
  if (trace) WriteFile(stem + ".spans.json", tr.ToJson(ids).Dump() + "\n");

  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue(failed == 0));
  line.Set("attempted", JsonValue(attempted));
  line.Set("failed", JsonValue(failed));
  line.Set("metrics", MetricsJson(metrics));
  std::printf("%s\n", line.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace spear::perfbench

int main(int argc, char** argv) { return spear::perfbench::Main(argc, argv); }

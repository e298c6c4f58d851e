// Host-throughput benchmark for the event-driven scheduler: wall-clock
// times every workload under the two headline models (baseline and
// SPEAR-256) and reports simulated MIPS (committed instructions per host
// second, timing only the cycle loop — workload build, compile and
// fast-forward are excluded). The CI gate compares the aggregate against
// the conservative floor in bench/simspeed_baseline.json and fails on a
// >15% regression. --functional times the functional substrate instead:
// bare Emulator::Run, the warming routine, and the post-compiler's
// profiling pass, gated against functional_mips, warmed_mips and
// profiled_mips.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/cfg.h"
#include "analysis/loops.h"
#include "bench_common.h"
#include "compiler/profiler.h"
#include "runner/checkpoint.h"
#include "sim/emulator.h"
#include "tool_flags.h"

namespace {

// ParseBenchArgs owns the standard bench flag set but aborts on unknown
// flags, so the gate flags are parsed here alongside a replica of it.
spear::bench::BenchContext ContextFromFlags(const spear::tools::Flags& flags) {
  spear::bench::BenchContext ctx;
  ctx.out_dir = flags.Get("out", ctx.out_dir);
  ctx.quick = flags.GetBool("quick");
  if (ctx.quick) ctx.options.sim_instrs = 40'000;
  if (flags.Has("sim-instrs")) {
    ctx.options.sim_instrs =
        static_cast<std::uint64_t>(flags.GetInt("sim-instrs", 400'000));
  }
  ctx.options.scale = static_cast<int>(flags.GetInt("scale", 1));
  return ctx;
}

// The headline Figure 6 pair: the baseline superscalar and SPEAR-256.
struct Model {
  const char* label;
  bool spear;
  std::uint32_t ifq;
};
constexpr Model kModels[] = {{"base", false, 128}, {"spear256", true, 256}};

// Gates `measured` against the named floor key in --baseline (if given):
// prints the comparison and returns 1 on regression, 0 otherwise.
int GateAgainstBaseline(const spear::tools::Flags& flags, const char* key,
                        double measured) {
  if (!flags.Has("baseline")) return 0;
  std::ifstream in(flags.Get("baseline"), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  spear::telemetry::JsonValue doc;
  std::string error;
  if (!in || !spear::telemetry::JsonParse(buf.str(), &doc, &error)) {
    std::fprintf(stderr, "simspeed: cannot read baseline %s: %s\n",
                 flags.Get("baseline").c_str(), error.c_str());
    return 1;
  }
  const spear::telemetry::JsonValue* floor = doc.FindPath(key);
  if (floor == nullptr) {
    std::fprintf(stderr, "simspeed: baseline lacks %s\n", key);
    return 1;
  }
  const double tolerance =
      flags.Has("tolerance")
          ? std::strtod(flags.Get("tolerance").c_str(), nullptr)
          : 0.15;
  const double gate = floor->AsDouble() * (1.0 - tolerance);
  std::printf("gate: %.2f MIPS measured vs %.2f floor "
              "(baseline %.2f - %.0f%%)\n",
              measured, gate, floor->AsDouble(), tolerance * 100);
  if (measured < gate) {
    std::fprintf(stderr, "simspeed: REGRESSION: %.2f MIPS < %.2f gate\n",
                 measured, gate);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;
  using Clock = std::chrono::steady_clock;

  tools::Flags flags(
      argc, argv,
      {{"out", "directory for the JSON result file (default bench/results)"},
       {"quick", "smoke-run budget (40k instrs per config)"},
       {"sim-instrs", "exact per-config commit budget"},
       {"functional", "time the functional substrate instead of the "
                      "detailed core: bare Emulator::Run, the cache/"
                      "predictor-warming routine fast-forward and "
                      "sampling run on, and the post-compiler's "
                      "profiling pass"},
       {"scale", "workload working-set scale factor (default 1)"},
       {"baseline", "simspeed_baseline.json to gate against"},
       {"tolerance", "allowed fractional regression vs the baseline "
                     "(default 0.15)"}});
  if (flags.GetInt("scale", 1) < 1) {
    std::fprintf(stderr, "simspeed: scale: must be >= 1\n");
    return tools::kExitUsage;
  }
  const BenchContext ctx = ContextFromFlags(flags);
  const std::vector<std::string> workloads = AllBenchmarkNames();

  if (flags.GetBool("functional")) {
    // Functional-substrate throughput over the same budget, three ways:
    // bare Emulator::Run (functional_mips, the block-dispatch loop with
    // nothing attached); the warming routine fast-forward and the
    // sampling orchestrator actually run between detailed intervals —
    // the same loop plus cache-hierarchy and branch-predictor warming
    // (warmed_mips, baseline geometry), which decides how far
    // billion-instruction sampled runs can reach; and ProfileProgram, the
    // post-compiler's profiling pass every spearrun/spearfarm worker runs
    // at set-up (profiled_mips, the CFG and loop forest built outside the
    // timer).
    const CoreConfig geometry = BaselineConfig(128);
    PrintConfigHeader(geometry);
    std::printf("== simspeed --functional: functional substrate "
                "throughput ==\n");
    std::printf("%-10s %12s %12s %10s %12s %10s %12s %10s\n", "benchmark",
                "instrs", "host_ms", "MIPS", "warmed_ms", "warmed",
                "profiled_ms", "profiled");

    auto seconds_since = [](Clock::time_point t0) {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    auto mips_of = [](std::uint64_t instrs, double seconds) {
      return seconds > 0.0 ? static_cast<double>(instrs) / seconds / 1e6
                           : 0.0;
    };
    telemetry::JsonValue rows = telemetry::JsonValue::Array();
    std::uint64_t total_instrs = 0;
    std::uint64_t total_warmed_instrs = 0;
    std::uint64_t total_profiled_instrs = 0;
    double total_seconds = 0.0;
    double total_warmed_seconds = 0.0;
    double total_profiled_seconds = 0.0;
    for (const std::string& name : workloads) {
      const PreparedWorkload pw = PrepareWorkload(name, ctx.options);
      Emulator emu(pw.plain);
      Clock::time_point t0 = Clock::now();
      const std::uint64_t executed = emu.Run(ctx.options.sim_instrs);
      const double seconds = seconds_since(t0);

      runner::Warmer warmer(pw.plain, geometry.mem.l1d, geometry.mem.l2,
                            geometry.bpred);
      t0 = Clock::now();
      const std::uint64_t warmed = warmer.Advance(ctx.options.sim_instrs);
      const double warmed_seconds = seconds_since(t0);

      const Cfg cfg = Cfg::Build(pw.plain);
      const LoopForest loops = LoopForest::Build(cfg);
      ProfilerOptions popt = ctx.options.compiler.profiler;
      popt.max_instrs = ctx.options.sim_instrs;
      t0 = Clock::now();
      const std::uint64_t profiled =
          ProfileProgram(pw.plain, cfg, loops, popt).instrs;
      const double profiled_seconds = seconds_since(t0);

      const double mips = mips_of(executed, seconds);
      const double warmed_mips = mips_of(warmed, warmed_seconds);
      const double profiled_mips = mips_of(profiled, profiled_seconds);
      total_instrs += executed;
      total_seconds += seconds;
      total_warmed_instrs += warmed;
      total_warmed_seconds += warmed_seconds;
      total_profiled_instrs += profiled;
      total_profiled_seconds += profiled_seconds;

      telemetry::JsonValue row = telemetry::JsonValue::Object();
      row.Set("workload", telemetry::JsonValue(name));
      row.Set("instructions", telemetry::JsonValue(executed));
      row.Set("host_seconds", telemetry::JsonValue(seconds));
      row.Set("mips", telemetry::JsonValue(mips));
      row.Set("warmed_host_seconds", telemetry::JsonValue(warmed_seconds));
      row.Set("warmed_mips", telemetry::JsonValue(warmed_mips));
      row.Set("profiled_host_seconds", telemetry::JsonValue(profiled_seconds));
      row.Set("profiled_mips", telemetry::JsonValue(profiled_mips));
      rows.Append(std::move(row));
      std::printf("%-10s %12llu %12.1f %10.2f %12.1f %10.2f %12.1f %10.2f\n",
                  name.c_str(), static_cast<unsigned long long>(executed),
                  seconds * 1e3, mips, warmed_seconds * 1e3, warmed_mips,
                  profiled_seconds * 1e3, profiled_mips);
      std::fflush(stdout);
    }
    const double aggregate_mips = mips_of(total_instrs, total_seconds);
    const double aggregate_warmed_mips =
        mips_of(total_warmed_instrs, total_warmed_seconds);
    const double aggregate_profiled_mips =
        mips_of(total_profiled_instrs, total_profiled_seconds);
    std::printf("%-10s %12llu %12.1f %10.2f %12.1f %10.2f %12.1f %10.2f\n",
                "TOTAL", static_cast<unsigned long long>(total_instrs),
                total_seconds * 1e3, aggregate_mips,
                total_warmed_seconds * 1e3, aggregate_warmed_mips,
                total_profiled_seconds * 1e3, aggregate_profiled_mips);

    telemetry::JsonValue results = telemetry::JsonValue::Object();
    results.Set("runs", std::move(rows));
    telemetry::JsonValue agg = telemetry::JsonValue::Object();
    agg.Set("instructions", telemetry::JsonValue(total_instrs));
    agg.Set("host_seconds", telemetry::JsonValue(total_seconds));
    agg.Set("mips", telemetry::JsonValue(aggregate_mips));
    agg.Set("warmed_host_seconds", telemetry::JsonValue(total_warmed_seconds));
    agg.Set("warmed_mips", telemetry::JsonValue(aggregate_warmed_mips));
    agg.Set("profiled_host_seconds",
            telemetry::JsonValue(total_profiled_seconds));
    agg.Set("profiled_mips", telemetry::JsonValue(aggregate_profiled_mips));
    results.Set("aggregate", std::move(agg));
    WriteBenchJson(ctx, "simspeed_functional", std::move(results));
    const int bare =
        GateAgainstBaseline(flags, "functional_mips", aggregate_mips);
    const int warm =
        GateAgainstBaseline(flags, "warmed_mips", aggregate_warmed_mips);
    const int profile =
        GateAgainstBaseline(flags, "profiled_mips", aggregate_profiled_mips);
    return bare != 0 ? bare : warm != 0 ? warm : profile;
  }

  PrintConfigHeader(BaselineConfig(128));
  std::printf("== simspeed: host simulation throughput ==\n");
  std::printf("%-10s %-10s %12s %12s %10s\n", "benchmark", "config",
              "instrs", "host_ms", "MIPS");

  telemetry::JsonValue rows = telemetry::JsonValue::Array();
  std::uint64_t total_instrs = 0;
  double total_seconds = 0.0;
  bool all_complete = true;
  for (const std::string& name : workloads) {
    const PreparedWorkload pw = PrepareWorkload(name, ctx.options);
    for (const Model& model : kModels) {
      const CoreConfig cfg = model.spear ? SpearCoreConfig(model.ifq)
                                         : BaselineConfig(model.ifq);
      const Program& prog = model.spear ? pw.annotated : pw.plain;
      const Clock::time_point t0 = Clock::now();
      const RunStats s = RunConfig(prog, cfg, ctx.options);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const double mips =
          seconds > 0.0
              ? static_cast<double>(s.instructions) / seconds / 1e6
              : 0.0;
      all_complete = all_complete && s.complete;
      total_instrs += s.instructions;
      total_seconds += seconds;

      telemetry::JsonValue row = telemetry::JsonValue::Object();
      row.Set("workload", telemetry::JsonValue(name));
      row.Set("config", telemetry::JsonValue(model.label));
      row.Set("instructions", telemetry::JsonValue(s.instructions));
      row.Set("cycles", telemetry::JsonValue(
                            static_cast<std::uint64_t>(s.cycles)));
      row.Set("host_seconds", telemetry::JsonValue(seconds));
      row.Set("mips", telemetry::JsonValue(mips));
      row.Set("complete", telemetry::JsonValue(s.complete));
      rows.Append(std::move(row));
      std::printf("%-10s %-10s %12llu %12.1f %10.2f\n", name.c_str(),
                  model.label,
                  static_cast<unsigned long long>(s.instructions),
                  seconds * 1e3, mips);
      std::fflush(stdout);
    }
  }

  const double aggregate_mips =
      total_seconds > 0.0
          ? static_cast<double>(total_instrs) / total_seconds / 1e6
          : 0.0;
  std::printf("%-10s %-10s %12llu %12.1f %10.2f\n", "TOTAL", "-",
              static_cast<unsigned long long>(total_instrs),
              total_seconds * 1e3, aggregate_mips);

  telemetry::JsonValue results = telemetry::JsonValue::Object();
  results.Set("runs", std::move(rows));
  telemetry::JsonValue agg = telemetry::JsonValue::Object();
  agg.Set("instructions", telemetry::JsonValue(total_instrs));
  agg.Set("host_seconds", telemetry::JsonValue(total_seconds));
  agg.Set("mips", telemetry::JsonValue(aggregate_mips));
  results.Set("aggregate", std::move(agg));
  WriteBenchJson(ctx, "simspeed", std::move(results));

  if (!all_complete) {
    std::printf("simspeed: some runs hit the max_cycles safety net\n");
    return 1;
  }

  return GateAgainstBaseline(flags, "aggregate_mips", aggregate_mips);
}

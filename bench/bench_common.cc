#include "bench_common.h"

#include <filesystem>
#include <fstream>

#include "telemetry/registry.h"
#include "tool_flags.h"

namespace spear::bench {

BenchContext ParseBenchArgs(int argc, char** argv) {
  tools::Flags flags(argc, argv,
                     {{"out", "directory for the JSON result file "
                              "(default bench/results)"},
                      {"quick", "smoke-run budget (40k instrs per config)"},
                      {"sim-instrs", "exact per-config commit budget"}});
  BenchContext ctx;
  ctx.out_dir = flags.Get("out", ctx.out_dir);
  ctx.quick = flags.GetBool("quick");
  if (ctx.quick) ctx.options.sim_instrs = 40'000;
  if (flags.Has("sim-instrs")) {
    ctx.options.sim_instrs =
        static_cast<std::uint64_t>(flags.GetInt("sim-instrs", 400'000));
  }
  return ctx;
}

void PrintConfigHeader(const CoreConfig& c) {
  std::printf("# Simulator configuration (paper Table 2)\n");
  std::printf("#   issue/commit width      : %u / %u\n", c.issue_width,
              c.commit_width);
  std::printf("#   RUU (reorder buffer)    : %u entries\n", c.ruu_size);
  std::printf("#   branch predictor        : bimodal, %u entries\n",
              c.bpred.table_entries);
  std::printf("#   int FUs                 : ALU x%u, MUL/DIV x%u\n",
              c.fu.int_alu, c.fu.int_muldiv);
  std::printf("#   fp FUs                  : ALU x%u, MUL/DIV x%u\n",
              c.fu.fp_alu, c.fu.fp_muldiv);
  std::printf("#   memory ports            : %u\n", c.fu.mem_ports);
  std::printf("#   L1 D-cache              : %u sets, %uB blocks, %u-way, %u cyc\n",
              c.mem.l1d.sets, c.mem.l1d.block_bytes, c.mem.l1d.assoc,
              c.mem.l1_latency);
  std::printf("#   unified L2              : %u sets, %uB blocks, %u-way, %u cyc\n",
              c.mem.l2.sets, c.mem.l2.block_bytes, c.mem.l2.assoc,
              c.mem.l2_latency);
  std::printf("#   memory latency          : %u cycles\n", c.mem.mem_latency);
  std::printf("#\n");
}

std::vector<std::string> AllBenchmarkNames() {
  std::vector<std::string> names;
  for (const WorkloadInfo& w : AllWorkloads()) names.emplace_back(w.name);
  return names;
}

std::string WriteBenchJson(const BenchContext& ctx,
                           const std::string& bench_name,
                           telemetry::JsonValue results) {
  telemetry::JsonValue doc = telemetry::JsonValue::Object();
  doc.Set("schema_version",
          telemetry::JsonValue(telemetry::kStatsSchemaVersion));
  doc.Set("kind", telemetry::JsonValue("bench"));
  doc.Set("bench", telemetry::JsonValue(bench_name));
  doc.Set("quick", telemetry::JsonValue(ctx.quick));
  doc.Set("sim_instrs", telemetry::JsonValue(static_cast<std::int64_t>(
                            ctx.options.sim_instrs)));
  doc.Set("results", std::move(results));

  std::filesystem::create_directories(ctx.out_dir);
  const std::string path = ctx.out_dir + "/" + bench_name + ".json";
  std::ofstream out(path, std::ios::binary);
  out << doc.Dump(2) << "\n";
  out.close();
  std::printf("\nwrote %s\n", path.c_str());
  return path;
}

}  // namespace spear::bench

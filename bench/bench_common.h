// Shared machinery for the bench binaries that are not config sweeps
// (bench_table1_workloads, bench_simspeed). Every sweep is a manifest
// under bench/manifests/ run by tools/spearrun. Each binary prints the
// simulator configuration header (paper Table 2) so runs are
// self-describing.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "telemetry/json.h"

namespace spear::bench {

// Options every bench binary accepts: --out=<dir> redirects the JSON
// result file (default bench/results), --quick shrinks the commit budget
// for smoke runs (CI), --sim-instrs overrides it exactly.
struct BenchContext {
  EvalOptions options;
  std::string out_dir = "bench/results";
  bool quick = false;
};

BenchContext ParseBenchArgs(int argc, char** argv);

void PrintConfigHeader(const CoreConfig& reference);

// All 15 paper benchmarks, in Table 1 order.
std::vector<std::string> AllBenchmarkNames();

// Wraps `results` in the schema-versioned bench envelope
// {schema_version, kind:"bench", bench, quick, sim_instrs, results},
// writes it to <out_dir>/<bench_name>.json (creating the directory) and
// returns the path. Prints a one-line notice to stdout.
std::string WriteBenchJson(const BenchContext& ctx,
                           const std::string& bench_name,
                           telemetry::JsonValue results);

}  // namespace spear::bench

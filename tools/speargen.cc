// speargen — emit a workload from the built-in suite as a SPEARBIN file.
//
//   speargen mcf --seed=42 --scale=1 -o mcf.spearbin
//   speargen mcf --secret 0x20000:256 -o mcf.spearbin
//   speargen --list
//
// An unknown workload name or a scale below 1 is a usage error (exit 2).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "isa/binary.h"
#include "tool_flags.h"
#include "workloads/workload.h"

namespace {

// Parse "base:size[,base:size...]" (0x-prefixed hex accepted) into @secret
// region annotations.
std::vector<spear::SecretRange> ParseSecretRanges(const std::string& arg) {
  std::vector<spear::SecretRange> ranges;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string item = arg.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "speargen: --secret expects base:size, got '%s'\n",
                   item.c_str());
      std::exit(2);
    }
    spear::SecretRange r;
    r.base = static_cast<spear::Addr>(
        std::strtoul(item.substr(0, colon).c_str(), nullptr, 0));
    r.size = static_cast<std::uint32_t>(
        std::strtoul(item.substr(colon + 1).c_str(), nullptr, 0));
    ranges.push_back(r);
    pos = comma + 1;
  }
  return ranges;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spear;
  tools::Flags flags(argc, argv,
                     {{"seed", "data seed (default 42)"},
                      {"scale", "working-set scale factor (default 1)"},
                      {"o", "output path (default <name>.spearbin)"},
                      {"secret",
                       "@secret region annotations, base:size[,base:size...]"},
                      {"list", "list available workloads"}});

  if (flags.GetBool("list") || flags.positional().empty()) {
    std::printf("%-10s %-14s %s\n", "name", "suite", "character");
    for (const WorkloadInfo& w : AllWorkloads()) {
      std::printf("%-10s %-14s %s\n", w.name, w.suite, w.character);
    }
    return flags.GetBool("list") ? 0 : 2;
  }

  const std::string name = flags.positional()[0];
  const WorkloadInfo* info = nullptr;
  std::string names;
  for (const WorkloadInfo& w : AllWorkloads()) {
    if (name == w.name) info = &w;
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  if (info == nullptr) {
    std::fprintf(stderr, "speargen: unknown workload '%s' (one of: %s)\n",
                 name.c_str(), names.c_str());
    return tools::kExitUsage;
  }
  const long scale = flags.GetInt("scale", 1);
  if (scale < 1) {
    std::fprintf(stderr, "speargen: scale: must be >= 1\n");
    return tools::kExitUsage;
  }
  WorkloadConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  cfg.scale = static_cast<int>(scale);
  Program prog = info->build(cfg);
  if (flags.Has("secret")) {
    prog.secret_ranges = ParseSecretRanges(flags.Get("secret"));
  }
  // The generators' fixed segment bases stop fitting at large scales;
  // the later segment then overwrites the earlier one (EXPERIMENTS.md).
  for (const auto& [i, j] : OverlappingSegments(prog)) {
    const DataSegment& a = prog.data[i];
    const DataSegment& b = prog.data[j];
    std::fprintf(stderr,
                 "speargen: warning: %s scale %ld: data segment %zu "
                 "[0x%x, +0x%zx) overwrites part of segment %zu "
                 "[0x%x, +0x%zx)\n",
                 name.c_str(), scale, j, b.base, b.bytes.size(), i, a.base,
                 a.bytes.size());
  }

  const std::string out = flags.Get("o", name + ".spearbin");
  WriteProgram(prog, out);
  std::uint64_t data_bytes = 0;
  for (const DataSegment& seg : prog.data) data_bytes += seg.bytes.size();
  std::printf("%s: %zu text words, %llu KiB of data -> %s\n", name.c_str(),
              prog.text.size(),
              static_cast<unsigned long long>(data_bytes / 1024), out.c_str());
  return 0;
}

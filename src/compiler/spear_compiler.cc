#include "compiler/spear_compiler.h"

#include <cstdio>

#include "common/check.h"
#include "analysis/cfg.h"
#include "analysis/loops.h"

namespace spear {

std::string CompileReport::ToString() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "profiled %llu instrs, %llu L1 misses, %d blocks, %d loops\n",
                static_cast<unsigned long long>(profiled_instrs),
                static_cast<unsigned long long>(profiled_l1_misses),
                num_blocks, num_loops);
  out += buf;
  for (const SliceReport& s : slices) {
    if (s.rejected) {
      std::snprintf(buf, sizeof(buf), "  dload 0x%x: rejected (%s)\n",
                    s.dload_pc,
                    s.reject_reason.empty() ? "?" : s.reject_reason.c_str());
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  dload 0x%x: %llu misses, region depth %d, slice %zu "
                    "instrs, %zu live-ins\n",
                    s.dload_pc, static_cast<unsigned long long>(s.misses),
                    s.region_depth, s.slice_size, s.live_ins);
    }
    out += buf;
  }
  return out;
}

Program CompileSpear(const Program& profile_input, const Program& target,
                     const CompilerOptions& options, CompileReport* report) {
  // The p-thread annotations are PC-based, so they are only meaningful if
  // the two binaries share their text exactly (same program, different
  // input data).
  SPEAR_CHECK(profile_input.text == target.text);
  SPEAR_CHECK(profile_input.text_base == target.text_base);

  const Cfg cfg = Cfg::Build(profile_input);
  const LoopForest loops = LoopForest::Build(cfg);
  const ProfileResult profile =
      ProfileProgram(profile_input, cfg, loops, options.profiler);
  SliceResult slices =
      BuildSlices(profile_input, cfg, loops, profile, options.slicer);

  if (report != nullptr) {
    report->profiled_instrs = profile.instrs;
    report->profiled_l1_misses = profile.total_l1_misses;
    report->num_blocks = cfg.num_blocks();
    report->num_loops = loops.num_loops();
    report->slices = slices.reports;
  }

  // The attaching tool rewrites the binary. The copy shares target's
  // data segments copy-on-write (isa/program.h): attaching copies no
  // image bytes.
  Program out = target;
  out.pthreads = std::move(slices.specs);
  return out;
}

}  // namespace spear

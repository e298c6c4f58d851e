// Tagged per-PC stride prefetcher — the "traditional data prefetching"
// the paper positions SPEAR against (Section 1: stride schemes work on
// regular access patterns and fail on irregular ones). Implemented as a
// baseline comparator: bench/manifests/ext_prefetch.json runs baseline vs
// stride vs SPEAR vs both on the workload suite to reproduce that argument
// quantitatively.
//
// Classic RPT design (Chen & Baer): a table indexed by load PC holding the
// last address and last stride with a 2-bit confidence counter. Once a
// stride repeats, accesses predict-ahead by `degree` blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace spear {

struct StridePrefetcherConfig {
  bool enabled = false;
  std::uint32_t table_entries = 256;  // power of two
  std::uint32_t degree = 2;           // how many strides ahead to fetch
  std::uint8_t confidence_threshold = 2;
};

class StridePrefetcher {
 public:
  explicit StridePrefetcher(const StridePrefetcherConfig& config)
      : config_(config), table_(config.table_entries) {
    SPEAR_CHECK((config.table_entries & (config.table_entries - 1)) == 0);
  }

  // Observes a demand load and returns up to `degree` prefetch addresses
  // via the output span. Returns how many were produced.
  int Observe(Pc pc, Addr addr, Addr* out, int out_cap) {
    Entry& e = table_[Index(pc)];
    int produced = 0;
    if (e.pc == pc) {
      const auto stride =
          static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(e.last_addr);
      if (stride == e.stride && stride != 0) {
        if (e.confidence < 3) ++e.confidence;
      } else {
        if (e.confidence > 0) {
          --e.confidence;
        } else {
          e.stride = stride;
        }
      }
      if (e.confidence >= config_.confidence_threshold && e.stride != 0) {
        for (std::uint32_t d = 1; d <= config_.degree && produced < out_cap;
             ++d) {
          const std::int64_t target =
              static_cast<std::int64_t>(addr) + e.stride * static_cast<std::int64_t>(d);
          if (target < 0 || target > 0xffffffffll) break;
          out[produced++] = static_cast<Addr>(target);
        }
      }
    } else {
      e = Entry{};
      e.pc = pc;
    }
    e.last_addr = addr;
    return produced;
  }

  const StridePrefetcherConfig& config() const { return config_; }

 private:
  struct Entry {
    Pc pc = 0;
    Addr last_addr = 0;
    std::int64_t stride = 0;
    std::uint8_t confidence = 0;
  };

  std::uint32_t Index(Pc pc) const {
    return (pc >> 3) & (config_.table_entries - 1);
  }

  StridePrefetcherConfig config_;
  std::vector<Entry> table_;
};

}  // namespace spear

// A loaded (or under-construction) SPEAR program: text, initialized data
// segments, entry point and p-thread annotations.
//
// The data segments are shared copy-on-write. Copying a Program (the
// post-compiler's attach, spearfuzz's shrink candidates) shares one
// segment list instead of copying its bytes, and Memory::LoadProgram
// adopts every page a segment covers entirely as a handle into that same
// list (mem/memory.h), so a scaled workload's image exists once however
// many binaries, emulators and cores hold it. The bytes are never written
// while shared: AddSegment and MutableSegment first give this Program a
// private copy of the list when anything else still holds it, and Memory
// clones an adopted page before its first write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "isa/instruction.h"
#include "isa/pthread_spec.h"

namespace spear {

struct DataSegment {
  Addr base = 0;
  std::vector<std::uint8_t> bytes;
};

// One past the last byte address: a segment must end at or below it.
inline constexpr std::uint64_t kAddressSpaceEnd = std::uint64_t{1} << 32;

// Program::data: the segments in load order, read-only. A later segment
// overwrites an earlier one where the two overlap (Memory::LoadProgram).
// Copies share one list; Program's mutators un-share it first.
class SegmentList {
 public:
  using const_iterator = std::deque<DataSegment>::const_iterator;

  const_iterator begin() const { return segments().begin(); }
  const_iterator end() const { return segments().end(); }
  std::size_t size() const { return segments().size(); }
  bool empty() const { return segments().empty(); }
  const DataSegment& operator[](std::size_t i) const {
    return segments()[i];
  }

  // A handle to byte `offset` of segment `i` that shares ownership of the
  // whole list, so the bytes outlive every Program holding it. Memory
  // adopts image pages this way; the holder may write through it only
  // while use_count() is 1, i.e. when nothing else can see the bytes.
  std::shared_ptr<std::uint8_t[]> ShareBytes(std::size_t i,
                                             std::size_t offset) const {
    return {list_, (*list_)[i].bytes.data() + offset};
  }

 private:
  friend class Program;

  const std::deque<DataSegment>& segments() const {
    static const std::deque<DataSegment> kNone;
    return list_ ? *list_ : kNone;
  }

  // The list, made private to this holder before a mutation.
  std::deque<DataSegment>& Unshared() {
    if (!list_) {
      list_ = std::make_shared<std::deque<DataSegment>>();
    } else if (list_.use_count() > 1) {
      list_ = std::make_shared<std::deque<DataSegment>>(*list_);
    }
    return *list_;
  }

  // A deque, so references to earlier segments survive later appends
  // (workload generators fill several segments in turn).
  std::shared_ptr<std::deque<DataSegment>> list_;
};

// A `@secret` region annotation: bytes in [base, base + size) hold secret
// data, so a load from the range taints its result for the leakage analysis
// (analysis/taint.h and the runtime observer in spear/taint_observer.h).
struct SecretRange {
  Addr base = 0;
  std::uint32_t size = 0;

  bool Contains(Addr addr, std::uint32_t bytes) const {
    return addr < base + size && addr + bytes > base;
  }
};

class Program {
 public:
  static constexpr Addr kDefaultTextBase = 0x1000;

  Addr text_base = kDefaultTextBase;
  std::vector<Instruction> text;
  SegmentList data;
  Pc entry = kDefaultTextBase;
  std::vector<PThreadSpec> pthreads;
  std::vector<SecretRange> secret_ranges;

  bool IsSecretAddr(Addr addr, std::uint32_t bytes) const {
    for (const SecretRange& r : secret_ranges) {
      if (r.Contains(addr, bytes)) return true;
    }
    return false;
  }

  Pc PcOf(InstrIndex index) const {
    return text_base + static_cast<Addr>(index) * kInstrBytes;
  }

  bool ContainsPc(Pc pc) const {
    return pc >= text_base && pc < text_base + text.size() * kInstrBytes &&
           (pc - text_base) % kInstrBytes == 0;
  }

  InstrIndex IndexOf(Pc pc) const {
    SPEAR_DCHECK(ContainsPc(pc));
    return static_cast<InstrIndex>((pc - text_base) / kInstrBytes);
  }

  const Instruction& At(Pc pc) const { return text[IndexOf(pc)]; }

  Pc EndPc() const {
    return text_base + static_cast<Addr>(text.size()) * kInstrBytes;
  }

  // Appends a segment (zero-filled, or holding `bytes`), which must not
  // wrap the 32-bit address space. The returned reference is only for
  // filling the segment before this Program is first copied or loaded:
  // after that the bytes may be shared, and writing through it would
  // change what the copies and loaded memories see. It stays valid while
  // later segments are added to an unshared Program.
  DataSegment& AddSegment(Addr base, std::size_t size) {
    return AddSegment(base, std::vector<std::uint8_t>(size, 0));
  }
  DataSegment& AddSegment(Addr base, std::vector<std::uint8_t> bytes) {
    SPEAR_CHECK(std::uint64_t{base} + bytes.size() <= kAddressSpaceEnd);
    std::deque<DataSegment>& list = data.Unshared();
    list.push_back(DataSegment{base, std::move(bytes)});
    return list.back();
  }

  // Segment `i`, made private to this Program, for editing after a copy:
  // the edits never reach the original or a memory that loaded it. The
  // reference follows AddSegment's rule.
  DataSegment& MutableSegment(std::size_t i) {
    return data.Unshared().at(i);
  }
};

// Conventional stack base: the stack grows down from just under 256 MiB.
// Both the functional emulator and the timed core seed sp from
// InitialStackPointer below — they must agree or lockstep cosim diverges
// on the first sp-relative access.
inline constexpr Addr kStackBase = 0x0fff0000u;
// Band reserved below the stack base; a data segment reaching into it
// forces relocation (workloads never legitimately need this much stack,
// but a scaled working set can legitimately grow up into the band).
inline constexpr Addr kStackGuardBytes = 1u << 20;

// Initial sp for `prog`: kStackBase, unless a data segment overlaps the
// reserved band [kStackBase - guard, kStackBase) — the old unconditional
// seed silently let the stack clobber such segments. The stack is then
// relocated above every offending segment (keeping the guard band), and a
// program whose data reaches the top of the address space fails a CHECK
// rather than wrapping.
inline Addr InitialStackPointer(const Program& prog) {
  std::uint64_t sp = kStackBase;
  // A relocation can land the stack in yet another segment, so iterate to
  // a fixpoint; each pass either leaves sp alone or raises it past some
  // segment, so this terminates after at most prog.data.size() passes.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const DataSegment& seg : prog.data) {
      const std::uint64_t seg_end =
          static_cast<std::uint64_t>(seg.base) + seg.bytes.size();
      if (seg.base < sp && seg_end > sp - kStackGuardBytes) {
        const std::uint64_t cand =
            ((seg_end + kInstrBytes - 1) & ~std::uint64_t{kInstrBytes - 1}) +
            kStackGuardBytes;
        if (cand > sp) {
          sp = cand;
          moved = true;
        }
      }
    }
  }
  SPEAR_CHECK(sp <= 0xfff00000ull);  // no room left for a stack: refuse
  return static_cast<Addr>(sp);
}

// Index pairs (i, j), i < j, of data segments whose byte ranges
// intersect, in ascending order: segment j overwrites those bytes of
// segment i at load. The workload generators place segments at fixed
// bases sized for scale 1, so some kernels' scaled images have such pairs
// (speargen warns; EXPERIMENTS.md lists them).
inline std::vector<std::pair<std::size_t, std::size_t>> OverlappingSegments(
    const Program& prog) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < prog.data.size(); ++i) {
    const DataSegment& a = prog.data[i];
    const std::uint64_t a_end = std::uint64_t{a.base} + a.bytes.size();
    for (std::size_t j = i + 1; j < prog.data.size(); ++j) {
      const DataSegment& b = prog.data[j];
      const std::uint64_t b_end = std::uint64_t{b.base} + b.bytes.size();
      if (!a.bytes.empty() && !b.bytes.empty() && a.base < b_end &&
          b.base < a_end) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

// Typed accessors for building initialized data images.
inline void PokeU32(DataSegment& seg, Addr addr, std::uint32_t value) {
  SPEAR_CHECK(addr >= seg.base && addr + 4 <= seg.base + seg.bytes.size());
  const std::size_t off = addr - seg.base;
  for (int i = 0; i < 4; ++i) {
    seg.bytes[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

inline void PokeU8(DataSegment& seg, Addr addr, std::uint8_t value) {
  SPEAR_CHECK(addr >= seg.base && addr + 1 <= seg.base + seg.bytes.size());
  seg.bytes[addr - seg.base] = value;
}

inline void PokeF64(DataSegment& seg, Addr addr, double value) {
  SPEAR_CHECK(addr >= seg.base && addr + 8 <= seg.base + seg.bytes.size());
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  const std::size_t off = addr - seg.base;
  for (int i = 0; i < 8; ++i) {
    seg.bytes[off + i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

}  // namespace spear

// Sparse paged physical memory for a 32-bit address space. Pointer-chasing
// workloads touch tens of megabytes scattered across the address space, so
// pages are allocated on first touch. Unwritten memory reads as zero.
//
// Pages live in a two-level radix table (1024-entry directory of
// 1024-entry leaves) rather than a hash map: scattered access patterns
// defeat the one-entry page memos, and on those misses two dependent
// loads beat a hash probe by a wide margin in the functional substrate's
// per-instruction loop.
//
// Pages are shared copy-on-write. CopyFrom shares every page of the
// source instead of copying it, and the first write through either side
// to a shared page clones it first, so neither side ever sees the
// other's writes. That makes a warm-state snapshot, a warm-started core
// and a restored checkpoint child cost one pointer per page instead of
// one page copy — the difference between a sampled interval's host cost
// following its instruction count and following its image size.
//
// The sharing starts at the program image: LoadProgram adopts every page
// a data segment covers entirely as a handle aliasing the segment's bytes
// in the Program's copy-on-write segment list (isa/program.h), so a
// freshly loaded Memory copies only the partly covered pages at segment
// ends, and the same clone-before-write rule keeps the Program and every
// other Memory that loaded it from seeing this one's writes. The sharing
// is unsynchronized by design: no Memory crosses threads (the runner
// parallelizes by fork).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.h"
#include "isa/program.h"

namespace spear {

class Memory {
 public:
  static constexpr unsigned kPageBits = 12;
  static constexpr Addr kPageSize = 1u << kPageBits;

  std::uint8_t ReadU8(Addr addr) const {
    const std::uint8_t* page = FindPageCached(addr);
    return page ? page[Offset(addr)] : 0;
  }

  void WriteU8(Addr addr, std::uint8_t value) {
    TouchPageCached(addr)[Offset(addr)] = value;
  }

  // Multi-byte accesses take one page lookup (not one per byte) when the
  // access sits inside a single page — the overwhelmingly common case the
  // old byte loops paid 4–8 hash probes for. Byte order is unchanged:
  // little-endian composition from the page bytes, which the compiler
  // lowers to a plain load/store on LE hosts. Page-crossing accesses fall
  // back to the byte loop.
  std::uint32_t ReadU32(Addr addr) const {
    const Addr off = Offset(addr);
    if (off <= kPageSize - 4) {
      const std::uint8_t* page = FindPageCached(addr);
      if (page == nullptr) return 0;
      const std::uint8_t* p = page + off;
      return static_cast<std::uint32_t>(p[0]) |
             (static_cast<std::uint32_t>(p[1]) << 8) |
             (static_cast<std::uint32_t>(p[2]) << 16) |
             (static_cast<std::uint32_t>(p[3]) << 24);
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(ReadU8(addr + static_cast<Addr>(i)))
           << (8 * i);
    }
    return v;
  }

  void WriteU32(Addr addr, std::uint32_t value) {
    const Addr off = Offset(addr);
    if (off <= kPageSize - 4) {
      std::uint8_t* p = TouchPageCached(addr) + off;
      p[0] = static_cast<std::uint8_t>(value);
      p[1] = static_cast<std::uint8_t>(value >> 8);
      p[2] = static_cast<std::uint8_t>(value >> 16);
      p[3] = static_cast<std::uint8_t>(value >> 24);
      return;
    }
    for (int i = 0; i < 4; ++i) {
      WriteU8(addr + static_cast<Addr>(i),
              static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  std::uint64_t ReadU64(Addr addr) const {
    const Addr off = Offset(addr);
    if (off <= kPageSize - 8) {
      const std::uint8_t* page = FindPageCached(addr);
      if (page == nullptr) return 0;
      const std::uint8_t* p = page + off;
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      }
      return v;
    }
    return static_cast<std::uint64_t>(ReadU32(addr)) |
           (static_cast<std::uint64_t>(ReadU32(addr + 4)) << 32);
  }

  void WriteU64(Addr addr, std::uint64_t value) {
    const Addr off = Offset(addr);
    if (off <= kPageSize - 8) {
      std::uint8_t* p = TouchPageCached(addr) + off;
      for (int i = 0; i < 8; ++i) {
        p[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      return;
    }
    WriteU32(addr, static_cast<std::uint32_t>(value));
    WriteU32(addr + 4, static_cast<std::uint32_t>(value >> 32));
  }

  double ReadF64(Addr addr) const {
    const std::uint64_t bits = ReadU64(addr);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  void WriteF64(Addr addr, double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    WriteU64(addr, bits);
  }

  // Bulk write: page-at-a-time memcpy, one page lookup per page instead
  // of one per byte. Matters for multi-hundred-MiB scaled workload
  // images, where the byte loop dominated Core/Emulator construction.
  void WriteBlock(Addr base, const std::uint8_t* bytes, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      const Addr addr = base + static_cast<Addr>(done);
      const Addr off = Offset(addr);
      const std::size_t chunk =
          std::min(n - done, static_cast<std::size_t>(kPageSize - off));
      std::memcpy(TouchPage(addr) + off, bytes + done, chunk);
      done += chunk;
    }
  }

  // Installs the program's initialized data segments, in order, so where
  // two overlap the later one wins. A page the segment covers entirely is
  // adopted: its handle aliases the segment's bytes and shares ownership
  // of the program's segment list, so nothing is copied, and the first
  // write to it here clones it (the list's owners always number at least
  // two while the Program lives). A partly covered page is written the
  // way WriteBlock writes, which clones an adopted page first, so a later
  // segment that overlaps part of an earlier one's page lands on a copy.
  // Adopted pages count as allocated pages like any other.
  void LoadProgram(const Program& prog) {
    InvalidateMemos();  // an adopted page may replace a memoized one
    for (std::size_t i = 0; i < prog.data.size(); ++i) {
      const DataSegment& seg = prog.data[i];
      const std::uint64_t end = std::uint64_t{seg.base} + seg.bytes.size();
      for (std::uint64_t page = seg.base & ~std::uint64_t{kPageSize - 1};
           page < end; page += kPageSize) {
        const std::uint64_t lo = std::max<std::uint64_t>(page, seg.base);
        const std::uint64_t hi = std::min(page + kPageSize, end);
        const std::size_t off = lo - seg.base;
        if (hi - lo == kPageSize) {
          AdoptPage(PageNumber(static_cast<Addr>(page)),
                    prog.data.ShareBytes(i, off));
        } else {
          WriteBlock(static_cast<Addr>(lo), seg.bytes.data() + off, hi - lo);
        }
      }
    }
  }

  std::size_t AllocatedPages() const { return page_count_; }

  // Replaces this memory's contents with a copy-on-write copy of `other`
  // (a warm-state snapshot, a warm-started core, a restored checkpoint):
  // every page becomes shared, and whichever side writes a shared page
  // first clones it. Costs one reference per page, not one page copy.
  void CopyFrom(const Memory& other) {
    if (&other == this) return;
    InvalidateMemos();  // memoized pages may be dropped below
    // The source's write memo names a page it may now write in place;
    // once shared, that write must go through the clone check instead.
    other.wmemo_pn_ = kNoMemo;
    other.wmemo_page_ = nullptr;
    page_count_ = other.page_count_;
    for (std::size_t d = 0; d < kFanout; ++d) {
      const Leaf* src = other.dir_[d].get();
      if (src == nullptr) {
        dir_[d].reset();
      } else if (dir_[d]) {
        *dir_[d] = *src;
      } else {
        dir_[d] = std::make_unique<Leaf>(*src);
      }
    }
  }

  // Allocated page numbers in ascending order, for deterministic
  // serialization by the checkpoint layer. Ascending falls out of the
  // radix-table walk.
  std::vector<Addr> PageNumbers() const {
    std::vector<Addr> out;
    out.reserve(page_count_);
    for (std::size_t d = 0; d < kFanout; ++d) {
      const Leaf* leaf = dir_[d].get();
      if (leaf == nullptr) continue;
      for (std::size_t l = 0; l < kFanout; ++l) {
        if ((*leaf)[l]) {
          out.push_back(static_cast<Addr>((d << kLeafBits) | l));
        }
      }
    }
    return out;
  }

  // Raw bytes of an allocated page (nullptr if the page was never touched).
  // Valid until this Memory next writes the page (a shared page is then
  // cloned) or is the destination of CopyFrom. Two Memories return the
  // same pointer exactly when they still share the page.
  const std::uint8_t* PageData(Addr page_number) const {
    const Leaf* leaf = dir_[page_number >> kLeafBits].get();
    if (leaf == nullptr) return nullptr;
    return (*leaf)[page_number & (kFanout - 1)].get();
  }

  // Installs kPageSize bytes as page `page_number` (checkpoint restore).
  // A shared page is replaced rather than cloned: every byte is about to
  // be overwritten anyway.
  void InstallPage(Addr page_number, const std::uint8_t* bytes) {
    std::memcpy(SlotForWrite(page_number, /*keep_bytes=*/false), bytes,
                kPageSize);
  }

 private:
  // kPageSize bytes: a page of its own, or an adopted image page aliasing
  // a program's segment bytes (LoadProgram). Either way, while
  // use_count() > 1 the bytes may be visible through another handle, so a
  // write clones them first.
  using PageRef = std::shared_ptr<std::uint8_t[]>;

  // 20-bit page numbers (32-bit addresses, 4 KiB pages) split 10/10 over
  // a directory of on-demand leaves. The directory itself is 8 KiB of
  // inline storage per Memory — cheap enough for the transient Emulator
  // instances tests and sampling intervals create.
  static constexpr unsigned kLeafBits = 10;
  static constexpr std::size_t kFanout = 1u << kLeafBits;
  using Leaf = std::array<PageRef, kFanout>;

  static Addr PageNumber(Addr addr) { return addr >> kPageBits; }
  static Addr Offset(Addr addr) { return addr & (kPageSize - 1); }

  const std::uint8_t* FindPage(Addr addr) const {
    const Addr pn = PageNumber(addr);
    const Leaf* leaf = dir_[pn >> kLeafBits].get();
    if (leaf == nullptr) return nullptr;
    return (*leaf)[pn & (kFanout - 1)].get();
  }

  std::uint8_t* TouchPage(Addr addr) {
    return SlotForWrite(PageNumber(addr), /*keep_bytes=*/true);
  }

  PageRef& Slot(Addr pn) {
    std::unique_ptr<Leaf>& leaf = dir_[pn >> kLeafBits];
    if (!leaf) leaf = std::make_unique<Leaf>();
    return (*leaf)[pn & (kFanout - 1)];
  }

  // The page `pn` made private to this Memory, ready to write: allocated
  // zero-filled on first touch, cloned when shared (or, without
  // `keep_bytes`, replaced by a fresh page the caller fully overwrites).
  // A replaced page may be the read memo's, which is retargeted.
  std::uint8_t* SlotForWrite(Addr pn, bool keep_bytes) {
    PageRef& slot = Slot(pn);
    if (!slot) {
      slot = std::make_shared<std::uint8_t[]>(kPageSize);  // all zero
      ++page_count_;
    } else if (slot.use_count() > 1) {
      PageRef fresh =
          std::make_shared_for_overwrite<std::uint8_t[]>(kPageSize);
      if (keep_bytes) std::memcpy(fresh.get(), slot.get(), kPageSize);
      slot = std::move(fresh);
      if (rmemo_pn_ == pn) rmemo_page_ = slot.get();
    }
    return slot.get();
  }

  // Makes `page` page `pn`, whatever was there before (LoadProgram, with
  // the memos already dropped).
  void AdoptPage(Addr pn, PageRef page) {
    PageRef& slot = Slot(pn);
    if (!slot) ++page_count_;
    slot = std::move(page);
  }

  // One-entry page memos for the read and write paths: loops and stack
  // traffic hit the same page for long runs, so most accesses skip the
  // radix walk entirely. A memoized page stays valid until this Memory
  // drops its reference, which only CopyFrom (invalidates both memos)
  // and an unsharing write (retargets the read memo) do. The write memo
  // additionally only ever names a page this Memory owns alone, so
  // CopyFrom drops the *source's* write memo when it shares the pages.
  // Absent pages are not memoized — a later write may create them.
  const std::uint8_t* FindPageCached(Addr addr) const {
    const Addr pn = PageNumber(addr);
    if (pn == rmemo_pn_) return rmemo_page_;
    const std::uint8_t* page = FindPage(addr);
    if (page != nullptr) {
      rmemo_pn_ = pn;
      rmemo_page_ = page;
    }
    return page;
  }

  std::uint8_t* TouchPageCached(Addr addr) {
    const Addr pn = PageNumber(addr);
    if (pn == wmemo_pn_) return wmemo_page_;
    std::uint8_t* page = TouchPage(addr);
    wmemo_pn_ = pn;
    wmemo_page_ = page;
    return page;
  }

  void InvalidateMemos() {
    rmemo_pn_ = kNoMemo;
    rmemo_page_ = nullptr;
    wmemo_pn_ = kNoMemo;
    wmemo_page_ = nullptr;
  }

  // No valid page number has the top bits set (4 KiB pages in a 32-bit
  // space cap page numbers at 2^20).
  static constexpr Addr kNoMemo = ~Addr{0};

  mutable Addr rmemo_pn_ = kNoMemo;
  mutable const std::uint8_t* rmemo_page_ = nullptr;
  mutable Addr wmemo_pn_ = kNoMemo;  // dropped by a CopyFrom that reads us
  mutable std::uint8_t* wmemo_page_ = nullptr;

  std::array<std::unique_ptr<Leaf>, kFanout> dir_;
  std::size_t page_count_ = 0;
};

}  // namespace spear

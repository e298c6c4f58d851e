#include "runner/checkpoint.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "common/fnv.h"
#include "isa/regs.h"
#include "sim/emulator.h"

namespace spear::runner {
namespace {

constexpr char kMagic[4] = {'S', 'P', 'C', 'K'};

const char* BpredKindName(BpredKind kind) {
  switch (kind) {
    case BpredKind::kBimodal:
      return "bimodal";
    case BpredKind::kGshare:
      return "gshare";
    case BpredKind::kStaticBtfn:
      return "static_btfn";
    case BpredKind::kAlwaysTaken:
      return "always_taken";
  }
  return "?";
}

// Little-endian byte-buffer serializer. The whole checkpoint is built (or
// slurped) in memory; files are a few MiB at most, dominated by the page
// set of the warmed memory image.
class Writer {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

// Every read checks remaining length; the first failure poisons the reader
// and the caller reports a (recoverable) miss.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

  bool Bytes(void* out, std::size_t n) {
    if (!ok_ || size_ - pos_ < n) return Fail();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  std::uint8_t U8() {
    std::uint8_t v = 0;
    Bytes(&v, 1);
    return v;
  }
  std::uint32_t U32() {
    std::uint8_t b[4] = {};
    Bytes(b, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    std::uint8_t b[8] = {};
    Bytes(b, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  double F64() {
    const std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    if (!ok_ || size_ - pos_ < n) {
      Fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Wrong-format-version diagnostic, shared by both readers so the marker
// substring IsCheckpointVersionMismatch() keys on stays in one place.
std::string VersionMismatchError(const std::string& path, std::uint32_t got,
                                 std::uint32_t want) {
  std::ostringstream os;
  os << path << ": SPCK format version " << got << ", this reader expects "
     << want;
  if (got == kCheckpointTreeFormatVersion &&
      want == kCheckpointFormatVersion) {
    os << " (checkpoint tree handed to the flat-checkpoint reader — use "
          "LoadCheckpointTree)";
  } else if (got == kCheckpointFormatVersion &&
             want == kCheckpointTreeFormatVersion) {
    os << " (flat checkpoint handed to the tree reader — use "
          "LoadCheckpoint)";
  }
  return os.str();
}

void WriteCacheState(Writer& w, const CacheState& s) {
  w.U64(s.stamp);
  w.U64(s.tags.size());
  for (std::size_t i = 0; i < s.tags.size(); ++i) {
    w.U64(s.tags[i]);
    w.U64(s.lru[i]);
    w.U8(s.flags[i]);
  }
}

bool ReadCacheState(Reader& r, CacheState* s) {
  s->stamp = r.U64();
  const std::uint64_t n = r.U64();
  if (!r.ok() || n > (1ull << 28)) return false;  // implausible line count
  s->tags.resize(n);
  s->lru.resize(n);
  s->flags.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    s->tags[i] = r.U64();
    s->lru[i] = r.U64();
    s->flags[i] = r.U8();
  }
  return r.ok();
}

void WriteBpredState(Writer& w, const BpredState& b) {
  w.U32(static_cast<std::uint32_t>(b.counters.size()));
  w.Bytes(b.counters.data(), b.counters.size());
  w.U32(static_cast<std::uint32_t>(b.ras.size()));
  for (Pc p : b.ras) w.U32(p);
  w.U64(b.ras_top);
  w.U32(static_cast<std::uint32_t>(b.btb_pcs.size()));
  for (std::size_t i = 0; i < b.btb_pcs.size(); ++i) {
    w.U32(b.btb_pcs[i]);
    w.U32(b.btb_targets[i]);
  }
  w.U32(b.history);
}

bool ReadBpredState(Reader& r, BpredState* b) {
  const std::uint32_t ncounters = r.U32();
  if (!r.ok() || ncounters > (1u << 28)) return false;
  b->counters.resize(ncounters);
  if (ncounters > 0 && !r.Bytes(b->counters.data(), ncounters)) return false;
  const std::uint32_t nras = r.U32();
  if (!r.ok() || nras > (1u << 20)) return false;
  b->ras.resize(nras);
  for (std::uint32_t i = 0; i < nras; ++i) b->ras[i] = r.U32();
  b->ras_top = r.U64();
  const std::uint32_t nbtb = r.U32();
  if (!r.ok() || nbtb > (1u << 24)) return false;
  b->btb_pcs.resize(nbtb);
  b->btb_targets.resize(nbtb);
  for (std::uint32_t i = 0; i < nbtb; ++i) {
    b->btb_pcs[i] = r.U32();
    b->btb_targets[i] = r.U32();
  }
  b->history = r.U32();
  return r.ok();
}

// The v1 file body (everything after magic+version+key). The tree format
// reuses it verbatim for the root, so the byte layout of a v1 file is a
// strict prefix-compatible subset of a v2 file's root section.
void WriteWarmStateBody(Writer& w, const WarmState& state) {
  w.U8(state.halted ? 1 : 0);
  w.U32(state.pc);
  w.U64(state.warmed_instrs);
  for (std::uint32_t r : state.iregs) w.U32(r);
  for (double f : state.fregs) w.F64(f);

  const std::vector<Addr> pages = state.mem.PageNumbers();
  w.U32(static_cast<std::uint32_t>(pages.size()));
  for (Addr pn : pages) {
    w.U32(pn);
    w.Bytes(state.mem.PageData(pn), Memory::kPageSize);
  }

  WriteCacheState(w, state.l1d);
  WriteCacheState(w, state.l2);
  WriteBpredState(w, state.bpred);
}

bool ReadWarmStateBody(Reader& r, WarmState* out) {
  WarmState ws;
  ws.halted = r.U8() != 0;
  ws.pc = r.U32();
  ws.warmed_instrs = r.U64();
  for (int i = 0; i < kNumIntRegs; ++i) ws.iregs[i] = r.U32();
  for (int i = 0; i < kNumFpRegs; ++i) ws.fregs[i] = r.F64();

  const std::uint32_t npages = r.U32();
  if (!r.ok()) return false;
  std::vector<std::uint8_t> page(Memory::kPageSize);
  for (std::uint32_t i = 0; i < npages; ++i) {
    const Addr pn = r.U32();
    if (!r.Bytes(page.data(), page.size())) return false;
    ws.mem.InstallPage(pn, page.data());
  }

  if (!ReadCacheState(r, &ws.l1d) || !ReadCacheState(r, &ws.l2)) return false;
  if (!ReadBpredState(r, &ws.bpred)) return false;
  *out = std::move(ws);
  return true;
}

// Slurps the file at `path` and validates the SPCK envelope (magic,
// `version`, key string). On success *body_off is the offset of the first
// body byte; on any failure fills *why with the miss diagnostic.
bool OpenSpck(const std::string& path, std::uint32_t version,
              const std::string& key_string, std::vector<std::uint8_t>* buf,
              std::size_t* body_off, std::string* why) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *why = "no checkpoint at " + path;
    return false;
  }
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf->insert(buf->end(), chunk, chunk + n);
  }
  std::fclose(f);

  Reader r(buf->data(), buf->size());
  char magic[4] = {};
  r.Bytes(magic, sizeof(magic));
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    *why = path + ": bad magic";
    return false;
  }
  const std::uint32_t got = r.U32();
  if (!r.ok()) {
    *why = path + ": truncated";
    return false;
  }
  if (got != version) {
    *why = VersionMismatchError(path, got, version);
    return false;
  }
  // The hash names the file but the full key string decides: a hash
  // collision (or a stale cache dir) must read as a miss, not a wrong warm
  // state.
  if (r.Str() != key_string) {
    *why = path + ": key mismatch";
    return false;
  }
  // magic + version + length-prefixed key string.
  *body_off = sizeof(kMagic) + sizeof(std::uint32_t) +
              sizeof(std::uint32_t) + key_string.size();
  return true;
}

// Writes `buf` to `path` via a pid-unique temp file + rename, so parallel
// workers racing on the same key never see a partial file.
bool AtomicWriteFile(const std::string& dir, const std::string& path,
                     const std::vector<std::uint8_t>& buf,
                     std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + tmp + ": " + std::strerror(errno);
    }
    return false;
  }
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    if (error != nullptr) *error = "short write to " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "rename " + tmp + " -> " + path + ": " + std::strerror(errno);
    }
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::string KeyString(const CheckpointKey& key) {
  std::ostringstream os;
  os << "workload=" << key.workload << "|seed=" << key.seed
     << "|ff=" << key.ff_instrs << "|l1d=" << key.l1d.sets << "x"
     << key.l1d.block_bytes << "x" << key.l1d.assoc << "|l2=" << key.l2.sets
     << "x" << key.l2.block_bytes << "x" << key.l2.assoc
     << "|bpred=" << BpredKindName(key.bpred.kind) << ":"
     << key.bpred.table_entries << ":" << key.bpred.ras_entries << ":"
     << key.bpred.btb_entries;
  // Appended only when non-default so the checkpoints committed under
  // bench/ckpt (written before the scale knob existed) keep their keys.
  if (key.scale != 1) os << "|scale=" << key.scale;
  return os.str();
}

std::string CheckpointPath(const std::string& dir, const CheckpointKey& key) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(KeyString(key))));
  return dir + "/" + hex + ".spck";
}

namespace {

// Latencies don't affect tag/LRU or predictor contents, so the default
// latencies serve whichever latency sweep the timed run belongs to.
HierarchyConfig WarmingHierarchy(const CacheConfig& l1d,
                                 const CacheConfig& l2) {
  HierarchyConfig hcfg;
  hcfg.l1d = l1d;
  hcfg.l2 = l2;
  return hcfg;
}

}  // namespace

Warmer::Warmer(const Program& prog, const CacheConfig& l1d,
               const CacheConfig& l2, const BpredConfig& bpred)
    : hier_(WarmingHierarchy(l1d, l2)), bpred_(bpred), emu_(prog) {}

std::uint64_t Warmer::Advance(std::uint64_t n) {
  return emu_.Run(n, [this](Pc pc, const Instruction& instr,
                            const ExecResult& res) {
    // Every data access walks the hierarchy (WarmData — tag/LRU updates
    // without the latency/MSHR bookkeeping a WarmState doesn't carry);
    // every control instruction is predicted at fetch and trained at
    // commit (Predict also maintains the RAS speculatively).
    if (res.is_load || res.is_store) {
      hier_.WarmData(res.mem_addr, res.is_store, kMainThread);
    }
    if (res.is_control) {
      bpred_.Predict(pc, instr);
      bpred_.Update(pc, instr, res.taken, res.next_pc);
    }
  });
}

WarmState Warmer::Snapshot() const {
  WarmState ws;
  for (int i = 0; i < kNumIntRegs; ++i) {
    ws.iregs[i] = emu_.ReadIntReg(IntReg(i));
  }
  for (int i = 0; i < kNumFpRegs; ++i) ws.fregs[i] = emu_.ReadFpReg(FpReg(i));
  ws.pc = emu_.pc();
  ws.warmed_instrs = emu_.icount();
  ws.halted = emu_.halted();
  ws.mem.CopyFrom(emu_.memory());
  ws.l1d = hier_.l1d().SaveState();
  ws.l2 = hier_.l2().SaveState();
  ws.bpred = bpred_.SaveState();
  return ws;
}

FastForwardResult FastForward(const Program& prog, const CheckpointKey& key) {
  Warmer warmer(prog, key.l1d, key.l2, key.bpred);
  FastForwardResult out;
  out.executed = warmer.Advance(key.ff_instrs);
  out.state = warmer.Snapshot();
  return out;
}

bool SaveCheckpoint(const std::string& dir, const CheckpointKey& key,
                    const WarmState& state, std::string* error) {
  Writer w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kCheckpointFormatVersion);
  w.Str(KeyString(key));
  WriteWarmStateBody(w, state);
  return AtomicWriteFile(dir, CheckpointPath(dir, key), w.buffer(), error);
}

bool LoadCheckpoint(const std::string& dir, const CheckpointKey& key,
                    WarmState* state, std::string* error) {
  const std::string path = CheckpointPath(dir, key);
  auto miss = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::vector<std::uint8_t> buf;
  std::size_t body_off = 0;
  std::string why;
  if (!OpenSpck(path, kCheckpointFormatVersion, KeyString(key), &buf,
                &body_off, &why)) {
    return miss(why);
  }

  Reader r(buf.data() + body_off, buf.size() - body_off);
  WarmState ws;
  if (!ReadWarmStateBody(r, &ws)) return miss(path + ": truncated");
  if (!r.ok() || !r.AtEnd()) return miss(path + ": truncated or oversized");
  *state = std::move(ws);
  return true;
}

bool IsCheckpointVersionMismatch(const std::string& error) {
  return error.find(": SPCK format version ") != std::string::npos;
}

// --- SPCK v2 checkpoint trees --------------------------------------------

std::string TreeKeyString(const CheckpointTreeKey& key) {
  std::ostringstream os;
  os << KeyString(key.base) << "|sim=" << key.sim_instrs
     << "|sampling=" << key.period << ":" << key.detail << ":" << key.warmup;
  return os.str();
}

std::string CheckpointTreePath(const std::string& dir,
                               const CheckpointTreeKey& key) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(TreeKeyString(key))));
  return dir + "/" + hex + ".spck";
}

WarmState CheckpointTree::MaterializeChild(std::size_t i) const {
  const CheckpointTreeChild& c = children[i];
  WarmState ws;
  ws.iregs = c.iregs;
  ws.fregs = c.fregs;
  ws.pc = c.pc;
  ws.warmed_instrs = c.start_icount;
  ws.halted = false;  // a halted point is never snapshotted as a child
  ws.mem.CopyFrom(root.mem);  // shared copy-on-write; deltas replace pages
  for (const auto& [pn, bytes] : c.delta_pages) {
    ws.mem.InstallPage(pn, bytes.data());
  }
  ws.l1d = c.l1d;
  ws.l2 = c.l2;
  ws.bpred = c.bpred;
  return ws;
}

void CheckpointTree::AddChild(const WarmState& ws) {
  CheckpointTreeChild c;
  c.start_icount = ws.warmed_instrs;
  c.iregs = ws.iregs;
  c.fregs = ws.fregs;
  c.pc = ws.pc;
  // Pages only ever appear (the sparse Memory never frees), so the child's
  // page set is a superset of the root's: store each page that the root
  // lacks or whose bytes changed. A page still shared copy-on-write with
  // the root is unchanged without comparing bytes.
  for (Addr pn : ws.mem.PageNumbers()) {
    const std::uint8_t* cur = ws.mem.PageData(pn);
    const std::uint8_t* base = root.mem.PageData(pn);
    if (base != nullptr &&
        (base == cur || std::memcmp(cur, base, Memory::kPageSize) == 0)) {
      continue;
    }
    c.delta_pages.emplace_back(
        pn, std::vector<std::uint8_t>(cur, cur + Memory::kPageSize));
  }
  c.l1d = ws.l1d;
  c.l2 = ws.l2;
  c.bpred = ws.bpred;
  children.push_back(std::move(c));
}

bool SaveCheckpointTree(const std::string& dir, const CheckpointTreeKey& key,
                        const CheckpointTree& tree, std::string* error) {
  Writer w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kCheckpointTreeFormatVersion);
  w.Str(TreeKeyString(key));

  w.U64(tree.covered_instrs);
  w.U8(tree.halted ? 1 : 0);
  WriteWarmStateBody(w, tree.root);

  w.U32(static_cast<std::uint32_t>(tree.children.size()));
  for (const CheckpointTreeChild& c : tree.children) {
    w.U64(c.start_icount);
    w.U32(c.pc);
    for (std::uint32_t r : c.iregs) w.U32(r);
    for (double f : c.fregs) w.F64(f);
    w.U32(static_cast<std::uint32_t>(c.delta_pages.size()));
    for (const auto& [pn, bytes] : c.delta_pages) {
      w.U32(pn);
      w.Bytes(bytes.data(), bytes.size());
    }
    WriteCacheState(w, c.l1d);
    WriteCacheState(w, c.l2);
    WriteBpredState(w, c.bpred);
  }
  return AtomicWriteFile(dir, CheckpointTreePath(dir, key), w.buffer(),
                         error);
}

bool LoadCheckpointTree(const std::string& dir, const CheckpointTreeKey& key,
                        CheckpointTree* tree, std::string* error) {
  const std::string path = CheckpointTreePath(dir, key);
  auto miss = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::vector<std::uint8_t> buf;
  std::size_t body_off = 0;
  std::string why;
  if (!OpenSpck(path, kCheckpointTreeFormatVersion, TreeKeyString(key), &buf,
                &body_off, &why)) {
    return miss(why);
  }

  Reader r(buf.data() + body_off, buf.size() - body_off);
  CheckpointTree t;
  t.covered_instrs = r.U64();
  t.halted = r.U8() != 0;
  if (!ReadWarmStateBody(r, &t.root)) {
    return miss(path + ": truncated root state");
  }

  const std::uint32_t nchildren = r.U32();
  if (!r.ok() || nchildren > (1u << 24)) return miss(path + ": truncated");
  t.children.reserve(nchildren);
  for (std::uint32_t i = 0; i < nchildren; ++i) {
    CheckpointTreeChild c;
    c.start_icount = r.U64();
    c.pc = r.U32();
    for (int j = 0; j < kNumIntRegs; ++j) c.iregs[j] = r.U32();
    for (int j = 0; j < kNumFpRegs; ++j) c.fregs[j] = r.F64();
    const std::uint32_t npages = r.U32();
    if (!r.ok() || npages > (1u << 24)) {
      return miss(path + ": truncated child");
    }
    c.delta_pages.reserve(npages);
    for (std::uint32_t p = 0; p < npages; ++p) {
      const Addr pn = r.U32();
      std::vector<std::uint8_t> bytes(Memory::kPageSize);
      if (!r.Bytes(bytes.data(), bytes.size())) {
        return miss(path + ": truncated child page");
      }
      c.delta_pages.emplace_back(pn, std::move(bytes));
    }
    if (!ReadCacheState(r, &c.l1d) || !ReadCacheState(r, &c.l2)) {
      return miss(path + ": truncated child cache state");
    }
    if (!ReadBpredState(r, &c.bpred)) {
      return miss(path + ": truncated child predictor state");
    }
    t.children.push_back(std::move(c));
  }
  if (!r.ok() || !r.AtEnd()) return miss(path + ": truncated or oversized");
  *tree = std::move(t);
  return true;
}

}  // namespace spear::runner

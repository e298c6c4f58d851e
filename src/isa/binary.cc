#include "isa/binary.h"

#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "isa/spec_check.h"

namespace spear {
namespace {

constexpr char kMagic[8] = {'S', 'P', 'E', 'A', 'R', 'B', 'I', 'N'};

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(v); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(const std::vector<std::uint8_t>& b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  std::vector<std::uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& in) : in_(in) {}

  std::uint8_t U8() {
    SPEAR_CHECK(pos_ < in_.size());
    return in_[pos_++];
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(U8()) << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(U8()) << (8 * i);
    return v;
  }
  double F64() {
    const std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::vector<std::uint8_t> Bytes(std::size_t n) {
    SPEAR_CHECK(pos_ + n <= in_.size());
    std::vector<std::uint8_t> b(in_.begin() + static_cast<long>(pos_),
                                in_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return b;
  }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> SerializeProgram(const Program& prog) {
  Writer w;
  for (char c : kMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(kSpearBinVersion);
  w.U32(prog.text_base);
  w.U32(prog.entry);

  w.U32(static_cast<std::uint32_t>(prog.text.size()));
  for (const Instruction& in : prog.text) w.U64(Encode(in));

  w.U32(static_cast<std::uint32_t>(prog.data.size()));
  for (const DataSegment& seg : prog.data) {
    w.U32(seg.base);
    w.U32(static_cast<std::uint32_t>(seg.bytes.size()));
    w.Bytes(seg.bytes);
  }

  w.U32(static_cast<std::uint32_t>(prog.pthreads.size()));
  for (const PThreadSpec& spec : prog.pthreads) {
    w.U32(spec.dload_pc);
    w.U32(spec.region_start);
    w.U32(spec.region_end);
    w.U64(spec.profile_misses);
    w.F64(spec.region_dcycles);
    w.U32(static_cast<std::uint32_t>(spec.live_ins.size()));
    for (RegId reg : spec.live_ins) w.U8(reg);
    w.U32(static_cast<std::uint32_t>(spec.slice_pcs.size()));
    for (Pc pc : spec.slice_pcs) w.U32(pc);
  }

  w.U32(static_cast<std::uint32_t>(prog.secret_ranges.size()));
  for (const SecretRange& r : prog.secret_ranges) {
    w.U32(r.base);
    w.U32(r.size);
  }
  return w.Take();
}

Program DeserializeProgram(const std::vector<std::uint8_t>& bytes) {
  Reader rd(bytes);
  for (char c : kMagic) SPEAR_CHECK(rd.U8() == static_cast<std::uint8_t>(c));
  const std::uint32_t version = rd.U32();
  SPEAR_CHECK(version >= kSpearBinMinVersion && version <= kSpearBinVersion);

  Program prog;
  prog.text_base = rd.U32();
  prog.entry = rd.U32();

  const std::uint32_t ntext = rd.U32();
  prog.text.reserve(ntext);
  for (std::uint32_t i = 0; i < ntext; ++i) prog.text.push_back(Decode(rd.U64()));

  const std::uint32_t nseg = rd.U32();
  for (std::uint32_t i = 0; i < nseg; ++i) {
    const Addr base = rd.U32();
    const std::uint32_t size = rd.U32();
    // A segment past the top of the address space would wrap onto low
    // addresses at load.
    SPEAR_CHECK(std::uint64_t{base} + size <= kAddressSpaceEnd);
    prog.AddSegment(base, rd.Bytes(size));
  }

  const std::uint32_t nspec = rd.U32();
  for (std::uint32_t i = 0; i < nspec; ++i) {
    PThreadSpec spec;
    spec.dload_pc = rd.U32();
    spec.region_start = rd.U32();
    spec.region_end = rd.U32();
    spec.profile_misses = rd.U64();
    spec.region_dcycles = rd.F64();
    const std::uint32_t nlive = rd.U32();
    for (std::uint32_t k = 0; k < nlive; ++k) spec.live_ins.push_back(rd.U8());
    const std::uint32_t nslice = rd.U32();
    for (std::uint32_t k = 0; k < nslice; ++k) spec.slice_pcs.push_back(rd.U32());
    prog.pthreads.push_back(std::move(spec));
  }

  if (version >= 3) {
    const std::uint32_t nsecret = rd.U32();
    for (std::uint32_t i = 0; i < nsecret; ++i) {
      SecretRange r;
      r.base = rd.U32();
      r.size = rd.U32();
      prog.secret_ranges.push_back(r);
    }
  }
  SPEAR_CHECK(rd.AtEnd());
  return prog;
}

void WriteProgram(const Program& prog, const std::string& path) {
  const std::vector<std::uint8_t> bytes = SerializeProgram(prog);
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  SPEAR_CHECK(fp != nullptr);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), fp);
  SPEAR_CHECK(written == bytes.size());
  SPEAR_CHECK(std::fclose(fp) == 0);
}

Program ReadProgram(const std::string& path, SpecLoadPolicy policy) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  SPEAR_CHECK(fp != nullptr);
  SPEAR_CHECK(std::fseek(fp, 0, SEEK_END) == 0);
  const long size = std::ftell(fp);
  SPEAR_CHECK(size >= 0);
  SPEAR_CHECK(std::fseek(fp, 0, SEEK_SET) == 0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), fp);
  SPEAR_CHECK(read == bytes.size());
  std::fclose(fp);

  Program prog = DeserializeProgram(bytes);
  if (policy == SpecLoadPolicy::kTrust) return prog;
  int bad_specs = 0;
  for (const PThreadSpec& spec : prog.pthreads) {
    const std::vector<SpecDiag> diags = CheckSpecStructure(prog, spec);
    if (!HasSpecErrors(diags)) continue;
    ++bad_specs;
    for (const SpecDiag& d : diags) {
      if (d.severity() != SpecDiagSeverity::kError) continue;
      std::fprintf(stderr, "%s:0x%x: %s: %s [%s]\n", path.c_str(), d.pc,
                   policy == SpecLoadPolicy::kReject ? "error" : "warning",
                   d.message.c_str(), SpecDiagCodeName(d.code));
    }
  }
  if (bad_specs > 0) {
    std::fprintf(stderr, "%s: %d p-thread spec(s) violate the slice contract\n",
                 path.c_str(), bad_specs);
    SPEAR_CHECK(policy != SpecLoadPolicy::kReject);
  }
  return prog;
}

}  // namespace spear

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/binary.h"
#include "isa/disasm.h"
#include "isa/instruction.h"
#include "isa/opcode.h"
#include "isa/program.h"
#include "isa/regs.h"

namespace spear {
namespace {

TEST(Opcode, TableIsConsistent) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const OpInfo& info = GetOpInfo(op);
    EXPECT_NE(info.mnemonic, nullptr);
    if (IsLoad(op) || IsStore(op)) {
      EXPECT_GT(info.access_bytes, 0) << info.mnemonic;
    } else {
      EXPECT_EQ(info.access_bytes, 0) << info.mnemonic;
    }
    if (IsLoad(op)) {
      EXPECT_TRUE(WritesRd(op)) << info.mnemonic;
    }
    if (IsStore(op)) {
      EXPECT_FALSE(WritesRd(op)) << info.mnemonic;
    }
    EXPECT_FALSE(IsLoad(op) && IsStore(op)) << info.mnemonic;
    EXPECT_FALSE(IsCondBranch(op) && IsUncondJump(op)) << info.mnemonic;
  }
}

TEST(Regs, UnifiedIdMapping) {
  EXPECT_EQ(IntReg(0), 0);
  EXPECT_EQ(IntReg(31), 31);
  EXPECT_EQ(FpReg(0), 32);
  EXPECT_EQ(FpReg(31), 63);
  EXPECT_FALSE(IsFpReg(IntReg(31)));
  EXPECT_TRUE(IsFpReg(FpReg(0)));
  EXPECT_EQ(FpIndex(FpReg(17)), 17);
  EXPECT_EQ(RegName(IntReg(5)), "r5");
  EXPECT_EQ(RegName(FpReg(5)), "f5");
}

TEST(Instruction, EncodeDecodeRoundTripAllFields) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    Instruction in;
    in.op = static_cast<Opcode>(i);
    in.rd = static_cast<RegId>((i * 7) % 64);
    in.rs = static_cast<RegId>((i * 13) % 64);
    in.rt = static_cast<RegId>((i * 29) % 64);
    in.imm = (i % 2) ? -123456 * i : 987654 + i;
    EXPECT_EQ(Decode(Encode(in)), in);
  }
}

TEST(Instruction, NegativeImmediateSurvivesEncoding) {
  Instruction in{Opcode::kAddi, IntReg(1), IntReg(2), 0, -1};
  EXPECT_EQ(Decode(Encode(in)).imm, -1);
  in.imm = -2147483647;
  EXPECT_EQ(Decode(Encode(in)).imm, -2147483647);
}

TEST(Instruction, SourcesOfStoreIncludesValueAndBase) {
  Instruction sw{Opcode::kSw, 0, IntReg(3), IntReg(4), 8};
  const SrcRegs s = SourcesOf(sw);
  ASSERT_EQ(s.count, 2);
  EXPECT_EQ(s.reg[0], IntReg(3));
  EXPECT_EQ(s.reg[1], IntReg(4));
}

TEST(Instruction, SourcesOfUnaryFpIsSingle) {
  Instruction fm{Opcode::kFmov, FpReg(1), FpReg(2), FpReg(2), 0};
  EXPECT_EQ(SourcesOf(fm).count, 1);
  Instruction cv{Opcode::kCvtif, FpReg(1), IntReg(2), IntReg(2), 0};
  EXPECT_EQ(SourcesOf(cv).count, 1);
}

TEST(Instruction, DestOfRespectsRegZero) {
  Instruction add{Opcode::kAdd, IntReg(0), IntReg(1), IntReg(2), 0};
  EXPECT_FALSE(DestOf(add).has_value());
  add.rd = IntReg(9);
  ASSERT_TRUE(DestOf(add).has_value());
  EXPECT_EQ(*DestOf(add), IntReg(9));
  Instruction sw{Opcode::kSw, 0, IntReg(3), IntReg(4), 8};
  EXPECT_FALSE(DestOf(sw).has_value());
}

TEST(Assembler, LabelForwardAndBackwardFixup) {
  Program prog;
  Assembler a(&prog);
  Label fwd = a.NewLabel();
  Label back = a.BindNew();
  a.addi(r(1), r(1), 1);
  a.beq(r(1), r(2), fwd);   // forward reference
  a.j(back);                // backward reference
  a.Bind(fwd);
  a.halt();
  a.Finish();

  // beq is instruction #1, its target must be the halt at #3.
  EXPECT_EQ(static_cast<Pc>(prog.text[1].imm), prog.PcOf(3));
  // j is instruction #2, its target is instruction #0.
  EXPECT_EQ(static_cast<Pc>(prog.text[2].imm), prog.PcOf(0));
  EXPECT_EQ(a.UnboundLabels(), 0);
}

TEST(Assembler, PseudoOpsExpandAsDocumented) {
  Program prog;
  Assembler a(&prog);
  a.li(r(4), -77);
  a.mov(r(5), r(4));
  a.Finish();
  EXPECT_EQ(prog.text[0].op, Opcode::kAddi);
  EXPECT_EQ(prog.text[0].rs, kRegZero);
  EXPECT_EQ(prog.text[0].imm, -77);
  EXPECT_EQ(prog.text[1].op, Opcode::kAddi);
  EXPECT_EQ(prog.text[1].imm, 0);
}

TEST(Program, PcIndexRoundTrip) {
  Program prog;
  Assembler a(&prog);
  for (int i = 0; i < 10; ++i) a.nop();
  a.Finish();
  for (InstrIndex i = 0; i < 10; ++i) {
    const Pc pc = prog.PcOf(i);
    EXPECT_TRUE(prog.ContainsPc(pc));
    EXPECT_EQ(prog.IndexOf(pc), i);
  }
  EXPECT_FALSE(prog.ContainsPc(prog.text_base + 4));  // misaligned
  EXPECT_FALSE(prog.ContainsPc(prog.EndPc()));
}

TEST(Program, DataSegmentPokes) {
  Program prog;
  DataSegment& seg = prog.AddSegment(0x100000, 64);
  PokeU32(seg, 0x100000, 0xdeadbeef);
  PokeU8(seg, 0x100010, 0xab);
  PokeF64(seg, 0x100020, 3.25);
  EXPECT_EQ(seg.bytes[0], 0xef);
  EXPECT_EQ(seg.bytes[3], 0xde);
  EXPECT_EQ(seg.bytes[0x10], 0xab);
  double back;
  __builtin_memcpy(&back, &seg.bytes[0x20], 8);
  EXPECT_DOUBLE_EQ(back, 3.25);
}

Program MakeRichProgram() {
  Program prog;
  Assembler a(&prog);
  Label loop = a.NewLabel();
  a.li(r(1), 5);
  a.Bind(loop);
  a.lw(r(2), r(1), 16);
  a.fadd(f(1), f(2), f(3));
  a.addi(r(1), r(1), -1);
  a.bne(r(1), r(0), loop);
  a.halt();
  a.Finish();
  DataSegment& seg = prog.AddSegment(0x200000, 128);
  PokeU32(seg, 0x200000, 42);
  PThreadSpec spec;
  spec.dload_pc = prog.PcOf(1);
  spec.slice_pcs = {prog.PcOf(0), prog.PcOf(1)};
  spec.live_ins = {IntReg(1)};
  spec.region_start = prog.PcOf(0);
  spec.region_end = prog.PcOf(4);
  spec.profile_misses = 123;
  spec.region_dcycles = 45.5;
  prog.pthreads.push_back(spec);
  return prog;
}

TEST(Binary, SerializeDeserializeRoundTrip) {
  const Program prog = MakeRichProgram();
  const Program back = DeserializeProgram(SerializeProgram(prog));

  EXPECT_EQ(back.text_base, prog.text_base);
  EXPECT_EQ(back.entry, prog.entry);
  ASSERT_EQ(back.text.size(), prog.text.size());
  for (std::size_t i = 0; i < prog.text.size(); ++i) {
    EXPECT_EQ(back.text[i], prog.text[i]) << "instr " << i;
  }
  ASSERT_EQ(back.data.size(), prog.data.size());
  EXPECT_EQ(back.data[0].base, prog.data[0].base);
  EXPECT_EQ(back.data[0].bytes, prog.data[0].bytes);
  ASSERT_EQ(back.pthreads.size(), 1u);
  const PThreadSpec& s = back.pthreads[0];
  EXPECT_EQ(s.dload_pc, prog.pthreads[0].dload_pc);
  EXPECT_EQ(s.slice_pcs, prog.pthreads[0].slice_pcs);
  EXPECT_EQ(s.live_ins, prog.pthreads[0].live_ins);
  EXPECT_EQ(s.profile_misses, 123u);
  EXPECT_DOUBLE_EQ(s.region_dcycles, 45.5);
}

TEST(Binary, FileRoundTrip) {
  const Program prog = MakeRichProgram();
  const std::string path = testing::TempDir() + "/spear_roundtrip.bin";
  WriteProgram(prog, path);
  const Program back = ReadProgram(path);
  EXPECT_EQ(back.text.size(), prog.text.size());
  EXPECT_EQ(back.pthreads.size(), 1u);
  std::remove(path.c_str());
}

TEST(Binary, SecretRangesRoundTrip) {
  Program prog = MakeRichProgram();
  prog.secret_ranges.push_back({0x2000, 0x100});
  prog.secret_ranges.push_back({0x400000, 64});
  const Program back = DeserializeProgram(SerializeProgram(prog));
  ASSERT_EQ(back.secret_ranges.size(), 2u);
  EXPECT_EQ(back.secret_ranges[0].base, 0x2000u);
  EXPECT_EQ(back.secret_ranges[0].size, 0x100u);
  EXPECT_EQ(back.secret_ranges[1].base, 0x400000u);
  EXPECT_EQ(back.secret_ranges[1].size, 64u);
}

TEST(Binary, Version2WithoutSecretsSectionStillLoads) {
  // A v3 binary with no secrets is a v2 binary plus a trailing zero u32:
  // patch the version field down and drop the tail to reconstruct the old
  // format on the wire.
  const Program prog = MakeRichProgram();
  std::vector<std::uint8_t> bytes = SerializeProgram(prog);
  ASSERT_GE(bytes.size(), 16u);
  bytes[8] = 2;  // version u32 (little-endian) follows the 8-byte magic
  bytes.resize(bytes.size() - 4);  // drop "nsecret = 0"
  const Program back = DeserializeProgram(bytes);
  EXPECT_EQ(back.text.size(), prog.text.size());
  EXPECT_EQ(back.pthreads.size(), prog.pthreads.size());
  EXPECT_TRUE(back.secret_ranges.empty());
}

// A segment may end at the top of the 32-bit address space but not run
// past it: at load its excess would wrap onto the lowest pages.
TEST(BinaryDeathTest, SegmentWrappingTheAddressSpaceIsRejected) {
  Program prog;  // no text, so the segment header sits at a fixed offset
  prog.AddSegment(0xfffff000, 0x1000);
  std::vector<std::uint8_t> bytes = SerializeProgram(prog);
  EXPECT_EQ(DeserializeProgram(bytes).data[0].bytes.size(), 0x1000u);

  // Grow the segment to 8 KiB. Its base u32 sits at 28 (after magic,
  // version, text_base, entry, ntext and nseg) and its size u32 at 32.
  constexpr std::size_t kBaseAt = 28;
  constexpr std::size_t kSizeAt = 32;
  ASSERT_EQ(bytes[kBaseAt + 1], 0xf0);
  ASSERT_EQ(bytes[kSizeAt + 1], 0x10);
  bytes[kSizeAt + 1] = 0x20;
  bytes.insert(bytes.begin() + kSizeAt + 4 + 0x1000, 0x1000, 0);
  EXPECT_DEATH(DeserializeProgram(bytes), "SPEAR_CHECK failed");
  bytes[kBaseAt + 1] = 0xe0;  // 0xffffe000: now it ends exactly at the top
  EXPECT_EQ(DeserializeProgram(bytes).data[0].bytes.size(), 0x2000u);

  EXPECT_DEATH(prog.AddSegment(0xfffff000, 0x2000), "SPEAR_CHECK failed");
}

TEST(Program, IsSecretAddrOverlapSemantics) {
  Program prog;
  prog.secret_ranges.push_back({0x1000, 0x10});
  EXPECT_TRUE(prog.IsSecretAddr(0x1000, 4));
  EXPECT_TRUE(prog.IsSecretAddr(0x100c, 4));
  EXPECT_FALSE(prog.IsSecretAddr(0x1010, 4));   // one past the end
  EXPECT_FALSE(prog.IsSecretAddr(0x0ffc, 4));   // ends at the base
  EXPECT_TRUE(prog.IsSecretAddr(0x0ffd, 4));    // straddles the base
  EXPECT_TRUE(prog.IsSecretAddr(0x100e, 4));    // straddles the end
  EXPECT_FALSE(prog.IsSecretAddr(0x2000, 4));
}

TEST(PThreadSpec, InSliceUsesSortedOrder) {
  PThreadSpec spec;
  spec.slice_pcs = {0x1000, 0x1010, 0x1030};
  EXPECT_TRUE(spec.InSlice(0x1000));
  EXPECT_TRUE(spec.InSlice(0x1030));
  EXPECT_FALSE(spec.InSlice(0x1008));
  EXPECT_FALSE(spec.InSlice(0x1040));
}

TEST(Disasm, FormatsRepresentativeInstructions) {
  EXPECT_EQ(Disassemble({Opcode::kAdd, IntReg(1), IntReg(2), IntReg(3), 0}),
            "add r1, r2, r3");
  EXPECT_EQ(Disassemble({Opcode::kAddi, IntReg(1), IntReg(2), 0, -4}),
            "addi r1, r2, -4");
  EXPECT_EQ(Disassemble({Opcode::kLw, IntReg(5), IntReg(3), 0, 16}),
            "lw r5, 16(r3)");
  EXPECT_EQ(Disassemble({Opcode::kSw, 0, IntReg(3), IntReg(7), 8}),
            "sw r7, 8(r3)");
  EXPECT_EQ(Disassemble({Opcode::kBeq, 0, IntReg(1), IntReg(2), 0x1040}),
            "beq r1, r2, 0x1040");
  EXPECT_EQ(Disassemble({Opcode::kJ, 0, 0, 0, 0x1000}), "j 0x1000");
  EXPECT_EQ(Disassemble({Opcode::kJr, 0, kRegRa, 0, 0}), "jr r31");
  EXPECT_EQ(Disassemble({Opcode::kFadd, FpReg(2), FpReg(0), FpReg(1), 0}),
            "fadd f2, f0, f1");
  EXPECT_EQ(Disassemble({Opcode::kFmov, FpReg(2), FpReg(0), FpReg(0), 0}),
            "fmov f2, f0");
  EXPECT_EQ(Disassemble({Opcode::kHalt, 0, 0, 0, 0}), "halt");
}

TEST(Disasm, EveryOpcodeRendersItsMnemonic) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    Instruction in;
    in.op = static_cast<Opcode>(i);
    in.rd = GetOpInfo(in.op).flags & kFlagRdIsFp ? FpReg(1) : IntReg(1);
    in.rs = GetOpInfo(in.op).flags & kFlagSrcFp ? FpReg(2) : IntReg(2);
    in.rt = GetOpInfo(in.op).flags & kFlagSrcFp ? FpReg(3) : IntReg(3);
    in.imm = 0x2000;
    const std::string text = Disassemble(in);
    const std::string mnemonic = GetOpInfo(in.op).mnemonic;
    ASSERT_GE(text.size(), mnemonic.size());
    EXPECT_EQ(text.substr(0, mnemonic.size()), mnemonic);
    // The mnemonic must be followed by a separator or end of string, so
    // "add" never leaks through as a prefix-rendering of "addi".
    if (text.size() > mnemonic.size()) {
      EXPECT_EQ(text[mnemonic.size()], ' ');
    }
  }
}

TEST(Disasm, ProgramListingHasOneLinePerInstruction) {
  Program prog;
  Assembler a(&prog);
  a.nop();
  a.halt();
  a.Finish();
  const std::string listing = DisassembleProgram(prog);
  EXPECT_NE(listing.find("0x1000: nop"), std::string::npos);
  EXPECT_NE(listing.find("0x1008: halt"), std::string::npos);
}

}  // namespace
}  // namespace spear

#include <gtest/gtest.h>

#include "frontends/dahlia/checker.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/lowering.h"
#include "frontends/dahlia/parser.h"
#include "support/error.h"
#include "workloads/harness.h"

namespace calyx {
namespace {

void
expectMatchesInterp(const std::string &src,
                    const std::string &spec = "default")
{
    dahlia::Program prog = dahlia::parse(src);
    workloads::MemState inputs = workloads::makeInputs("edge", prog);
    workloads::MemState golden = workloads::runOnInterp(prog, inputs);
    workloads::MemState hw;
    workloads::runOnHardware(prog, spec, inputs, &hw);
    for (const auto &[name, data] : golden)
        EXPECT_EQ(hw.at(name), data) << "memory " << name;
}

TEST(DahliaEdge, EmptyLoopRange)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
for (let i: ubit<3> = 2..2) { a[i] := 99; }
)");
}

TEST(DahliaEdge, SingleIterationLoop)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
for (let i: ubit<3> = 3..4) { a[i] := a[i] + 1; }
)");
}

TEST(DahliaEdge, IfWithoutElse)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  if (a[i] >= 7) { a[i] := 0; }
}
)");
}

TEST(DahliaEdge, NestedIfs)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8];
decl o: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  if (a[i] > 3) {
    if (a[i] > 9) { o[i] := 2; } else { o[i] := 1; }
  } else {
    o[i] := 0;
  }
}
)");
}

TEST(DahliaEdge, WidthMixing)
{
    // 8-bit memory values combined with a 32-bit accumulator force pad
    // cells; a narrow store forces a slice.
    expectMatchesInterp(R"(
decl small: ubit<8>[4];
decl wide: ubit<32>[4];
decl out8: ubit<8>[4];
for (let i: ubit<3> = 0..4) {
  wide[i] := small[i] * 3 + wide[i];
  ---
  out8[i] := wide[i] + small[i];
}
)");
}

TEST(DahliaEdge, WrapAroundArithmetic)
{
    expectMatchesInterp(R"(
decl a: ubit<8>[4];
for (let i: ubit<3> = 0..4) {
  a[i] := a[i] * 97 + 201;
}
)");
}

TEST(DahliaEdge, SubtractionUnderflowWraps)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl o: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  o[i] := a[i] - 1000;
}
)");
}

TEST(DahliaEdge, DivisionByZeroConvention)
{
    // b contains a zero: all three implementations must agree on the
    // all-ones quotient convention.
    const char *src = R"(
decl a: ubit<32>[4];
decl b: ubit<32>[4];
decl q: ubit<32>[4];
decl r: ubit<32>[4];
b[2] := 0;
---
for (let i: ubit<3> = 0..4) {
  q[i] := a[i] / b[i];
  ---
  r[i] := a[i] % b[i];
}
)";
    expectMatchesInterp(src);
}

TEST(DahliaEdge, ShiftOperators)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl o: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  o[i] := (a[i] << 3) + (a[i] >> 1) + (a[i] << i);
}
)");
}

TEST(DahliaEdge, BitwiseOperators)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl b: ubit<32>[4];
decl o: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  o[i] := (a[i] & b[i]) + (a[i] | b[i]) + (a[i] ^ b[i]);
}
)");
}

TEST(DahliaEdge, LogicalConditionCombination)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8];
decl o: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  if (a[i] > 2 && a[i] < 11 || a[i] == 13) {
    o[i] := 1;
  } else {
    o[i] := 0;
  }
}
)");
}

TEST(DahliaEdge, Unroll4WithBank4)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[16 bank 4];
decl b: ubit<32>[16 bank 4];
for (let i: ubit<5> = 0..16) unroll 4 {
  b[i] := a[i] * 2 + 1;
}
)");
}

TEST(DahliaEdge, Unroll4Combine)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[16 bank 4];
decl out: ubit<32>[1];
let acc: ubit<32> = 0;
---
for (let i: ubit<5> = 0..16) unroll 4 {
  let v: ubit<32> = a[i] * a[i];
} combine {
  acc := acc + v;
}
---
out[0] := acc;
)");
}

TEST(DahliaEdge, BankedTwoDimensionalSecondDim)
{
    expectMatchesInterp(R"(
decl A: ubit<32>[4][8 bank 2];
for (let i: ubit<3> = 0..4) {
  for (let j: ubit<4> = 0..8) unroll 2 {
    A[i][j] := A[i][j] + i + j;
  }
}
)");
}

TEST(DahliaEdge, BankedFirstDimension)
{
    expectMatchesInterp(R"(
decl A: ubit<32>[8 bank 2][4];
for (let i: ubit<4> = 0..8) unroll 2 {
  for (let j: ubit<3> = 0..4) {
    A[i][j] := A[i][j] * 2;
  }
}
)");
}

TEST(DahliaEdge, SharedReadOnlyMemoryInParallelArms)
{
    // Both arms read memory `a` (through the two BRAM ports) while
    // writing disjoint outputs: the backend may parallelize.
    const char *src = R"(
decl a: ubit<32>[4];
decl x: ubit<32>[4];
decl y: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  x[i] := a[i] + 1; y[i] := a[i] + 2
}
)";
    dahlia::Program prog = dahlia::parse(src);
    Context ctx = dahlia::compileDahlia(prog);
    bool has_par = false;
    ctx.component("main").control().walk([&](const Control &c) {
        if (c.kind() == Control::Kind::Par)
            has_par = true;
    });
    EXPECT_TRUE(has_par);
    expectMatchesInterp(src);
}

TEST(DahliaEdge, ThreeArmsSharingOneMemorySerialize)
{
    const char *src = R"(
decl a: ubit<32>[4];
decl x: ubit<32>[4];
decl y: ubit<32>[4];
decl z: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  x[i] := a[i] + 1; y[i] := a[i] + 2; z[i] := a[i] + 3
}
)";
    dahlia::Program prog = dahlia::parse(src);
    Context ctx = dahlia::compileDahlia(prog);
    bool has_par = false;
    ctx.component("main").control().walk([&](const Control &c) {
        if (c.kind() == Control::Kind::Par)
            has_par = true;
    });
    EXPECT_FALSE(has_par); // only two read ports exist
    expectMatchesInterp(src);
}

TEST(DahliaEdge, ReadAndWriteSameMemoryInOneGroupUsesSecondPort)
{
    // `a[i] := a[i] + 1` can read through port 1 while writing through
    // port 0 in a single group: no materialization register needed.
    dahlia::Program prog = dahlia::parse(R"(
decl a: ubit<32>[4];
for (let i: ubit<3> = 0..4) { a[i] := a[i] + 1; }
)");
    Context ctx = dahlia::compileDahlia(prog);
    int rd_groups = 0;
    for (const auto &g : ctx.component("main").groups()) {
        if (g->name().str().rfind("rd", 0) == 0)
            ++rd_groups;
    }
    EXPECT_EQ(rd_groups, 0);
}

TEST(DahliaEdge, TripleReadOfOneMemoryMaterializes)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8];
decl o: ubit<32>[8];
for (let i: ubit<4> = 0..4) {
  o[i] := a[i] + a[i + 1] + a[i + 2];
}
)");
}

TEST(DahliaEdge, ConstantFoldingMatches)
{
    expectMatchesInterp(R"(
decl o: ubit<32>[2];
o[0] := 3 * 4 + 100 / 7 - (2 << 3);
---
o[1] := (1000000 * 1000000) + 1;
)");
}

TEST(DahliaEdge, SqrtOfZeroAndLarge)
{
    expectMatchesInterp(R"(
decl o: ubit<32>[3];
o[0] := sqrt(0);
---
o[1] := sqrt(2);
---
o[2] := sqrt(4294967295);
)");
}

TEST(DahliaEdge, CheckerRejectsDoitgenStyleBanking)
{
    // The pattern that makes doitgen non-unrollable: reduce along a
    // banked dimension with a non-unrolled iterator.
    dahlia::Program p = dahlia::parse(R"(
decl A: ubit<32>[4][4 bank 2];
decl s: ubit<32>[4 bank 2];
for (let p: ubit<3> = 0..4) unroll 2 {
  let acc: ubit<32> = 0;
  ---
  for (let k: ubit<3> = 0..4) {
    acc := acc + A[k][k];
  }
  ---
  s[p] := acc;
}
)");
    dahlia::check(p);
    // The checker passes (the banked access does not involve the
    // unrolled iterator) but bank resolution must fail in lowering.
    EXPECT_THROW(dahlia::lower(p), Error);
}

TEST(DahliaEdge, AllPassesOnBankedKernel)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8 bank 2];
decl b: ubit<32>[8 bank 2];
decl out: ubit<32>[1];
let acc: ubit<32> = 0;
---
for (let i: ubit<4> = 0..8) unroll 2 {
  let v: ubit<32> = a[i] * b[i];
} combine {
  acc := acc + v;
}
---
out[0] := acc;
)",
                        "all");
}

} // namespace
} // namespace calyx

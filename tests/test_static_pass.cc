#include <gtest/gtest.h>

#include "helpers.h"
#include "passes/static_pass.h"

namespace calyx {
namespace {

using passes::StaticPass;
using testing::compiledReg;

/** The default pipeline plus latency-sensitive compilation (§4.4). */
constexpr const char *kSensitive = "all,-resource-sharing,-register-sharing";
using testing::counterProgram;

/** Two static register writes in sequence. */
Context
staticSeqProgram()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    b.reg("y", 8);
    b.regWriteGroup("one", "x", constant(1, 8));
    b.regWriteGroup("two", "y", constant(2, 8));
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("one"));
    s.push_back(ComponentBuilder::enable("two"));
    b.component().setControl(ComponentBuilder::seq(std::move(s)));
    return ctx;
}

TEST(StaticPass, LatencyComputation)
{
    Context ctx = staticSeqProgram();
    const Component &main = ctx.component("main");
    EXPECT_EQ(StaticPass::latencyOf(main.control(), main), 2);
}

TEST(StaticPass, ParLatencyIsMax)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    b.reg("y", 8);
    Group &g1 = b.regWriteGroup("one", "x", constant(1, 8));
    Group &g2 = b.regWriteGroup("two", "y", constant(2, 8));
    g1.attrs().set(Attributes::staticAttr, 3);
    g2.attrs().set(Attributes::staticAttr, 5);
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("one"));
    s.push_back(ComponentBuilder::enable("two"));
    b.component().setControl(ComponentBuilder::par(std::move(s)));
    const Component &main = ctx.component("main");
    EXPECT_EQ(StaticPass::latencyOf(main.control(), main), 5);
}

TEST(StaticPass, WhileIsDynamic)
{
    Context ctx = counterProgram(3, 1);
    const Component &main = ctx.component("main");
    EXPECT_EQ(StaticPass::latencyOf(main.control(), main), std::nullopt);
}

TEST(StaticPass, UnannotatedGroupIsDynamic)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    Group &g = b.group("g");
    g.add(cellPort("x", "in"), constant(1, 8));
    g.add(cellPort("x", "write_en"), constant(1, 1));
    g.add(g.doneHole(), cellPort("x", "done"));
    // regWriteGroup sets "static"; this group deliberately does not.
    b.component().setControl(ComponentBuilder::enable("g"));
    const Component &main = ctx.component("main");
    EXPECT_EQ(StaticPass::latencyOf(main.control(), main), std::nullopt);
}

TEST(StaticPass, ExactCycleCount)
{
    // A fully static program: compiled sensitively, the whole schedule
    // is one counter. Total = 2 work cycles + done handshake cycles.
    Context sensitive = staticSeqProgram();
    uint64_t cycles_sensitive = 0;
    EXPECT_EQ(compiledReg(sensitive, "y", kSensitive, &cycles_sensitive), 2u);

    Context insensitive = staticSeqProgram();
    uint64_t cycles_insensitive = 0;
    EXPECT_EQ(compiledReg(insensitive, "y", "default", &cycles_insensitive), 2u);

    // The static schedule runs each write in exactly one cycle.
    EXPECT_LT(cycles_sensitive, cycles_insensitive);
    EXPECT_LE(cycles_sensitive, 4u);
}

TEST(StaticPass, LoopBodyBecomesStatic)
{
    // The while loop stays dynamic but its body compiles statically;
    // results must be identical and cycles should shrink.
    Context plain = counterProgram(6, 2);
    uint64_t plain_cycles = 0;
    EXPECT_EQ(compiledReg(plain, "x", "default", &plain_cycles), 12u);

    Context fast = counterProgram(6, 2);
    uint64_t fast_cycles = 0;
    EXPECT_EQ(compiledReg(fast, "x", kSensitive, &fast_cycles), 12u);
    EXPECT_LT(fast_cycles, plain_cycles);
}

TEST(StaticPass, StaticIfSelectsBranch)
{
    for (uint64_t flag : {0, 1}) {
        Context ctx;
        auto b = ComponentBuilder::create(ctx, "main");
        b.reg("f", 1);
        b.reg("x", 8);
        b.regWriteGroup("set_f", "f", constant(flag, 1));
        b.regWriteGroup("then_g", "x", constant(10, 8));
        b.regWriteGroup("else_g", "x", constant(20, 8));
        Group &cond = b.group("cond");
        cond.add(cond.doneHole(), constant(1, 1));
        cond.attrs().set(Attributes::staticAttr, 1);
        std::vector<ControlPtr> s;
        s.push_back(ComponentBuilder::enable("set_f"));
        s.push_back(ComponentBuilder::ifStmt(
            cellPort("f", "out"), "cond",
            ComponentBuilder::enable("then_g"),
            ComponentBuilder::enable("else_g")));
        b.component().setControl(ComponentBuilder::seq(std::move(s)));

        const Component &main = ctx.component("main");
        // seq(set_f, if) = 1 + (1 + max(1, 1)) = 3.
        EXPECT_EQ(StaticPass::latencyOf(main.control(), main), 3);

        EXPECT_EQ(compiledReg(ctx, "x", kSensitive), flag ? 10u : 20u);
    }
}

TEST(StaticPass, MixedStaticDynamicSqrt)
{
    // sqrt has data-dependent latency: the schedule around it must mix
    // a static prefix with a dynamic sqrt group (paper §4.4's pitch).
    auto build = [] {
        Context ctx;
        auto b = ComponentBuilder::create(ctx, "main");
        b.reg("x", 32);
        b.reg("r", 32);
        b.cell("sq", "std_sqrt", {32});
        b.regWriteGroup("init", "x", constant(1764, 32)); // 42^2
        Group &root = b.group("root");
        root.add(cellPort("sq", "in"), cellPort("x", "out"));
        root.add(cellPort("sq", "go"), constant(1, 1),
                 Guard::negate(Guard::fromPort(cellPort("sq", "done"))));
        root.add(cellPort("r", "in"), cellPort("sq", "out"),
                 Guard::fromPort(cellPort("sq", "done")));
        root.add(cellPort("r", "write_en"), constant(1, 1),
                 Guard::fromPort(cellPort("sq", "done")));
        root.add(root.doneHole(), cellPort("r", "done"));
        std::vector<ControlPtr> s;
        s.push_back(ComponentBuilder::enable("init"));
        s.push_back(ComponentBuilder::enable("root"));
        b.component().setControl(ComponentBuilder::seq(std::move(s)));
        return ctx;
    };
    Context ctx = build();
    EXPECT_EQ(compiledReg(ctx, "r", kSensitive), 42u);
    Context ctx2 = build();
    EXPECT_EQ(compiledReg(ctx2, "r", "default"), 42u);
}

TEST(StaticPass, StaticRegionInsideLoopReArms)
{
    // The static group's counter must reset between loop iterations.
    Context ctx = counterProgram(4, 5);
    EXPECT_EQ(compiledReg(ctx, "x", kSensitive), 20u);
}

} // namespace
} // namespace calyx

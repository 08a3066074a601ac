#include <gtest/gtest.h>

#include "helpers.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "sim/env.h"
#include "support/error.h"

namespace calyx {
namespace {

TEST(SimEdge, DisjointGuardedDriversAreLegal)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("f", "std_reg", {1}, ctx);
    comp.addCell("x", "std_reg", {8}, ctx);
    GuardPtr f = Guard::fromPort(cellPort("f", "out"));
    comp.continuousAssignments().emplace_back(cellPort("x", "in"),
                                              constant(1, 8), f);
    comp.continuousAssignments().emplace_back(cellPort("x", "in"),
                                              constant(2, 8),
                                              Guard::negate(f));
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    st.beginCycle();
    st.activate(sp.root().continuous);
    EXPECT_NO_THROW(st.comb());
    EXPECT_EQ(st.value("x.in"), 2u); // f resets to 0
}

TEST(SimEdge, UnknownCellPathSuggestsClosest)
{
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "default");
    sim::SimProgram prog(ctx, "main");
    try {
        prog.findModel("xx"); // actual register is "x"
        FAIL() << "expected an unknown-cell-path error";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown cell path"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    }
}

TEST(SimEdge, UnknownPortPathSuggestsClosest)
{
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "default");
    sim::SimProgram prog(ctx, "main");
    try {
        prog.portId("x.outt");
        FAIL() << "expected an unknown-port-path error";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown port path"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean 'x.out'"), std::string::npos)
            << msg;
    }
}

TEST(SimEdge, OutOfBoundsReadReturnsZero)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("m", "std_mem_d1", {8, 5, 3}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    (*sp.findModel("m")->memory())[4] = 77;
    st.beginCycle();
    st.force(sp.portId("m.addr0"), 7); // size is 5
    st.comb();
    EXPECT_EQ(st.value("m.read_data"), 0u);
}

TEST(SimEdge, OutOfBoundsWriteIsAnError)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("m", "std_mem_d1", {8, 5, 3}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    st.beginCycle();
    st.force(sp.portId("m.addr0"), 6);
    st.force(sp.portId("m.write_en"), 1);
    st.force(sp.portId("m.write_data"), 1);
    st.comb();
    EXPECT_THROW(st.clock(), Error);
}

TEST(SimEdge, DualReadPortsSeeSameContents)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("m", "std_mem_d1", {8, 4, 2}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    auto *mem = sp.findModel("m")->memory();
    (*mem)[1] = 11;
    (*mem)[3] = 33;
    st.beginCycle();
    st.force(sp.portId("m.addr0"), 1);
    st.force(sp.portId("m.addr0_1"), 3);
    st.comb();
    EXPECT_EQ(st.value("m.read_data"), 11u);
    EXPECT_EQ(st.value("m.read_data_1"), 33u);
}

TEST(SimEdge, ThreeLevelHierarchy)
{
    // leaf sets a register; mid invokes leaf; main invokes mid.
    Context ctx;
    auto lb = ComponentBuilder::create(ctx, "leaf");
    lb.reg("r", 8);
    lb.regWriteGroup("w", "r", constant(9, 8));
    lb.component().setControl(ComponentBuilder::enable("w"));

    auto mb = ComponentBuilder::create(ctx, "mid");
    mb.cell("l", "leaf", {});
    Group &invoke_l = mb.group("invoke_l");
    invoke_l.add(cellPort("l", "go"), constant(1, 1));
    invoke_l.add(invoke_l.doneHole(), cellPort("l", "done"));
    mb.component().setControl(ComponentBuilder::enable("invoke_l"));

    auto tb = ComponentBuilder::create(ctx, "main");
    tb.cell("m", "mid", {});
    Group &invoke_m = tb.group("invoke_m");
    invoke_m.add(cellPort("m", "go"), constant(1, 1));
    invoke_m.add(invoke_m.doneHole(), cellPort("m", "done"));
    tb.component().setControl(ComponentBuilder::enable("invoke_m"));

    // Both engines agree on the deep register.
    {
        sim::SimProgram sp(ctx, "main");
        sim::Interp interp(sp);
        interp.run();
        EXPECT_EQ(*sp.findModel("m/l/r")->registerValue(), 9u);
    }
    passes::runPipeline(ctx, "default");
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    cs.run();
    EXPECT_EQ(*sp.findModel("m/l/r")->registerValue(), 9u);
}

TEST(SimEdge, SubComponentReinvocationInLoop)
{
    // A sub-component invoked from inside a while loop must re-arm
    // between iterations (compilation-group reset, §4.3).
    Context ctx;
    auto pb = ComponentBuilder::create(ctx, "adder5");
    pb.reg("acc", 16);
    Group &bump = pb.group("bump");
    Component &pe = pb.component();
    pb.cell("a", "std_add", {16});
    bump.add(cellPort("a", "left"), cellPort("acc", "out"));
    bump.add(cellPort("a", "right"), constant(5, 16));
    bump.add(cellPort("acc", "in"), cellPort("a", "out"));
    bump.add(cellPort("acc", "write_en"), constant(1, 1));
    bump.add(bump.doneHole(), cellPort("acc", "done"));
    pe.setControl(ComponentBuilder::enable("bump"));

    Context loop_ctx = testing::counterProgram(4, 1);
    (void)loop_ctx; // structure reference only

    auto mb = ComponentBuilder::create(ctx, "main");
    mb.cell("p", "adder5", {});
    mb.reg("i", 8);
    mb.cell("lt", "std_lt", {8});
    mb.add("ai", 8);
    mb.regWriteGroup("init", "i", constant(0, 8));
    Group &cond = mb.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(3, 8));
    cond.add(cond.doneHole(), constant(1, 1));
    Group &call = mb.group("call");
    call.add(cellPort("p", "go"), constant(1, 1));
    call.add(call.doneHole(), cellPort("p", "done"));
    Group &step = mb.group("step");
    step.add(cellPort("ai", "left"), cellPort("i", "out"));
    step.add(cellPort("ai", "right"), constant(1, 8));
    step.add(cellPort("i", "in"), cellPort("ai", "out"));
    step.add(cellPort("i", "write_en"), constant(1, 1));
    step.add(step.doneHole(), cellPort("i", "done"));
    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("call"));
    body.push_back(ComponentBuilder::enable("step"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("init"));
    top.push_back(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    mb.component().setControl(ComponentBuilder::seq(std::move(top)));

    for (const char *spec :
         {"default", "all,-resource-sharing,-register-sharing"}) {
        Context copy = Parser::parseProgram(Printer::toString(ctx));
        passes::runPipeline(copy, spec);
        sim::SimProgram sp(copy, "main");
        sim::CycleSim cs(sp);
        cs.run();
        EXPECT_EQ(*sp.findModel("p/acc")->registerValue(), 15u)
            << spec;
    }
}

TEST(SimEdge, ForcesBeatAssignments)
{
    // Interpreter-style forces take precedence over the zero default
    // but coexist with assignments to other ports.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("x", "std_reg", {8}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    st.beginCycle();
    st.force(sp.portId("x.in"), 42);
    st.force(sp.portId("x.write_en"), 1);
    st.comb();
    st.clock();
    EXPECT_EQ(*sp.findModel("x")->registerValue(), 42u);
}

TEST(SimEdge, DeepGuardEvaluatesIteratively)
{
    // A right-leaning conjunction thousands of levels deep settles on
    // both interpreting engines. Its nested Ands flatten into one n-ary
    // And: a flat list of negated f.out tests, each of which leaves the
    // guard false when f.out is set.
    constexpr uint32_t depth = 4096;
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("f", "std_reg", {1}, ctx);
    comp.addCell("x", "std_reg", {8}, ctx);
    GuardPtr leaf = Guard::negate(Guard::fromPort(cellPort("f", "out")));
    GuardPtr chain = leaf;
    for (uint32_t i = 0; i < depth; ++i)
        chain = Guard::conj(leaf, chain);
    comp.continuousAssignments().emplace_back(cellPort("x", "in"),
                                              constant(7, 8), chain);

    for (sim::Engine engine :
         {sim::Engine::Jacobi, sim::Engine::Levelized}) {
        sim::SimProgram sp(ctx, "main");
        const sim::SExpr &g = *sp.root().continuous[0].guard;
        ASSERT_EQ(g.code.size(), depth + 1);
        for (const sim::SExpr::Test &t : g.code)
            EXPECT_EQ(t.next[1], sim::SExpr::resultFalse);
        sim::SimState st(sp, engine);
        st.reset();
        st.beginCycle();
        st.activate(sp.root().continuous);
        EXPECT_NO_THROW(st.comb());
        // f resets to 0, so every !f.out conjunct is true.
        EXPECT_EQ(st.value("x.in"), 7u);
    }
}

TEST(SimEdge, PortNameLookupErrors)
{
    Context ctx;
    ctx.addComponent("main");
    sim::SimProgram sp(ctx, "main");
    EXPECT_THROW(sp.portId("nonexistent.port"), Error);
    EXPECT_THROW(sp.findModel("ghost"), Error);
}

} // namespace
} // namespace calyx

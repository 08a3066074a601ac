#include <gtest/gtest.h>

#include "estimate/area.h"
#include "helpers.h"
#include "passes/resource_sharing.h"

namespace calyx {
namespace {

using passes::ResourceSharing;

/** The default pipeline plus resource sharing above a width threshold. */
std::string
sharingSpec(Width min_width)
{
    return "well-formed,collapse-control,infer-latency,"
           "resource-sharing[min-width=" +
           std::to_string(min_width) +
           "],go-insertion,compile-control,remove-groups,dead-cell-removal";
}

/** Two sequential groups using separate adders of the given width. */
Context
twoAdderProgram(Width width)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("r0", width);
    b.reg("r1", width);
    b.cell("a0", "std_add", {width});
    b.cell("a1", "std_add", {width});
    auto incr = [&](const std::string &name, const std::string &reg,
                    const std::string &adder) {
        Group &g = b.group(name);
        g.add(cellPort(adder, "left"), cellPort(reg, "out"));
        g.add(cellPort(adder, "right"), constant(1, width));
        g.add(cellPort(reg, "in"), cellPort(adder, "out"));
        g.add(cellPort(reg, "write_en"), constant(1, 1));
        g.add(g.doneHole(), cellPort(reg, "done"));
    };
    incr("g0", "r0", "a0");
    incr("g1", "r1", "a1");
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("g0"));
    s.push_back(ComponentBuilder::enable("g1"));
    ctx.component("main").setControl(ComponentBuilder::seq(std::move(s)));
    return ctx;
}

TEST(ShareHeuristic, ZeroThresholdSharesEverything)
{
    Context ctx = twoAdderProgram(4);
    ResourceSharing pass(0);
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 1);
}

TEST(ShareHeuristic, ThresholdSkipsNarrowUnits)
{
    Context ctx = twoAdderProgram(4);
    ResourceSharing pass(16);
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 0);
}

TEST(ShareHeuristic, ThresholdStillSharesWideUnits)
{
    Context ctx = twoAdderProgram(32);
    ResourceSharing pass(16);
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 1);
}

TEST(ShareHeuristic, PipelineOptionPreservesSemantics)
{
    const std::string spec = sharingSpec(16);
    Context ctx = twoAdderProgram(8);
    EXPECT_EQ(testing::compiledReg(ctx, "r0", spec), 1u);
    Context ctx2 = twoAdderProgram(8);
    EXPECT_EQ(testing::compiledReg(ctx2, "r1", spec), 1u);
}

TEST(ShareHeuristic, ThresholdNeverIncreasesLutsVsFullSharing)
{
    // The point of the heuristic: on a design full of narrow adders,
    // thresholded sharing should use no more LUTs than full sharing.
    auto luts = [](Width threshold) {
        Context ctx = twoAdderProgram(4);
        passes::runPipeline(ctx, sharingSpec(threshold));
        estimate::AreaEstimator est(ctx);
        return est.estimateProgram().luts;
    };
    EXPECT_LE(luts(16), luts(0));
}

} // namespace
} // namespace calyx

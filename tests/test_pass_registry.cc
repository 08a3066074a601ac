#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "passes/registry.h"
#include "support/error.h"

namespace calyx::passes {
namespace {

std::vector<std::string>
names(const PipelineSpec &spec)
{
    std::vector<std::string> out;
    for (const auto &inv : spec.passes)
        out.push_back(inv.name);
    return out;
}

/** Expect `fn` to throw an Error whose message contains every needle. */
template <typename Fn>
void
expectError(Fn fn, std::initializer_list<const char *> needles)
{
    try {
        fn();
        FAIL() << "expected an Error";
    } catch (const Error &e) {
        std::string msg = e.what();
        for (const char *needle : needles)
            EXPECT_NE(msg.find(needle), std::string::npos)
                << "message '" << msg << "' lacks '" << needle << "'";
    }
}

TEST(PassRegistry, EnumeratesAllPasses)
{
    auto &registry = PassRegistry::instance();
    std::vector<std::string> expected = {
        "collapse-control", "compile-control", "dead-cell-removal",
        "go-insertion",     "infer-latency",   "register-sharing",
        "remove-groups",    "resource-sharing", "static",
        "well-formed"};
    EXPECT_EQ(registry.passNames(), expected);
    for (const std::string &name : expected) {
        const auto *entry = registry.findPass(name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_FALSE(entry->description.empty()) << name;
        auto pass = registry.create(name);
        EXPECT_EQ(pass->name(), name);
    }
}

TEST(PassRegistry, GroupAliasExpansionIsOrdered)
{
    auto &registry = PassRegistry::instance();
    EXPECT_EQ(registry.aliasExpansion("pre-opt"),
              "collapse-control,infer-latency,resource-sharing,"
              "register-sharing");
    EXPECT_EQ(registry.aliasExpansion("compile"),
              "static,go-insertion,compile-control,remove-groups");
    EXPECT_EQ(registry.aliasExpansion("post-opt"), "dead-cell-removal");
    EXPECT_EQ(registry.aliasesOf("resource-sharing"),
              std::vector<std::string>{"pre-opt"});
}

TEST(PipelineSpec, AliasExpansionAndOrdering)
{
    PipelineSpec spec = parsePipelineSpec("all");
    EXPECT_EQ(names(spec),
              (std::vector<std::string>{
                  "well-formed", "collapse-control", "infer-latency",
                  "resource-sharing", "register-sharing", "static",
                  "go-insertion", "compile-control", "remove-groups",
                  "dead-cell-removal"}));

    // Explicit ordering is preserved verbatim, duplicates allowed.
    spec = parsePipelineSpec(
        "dead-cell-removal,collapse-control,dead-cell-removal");
    EXPECT_EQ(names(spec),
              (std::vector<std::string>{"dead-cell-removal",
                                        "collapse-control",
                                        "dead-cell-removal"}));
}

TEST(PipelineSpec, DisablingRemovesPasses)
{
    PipelineSpec spec = parsePipelineSpec("all,-collapse-control");
    std::vector<std::string> got = names(spec);
    EXPECT_EQ(std::count(got.begin(), got.end(), "collapse-control"), 0);
    EXPECT_EQ(got.size(), 9u);

    // Disabling an alias removes every member.
    spec = parsePipelineSpec("all,-pre-opt");
    got = names(spec);
    EXPECT_EQ(names(spec),
              (std::vector<std::string>{"well-formed", "static",
                                        "go-insertion", "compile-control",
                                        "remove-groups",
                                        "dead-cell-removal"}));
}

TEST(PipelineSpec, PerPassOptions)
{
    PipelineSpec spec =
        parsePipelineSpec("resource-sharing[min-width=8],remove-groups");
    ASSERT_EQ(spec.passes.size(), 2u);
    ASSERT_EQ(spec.passes[0].options.size(), 1u);
    EXPECT_EQ(spec.passes[0].options[0].first, "min-width");
    EXPECT_EQ(spec.passes[0].options[0].second, "8");
    // Round-trips through str().
    EXPECT_EQ(spec.str(), "resource-sharing[min-width=8],remove-groups");

    // Commas inside brackets do not split items.
    spec = parsePipelineSpec("resource-sharing[min-width=8,foo=bar]");
    ASSERT_EQ(spec.passes.size(), 1u);
    EXPECT_EQ(spec.passes[0].options.size(), 2u);
}

TEST(PipelineSpec, ErrorsAndSuggestions)
{
    expectError([] { parsePipelineSpec("colapse-control"); },
                {"unknown pass or alias 'colapse-control'",
                 "did you mean 'collapse-control'?"});
    expectError([] { parsePipelineSpec("all,-ressource-sharing"); },
                {"cannot disable unknown pass",
                 "did you mean 'resource-sharing'?"});
    expectError([] { parsePipelineSpec("pre-opt[min-width=8]"); },
                {"alias 'pre-opt' cannot take options"});
    expectError([] { parsePipelineSpec("resource-sharing[min-width"); },
                {"unbalanced"});
    expectError([] { parsePipelineSpec("resource-sharing[minwidth8]"); },
                {"expected key=value"});
    // Unknown option keys are rejected when the pipeline is built.
    expectError(
        [] {
            buildPassManager(
                parsePipelineSpec("resource-sharing[max-width=8]"));
        },
        {"pass 'resource-sharing' has no option 'max-width'"});
    expectError(
        [] {
            buildPassManager(
                parsePipelineSpec("resource-sharing[min-width=wide]"));
        },
        {"min-width", "non-negative integer"});
}

TEST(PipelineSpec, ApplyPassOptions)
{
    PipelineSpec spec = parsePipelineSpec("all");
    applyPassOptions(spec, "resource-sharing[min-width=8]");
    bool found = false;
    for (const auto &inv : spec.passes) {
        if (inv.name != "resource-sharing")
            continue;
        found = true;
        ASSERT_EQ(inv.options.size(), 1u);
        EXPECT_EQ(inv.options[0].first, "min-width");
        EXPECT_EQ(inv.options[0].second, "8");
    }
    EXPECT_TRUE(found);

    // Later overrides replace earlier values for the same key.
    applyPassOptions(spec, "resource-sharing[min-width=16]");
    for (const auto &inv : spec.passes)
        if (inv.name == "resource-sharing")
            EXPECT_EQ(inv.options[0].second, "16");

    // The pass must be in the pipeline.
    PipelineSpec bare = parsePipelineSpec("default");
    expectError(
        [&bare] {
            applyPassOptions(bare, "resource-sharing[min-width=8]");
        },
        {"'resource-sharing' is not in the pipeline"});
}

TEST(PipelineSpec, DefaultAliasIsTheStandardPipeline)
{
    EXPECT_EQ(parsePipelineSpec("default").str(),
              "well-formed,collapse-control,infer-latency,go-insertion,"
              "compile-control,remove-groups,dead-cell-removal");
}

TEST(PassManager, InstrumentationRecordsTimingAndStats)
{
    Context ctx = testing::counterProgram(4, 3);
    RunOptions opts;
    opts.collectStats = true;
    std::vector<PassRunInfo> infos = runPipeline(ctx, "default", opts);

    ASSERT_EQ(infos.size(), 7u);
    EXPECT_EQ(infos.front().pass, "well-formed");
    EXPECT_EQ(infos.back().pass, "dead-cell-removal");
    for (const auto &info : infos)
        EXPECT_GE(info.seconds, 0.0) << info.pass;

    // remove-groups erases every group; the deltas must show it.
    auto rg = std::find_if(infos.begin(), infos.end(), [](const auto &i) {
        return i.pass == "remove-groups";
    });
    ASSERT_NE(rg, infos.end());
    EXPECT_GT(rg->before.groups, 0);
    EXPECT_EQ(rg->after.groups, 0);
}

TEST(PassManager, DumpIrAfterNamedPass)
{
    Context ctx = testing::counterProgram(2, 2);
    std::ostringstream dump;
    RunOptions opts;
    opts.dumpIrAfter = "collapse-control";
    opts.dumpTo = &dump;
    runPipeline(ctx, "default", opts);
    EXPECT_NE(dump.str().find("// IR after pass 'collapse-control'"),
              std::string::npos);
    EXPECT_NE(dump.str().find("component main"), std::string::npos);
    // Dumped mid-pipeline: groups still exist at that point.
    EXPECT_NE(dump.str().find("group "), std::string::npos);
}

/** A deliberately broken pass for the verify-failure regression test. */
class BreakerPass final : public Pass
{
  public:
    std::string name() const override { return "breaker"; }
    void
    runOnComponent(Component &comp, Context &) override
    {
        // Width-mismatched assignment: 32-bit register input driven by
        // a 1-bit constant.
        comp.group("bump_x").add(cellPort("x", "in"), constant(1, 1));
    }
};

TEST(PassManager, VerifyFailureNamesPassAndComponent)
{
    Context ctx = testing::counterProgram(2, 2);
    PassManager pm;
    pm.add<BreakerPass>();
    expectError([&ctx, &pm] { pm.run(ctx, /*verify=*/true); },
                {"verification failed after pass 'breaker'",
                 "in component 'main'"});
}

} // namespace
} // namespace calyx::passes

#include <gtest/gtest.h>

#include "frontends/dahlia/parser.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

using workloads::Kernel;
using workloads::MemState;

/**
 * The heavyweight end-to-end matrix: every PolyBench kernel must agree
 * across three independent implementations —
 *   1. the native C++ golden reference,
 *   2. the Dahlia AST interpreter,
 *   3. the compiled Calyx design under cycle simulation —
 * in each compilation configuration.
 */
class PolybenchKernel
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    static constexpr int configInsensitive = 0;
    static constexpr int configSensitive = 1;
    static constexpr int configAllOpts = 2;
    static constexpr int configUnrolled = 3;

    static const char *
    specFor(int config)
    {
        if (config == configSensitive)
            return "all,-resource-sharing,-register-sharing";
        return config == configAllOpts ? "all" : "default";
    }
};

TEST_P(PolybenchKernel, HardwareMatchesReferenceAndInterp)
{
    auto [name, config] = GetParam();
    const Kernel &k = workloads::kernel(name);
    const std::string &src =
        config == configUnrolled ? k.unrolledSource : k.source;
    if (src.empty())
        GTEST_SKIP() << name << " is not unrollable in Dahlia";

    dahlia::Program prog = dahlia::parse(src);
    MemState inputs = workloads::makeInputs(k.name, prog);

    // Native golden reference (uses original memory names; the
    // unrolled variant has identical decl names and shapes).
    MemState golden = inputs;
    workloads::runReference(k.name, golden);

    // AST interpreter.
    MemState interp = workloads::runOnInterp(prog, inputs);
    for (const auto &[mem, data] : golden)
        ASSERT_EQ(interp.at(mem), data)
            << k.name << ": interpreter disagrees with reference on "
            << mem;

    // Compiled hardware.
    MemState hw;
    auto result = workloads::runOnHardware(
        prog, specFor(config), inputs, &hw);
    EXPECT_GT(result.cycles, 0u);
    for (const auto &[mem, data] : golden)
        EXPECT_EQ(hw.at(mem), data)
            << k.name << ": hardware disagrees with reference on "
            << mem;
}

std::vector<std::tuple<std::string, int>>
allCases()
{
    std::vector<std::tuple<std::string, int>> cases;
    for (const auto &k : workloads::kernels()) {
        cases.emplace_back(k.name, 0);
        cases.emplace_back(k.name, 1);
        cases.emplace_back(k.name, 2);
        if (!k.unrolledSource.empty())
            cases.emplace_back(k.name, 3);
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<std::tuple<std::string, int>>
             &info)
{
    static const char *config_names[] = {"insensitive", "sensitive",
                                         "allopts", "unrolled"};
    std::string name = std::get<0>(info.param);
    for (auto &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_" + config_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PolybenchKernel,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(Polybench, ExactlyElevenUnrollable)
{
    int unrollable = 0;
    for (const auto &k : workloads::kernels()) {
        if (!k.unrolledSource.empty())
            ++unrollable;
    }
    EXPECT_EQ(unrollable, 11); // paper §7.2
}

TEST(Polybench, InputDataIsDeterministicAndNonzero)
{
    auto a = workloads::inputData("gemm", "A", 64);
    auto b = workloads::inputData("gemm", "A", 64);
    EXPECT_EQ(a, b);
    auto c = workloads::inputData("gemm", "B", 64);
    EXPECT_NE(a, c);
    for (uint64_t v : a) {
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 13u);
    }
}

TEST(Polybench, SensitiveNeverSlower)
{
    // Spot-check the Sensitive pass's speedup direction on a few
    // kernels (Figure 9c's property).
    for (const char *name : {"gemm", "mvt", "trisolv"}) {
        const Kernel &k = workloads::kernel(name);
        dahlia::Program prog = dahlia::parse(k.source);
        MemState inputs = workloads::makeInputs(k.name, prog);
        auto slow =
            workloads::runOnHardware(prog, "default", inputs);
        auto fast = workloads::runOnHardware(
            prog, "all,-resource-sharing,-register-sharing", inputs);
        EXPECT_LT(fast.cycles, slow.cycles) << name;
    }
}

} // namespace
} // namespace calyx

/**
 * @file
 * §7.4 compilation statistics: compile time for the largest PolyBench
 * design (gemver), and the size of the largest design overall — the
 * 8x8 systolic array (paper: 241 cells, 224 groups, 1,744 control
 * statements, 8,906 lines of SystemVerilog generated in 0.7 s; gemver
 * compiles in 0.06 s vs 26.1 s for Vivado HLS). Uses google-benchmark
 * for the timing measurements.
 */
#include <benchmark/benchmark.h>

#include <cstdio>

#include "emit/backend.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "passes/pipeline_spec.h"
#include "support/text.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

void
BM_CompileGemver(benchmark::State &state)
{
    const auto &k = workloads::kernel("gemver");
    dahlia::Program prog = dahlia::parse(k.source);
    for (auto _ : state) {
        std::string sv = workloads::emitDesign(prog, "all", "verilog");
        benchmark::DoNotOptimize(sv);
    }
}
BENCHMARK(BM_CompileGemver)->Unit(benchmark::kMillisecond);

void
BM_CompileSystolic8x8(benchmark::State &state)
{
    for (auto _ : state) {
        Context ctx;
        systolic::Config cfg;
        cfg.rows = cfg.cols = cfg.inner = 8;
        systolic::generate(ctx, cfg);
        passes::runPipeline(ctx,
                            "all,-resource-sharing,-register-sharing");
        std::string sv =
            emit::BackendRegistry::instance().create("verilog")->emitString(
                ctx);
        benchmark::DoNotOptimize(sv);
    }
}
BENCHMARK(BM_CompileSystolic8x8)->Unit(benchmark::kMillisecond);

void
printDesignStats()
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = 8;
    systolic::generate(ctx, cfg);
    passes::DesignStats stats = passes::gatherStats(ctx);

    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
    std::string sv =
        emit::BackendRegistry::instance().create("verilog")->emitString(ctx);

    std::printf("=== §7.4 design statistics: 8x8 systolic array ===\n");
    std::printf("(paper-reported values in brackets)\n");
    std::printf("  cells:              %d [241]\n", stats.cells);
    std::printf("  groups:             %d [224]\n", stats.groups);
    std::printf("  control statements: %d [1,744]\n",
                stats.controlStatements);
    std::printf("  SystemVerilog LOC:  %d [8,906]\n",
                countLines(sv));
    std::printf("(compile times measured by the benchmarks below; "
                "paper: gemver 0.06 s vs 26.1 s Vivado HLS, systolic "
                "0.7 s)\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    printDesignStats();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

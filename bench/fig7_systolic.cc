/**
 * @file
 * Figure 7 (paper §7.1): cycle counts (7a) and LUT usage (7b) of
 * matrix-multiply systolic arrays from 2x2 to 8x8, comparing
 * latency-sensitive Calyx, latency-insensitive Calyx, and the HLS
 * baseline (a straightforward matmul kernel through the Vivado HLS
 * stand-in model; its memory-port-bound "unrolled" design degenerates
 * to sequential throughput, which the sequential schedule captures).
 *
 * Also reports §7.1's headline ratios: systolic-vs-HLS speedup/area and
 * the Sensitive pass's speedup, with latencies fully inferred (§5.3).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "estimate/area.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "hls/scheduler.h"
#include "passes/pipeline_spec.h"
#include "sim/cycle_sim.h"

using namespace calyx;

namespace {

struct Row
{
    int dim;
    uint64_t sensitive, insensitive, hls;
    double lutSensitive, lutInsensitive, lutHls;
};

/// Simulator wall-clock accumulated across every runSystolic() call,
/// for the cycles/sec summary (ISSUE 3: measure, don't assert).
uint64_t totalSimCycles = 0;
double totalSimSeconds = 0;
constexpr sim::Engine simEngine = sim::Engine::Levelized;

uint64_t
runSystolic(int dim, bool sensitive, double *luts)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = dim;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, sensitive
                                 ? "all,-resource-sharing,-register-sharing"
                                 : "default");

    estimate::AreaEstimator est(ctx);
    *luts = est.estimateProgram().luts;

    sim::SimProgram sp(ctx, "main");
    for (int i = 0; i < dim; ++i) {
        auto *l = sp.findModel(systolic::leftMemName(i))->memory();
        auto *t = sp.findModel(systolic::topMemName(i))->memory();
        for (int k = 0; k < dim; ++k) {
            (*l)[k] = i + k + 1;
            (*t)[k] = 2 * i + k + 1;
        }
    }
    sim::CycleSim cs(sp, simEngine);
    auto start = std::chrono::steady_clock::now();
    uint64_t cycles = cs.run();
    totalSimSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    totalSimCycles += cycles;
    return cycles;
}

/**
 * HLS matmul baseline for one dimension. The paper's baseline fully
 * unrolls the two outer loops: the resulting design instantiates one
 * MAC per output but is memory-port bound, so its *throughput* matches
 * the sequential schedule while its *resources* match the unrolled
 * binding. We therefore take cycles from the plain loop nest and area
 * from the outer-unrolled variant (DESIGN.md §1).
 */
hls::HlsReport
runHls(int dim)
{
    std::string n = std::to_string(dim);
    auto source = [&n](const std::string &unroll) {
        return "decl A: ubit<32>[" + n + "][" + n + "];\n" +
               "decl B: ubit<32>[" + n + "][" + n + "];\n" +
               "decl C: ubit<32>[" + n + "][" + n + "];\n" +
               "for (let i: ubit<6> = 0.." + n + ")" + unroll + " {\n" +
               "  for (let j: ubit<6> = 0.." + n + ")" + unroll +
               " {\n" +
               "    let acc: ubit<32> = 0;\n" +
               "    ---\n" +
               "    for (let k: ubit<6> = 0.." + n + ") {\n" +
               "      acc := acc + A[i][k] * B[k][j];\n" +
               "    }\n" +
               "    ---\n" +
               "    C[i][j] := acc;\n" +
               "  }\n" +
               "}\n";
    };
    dahlia::Program sequential = dahlia::parse(source(""));
    dahlia::Program unrolled =
        dahlia::parse(source(" unroll " + n));
    hls::HlsReport report = hls::scheduleProgram(sequential);
    hls::HlsReport bound = hls::scheduleProgram(unrolled);
    report.luts = bound.luts;
    report.ffs = bound.ffs;
    report.dsps = bound.dsps;
    return report;
}

double
geomean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

} // namespace

int
main()
{
    std::printf("=== Figure 7: systolic arrays vs HLS (matmul) ===\n\n");
    std::printf("Figure 7a: absolute cycle counts\n");
    std::printf("%-8s %18s %20s %8s\n", "size", "calyx-sensitive",
                "calyx-insensitive", "hls");

    std::vector<Row> rows;
    for (int dim : {2, 4, 6, 8}) {
        Row r;
        r.dim = dim;
        r.sensitive = runSystolic(dim, true, &r.lutSensitive);
        r.insensitive = runSystolic(dim, false, &r.lutInsensitive);
        hls::HlsReport h = runHls(dim);
        r.hls = h.cycles;
        r.lutHls = h.luts;
        rows.push_back(r);
        std::printf("%dx%d %20llu %20llu %8llu\n", dim, dim,
                    static_cast<unsigned long long>(r.sensitive),
                    static_cast<unsigned long long>(r.insensitive),
                    static_cast<unsigned long long>(r.hls));
    }

    std::printf("\nFigure 7b: absolute LUT usage (estimated)\n");
    std::printf("%-8s %18s %20s %8s\n", "size", "calyx-sensitive",
                "calyx-insensitive", "hls");
    for (const auto &r : rows) {
        std::printf("%dx%d %20.0f %20.0f %8.0f\n", r.dim, r.dim,
                    r.lutSensitive, r.lutInsensitive, r.lutHls);
    }

    std::vector<double> speedups, lut_factors, static_speedups,
        static_shrink;
    for (const auto &r : rows) {
        speedups.push_back(static_cast<double>(r.hls) /
                           static_cast<double>(r.sensitive));
        lut_factors.push_back(r.lutSensitive / r.lutHls);
        static_speedups.push_back(static_cast<double>(r.insensitive) /
                                  static_cast<double>(r.sensitive));
        static_shrink.push_back(r.lutInsensitive / r.lutSensitive);
    }
    const Row &last = rows.back();
    std::printf("\n§7.1 summary (paper-reported values in brackets)\n");
    std::printf("  systolic speedup over HLS, geomean: %.2fx [4.6x]\n",
                geomean(speedups));
    std::printf("  systolic LUT factor vs HLS, geomean: %.2fx [1.11x]\n",
                geomean(lut_factors));
    std::printf("  largest size: %.2fx faster [10.78x], %.2fx LUTs "
                "[1.3x]\n",
                static_cast<double>(last.hls) /
                    static_cast<double>(last.sensitive),
                last.lutSensitive / last.lutHls);
    std::printf("  Sensitive speedup (inferred latencies), geomean: "
                "%.2fx [1.9x]\n",
                geomean(static_speedups));
    std::printf("  Sensitive area ratio (insens/sens), geomean: %.2fx "
                "[1.1x]\n",
                geomean(static_shrink));
    std::printf("\nsimulator throughput (%s engine): %llu cycles in "
                "%.3fs = %.0f cycles/sec\n",
                sim::engineName(simEngine),
                static_cast<unsigned long long>(totalSimCycles),
                totalSimSeconds,
                totalSimSeconds > 0
                    ? static_cast<double>(totalSimCycles) / totalSimSeconds
                    : 0.0);
    return 0;
}

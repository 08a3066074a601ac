/**
 * @file
 * Cross-engine simulator benchmark: times every registered simulation
 * engine (sim::engineInfos() — jacobi, levelized, compiled, and
 * whatever arrives next) on the fig7 (systolic matmul) and fig8
 * (PolyBench) workloads, verifies that all engines agree on cycle
 * counts and architectural state, and writes the measurements to
 * BENCH_sim.json.
 *
 * Methodology: one SimProgram per workload is shared by every engine
 * and every repetition, so the one-time costs each engine hides behind
 * it (the levelized schedule build, the compiled engine's codegen +
 * host-compiler invocation) are paid in an untimed warmup run and the
 * timed repetitions measure steady-state simulation throughput.
 * Memories are re-seeded before each repetition, outside the timed
 * region. Reported cycles_per_sec is best-of-reps (fastest single
 * repetition): scheduler noise on a shared host only ever adds time,
 * so the minimum is the estimate stable enough to gate on.
 *
 * Each workload also times a levelized run with a no-op SimObserver
 * attached (the "observed" row), so BENCH_sim.json records the cost of
 * leaving tracing on — and, by comparison with the plain levelized
 * row, that the tracing-off path carries no residual overhead.
 * Observed and plain repetitions interleave pairwise so the overhead
 * quotient compares runs taken under the same host conditions.
 *
 * Batched throughput (sim/batch.h) is measured per workload as
 * stimuli/sec at batch sizes 1/64/4096 for each engine and thread
 * count (see benchBatched), written as the per-workload "batched"
 * rows in BENCH_sim.json.
 *
 * Partitioned single-stimulus scaling (sim/partition.h,
 * SimState::setThreads) is measured on the systolic 4/16/32 dims at
 * threads 1/2/4 (benchPartitioned), written as the "partitioned" rows;
 * --check holds compiled 4-thread systolic_16x16 to >= 1.5x its
 * single-thread row on hosts with >= 4 cores (checkPartitioned).
 *
 * Usage:
 *   bench_sim_engines [--small] [--check] [--reps N] [--out FILE]
 *                     [--max-dim N] [--baseline FILE]
 *     --small     CI smoke configuration (fewer/smaller workloads)
 *     --check     exit non-zero if compiled is slower than levelized on
 *                 any workload (the tiny configurations legitimately
 *                 let jacobi beat levelized, so that pair is not
 *                 gated), if levelized throughput regressed > 5%
 *                 against the recorded baseline, or if a batched gate
 *                 fails (checkBatched: compiled batch-4096 >= 8x
 *                 batch-1 on gemm; levelized N-thread batch-64 >= 2x
 *                 single-thread on systolic_8x8 when the host has >= 2
 *                 cores)
 *     --reps N    timing repetitions per engine (default 3)
 *     --out       output path (default BENCH_sim.json)
 *     --max-dim N skip systolic configurations larger than NxN
 *     --baseline  baseline for --check
 *                 (default bench/baselines/sim_pr6.json)
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "obs/observer.h"
#include "passes/pipeline_spec.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "support/error.h"
#include "support/json.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

/** Jacobi re-evaluates the whole netlist to a fixed point every cycle;
 * past this systolic dimension a single run takes minutes. */
constexpr int jacobiMaxDim = 8;

/** Single-repetition threshold: one timed run of a dim>=32 array is
 * seconds-to-minutes on the slower engines already. */
constexpr int singleRepDim = 32;

struct EngineRun
{
    bool ran = false;
    uint64_t cycles = 0;
    double seconds = 0; ///< Total across all repetitions.
    double best = 0;    ///< Fastest single repetition.
    int reps = 0;

    /**
     * Throughput from the fastest repetition: scheduler jitter on a
     * shared host only ever adds time, so min-of-reps is the stable
     * estimate of what the engine can do (total/seconds swings >10%
     * run to run there, which no 5%-tolerance gate survives).
     */
    double
    cps() const
    {
        return ran && best > 0 ? static_cast<double>(cycles) / best
                               : 0.0;
    }
};

/** One partitioned single-stimulus measurement (sim/partition.h):
 * cycles/sec for one (engine, thread count) cell with the macro-task
 * plan active, best-of-reps like EngineRun. The threads-1 row runs the
 * classic scalar path and anchors the scaling comparison. */
struct PartRow
{
    std::string engine;
    unsigned threads = 1;
    int reps = 0;
    uint64_t cycles = 0;
    double best = 0; ///< Fastest single repetition, seconds.

    double
    cps() const
    {
        return best > 0 ? static_cast<double>(cycles) / best : 0.0;
    }
};

/** One batched-throughput measurement: stimuli/sec for one (engine,
 * batch size, thread count) cell, best-of-reps like EngineRun. */
struct BatchRow
{
    std::string engine;
    uint32_t batchSize = 0;
    unsigned threads = 1;
    uint32_t laneTile = 0;
    int reps = 0;
    double best = 0; ///< Fastest single repetition, seconds.

    double
    stimPerSec() const
    {
        return best > 0 ? static_cast<double>(batchSize) / best : 0.0;
    }
};

struct WorkloadResult
{
    std::string name;
    uint64_t cycles = 0;
    std::vector<EngineRun> runs; ///< Indexed like sim::engineInfos().
    EngineRun observed; ///< Levelized with a no-op observer attached.
    std::vector<BatchRow> batched; ///< sim/batch.h throughput rows.
    std::vector<PartRow> partitioned; ///< sim/partition.h scaling rows.

    /** cycles/sec of the partitioned (engine, threads) row, or 0. */
    double
    partCps(const std::string &engine, unsigned threads) const
    {
        for (const PartRow &row : partitioned) {
            if (row.engine == engine && row.threads == threads)
                return row.cps();
        }
        return 0.0;
    }

    /** stimuli/sec of the (engine, batch, threads) row, or 0. */
    double
    batchStimPerSec(const std::string &engine, uint32_t batch,
                    unsigned threads) const
    {
        for (const BatchRow &row : batched) {
            if (row.engine == engine && row.batchSize == batch &&
                row.threads == threads)
                return row.stimPerSec();
        }
        return 0.0;
    }

    double
    observedCps() const
    {
        return observed.cps();
    }

    double
    cps(size_t e) const
    {
        return runs[e].cps();
    }

    /** cps(num)/cps(den), or 0 when either engine did not run. */
    double
    speedup(size_t num, size_t den) const
    {
        double n = cps(num), d = cps(den);
        return n > 0 && d > 0 ? n / d : 0.0;
    }
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

size_t
engineIndex(sim::Engine e)
{
    const auto &infos = sim::engineInfos();
    for (size_t i = 0; i < infos.size(); ++i) {
        if (infos[i].engine == e)
            return i;
    }
    fatal("bench: engine not registered");
}

/**
 * Time every usable engine on one prepared SimProgram. `seed` re-pokes
 * input memories (untimed, once per repetition); `state` snapshots
 * whatever the workload compares for cross-engine equivalence.
 */
WorkloadResult
benchProgram(const std::string &name, sim::SimProgram &sp, int reps,
             const std::function<void()> &seed,
             const std::function<std::vector<std::vector<uint64_t>>()>
                 &state,
             const std::function<bool(sim::Engine)> &skip)
{
    WorkloadResult r;
    r.name = name;
    r.runs.assign(sim::engineInfos().size(), {});

    bool have_baseline = false;
    std::vector<std::vector<uint64_t>> baseline;
    for (size_t e = 0; e < sim::engineInfos().size(); ++e) {
        sim::Engine engine = sim::engineInfos()[e].engine;
        if (skip(engine))
            continue;
        EngineRun &run = r.runs[e];
        run.reps = reps;

        // Untimed warmup: absorbs the engine's one-time costs and
        // doubles as the cross-engine equivalence check.
        seed();
        sim::CycleSim warm(sp, engine);
        run.cycles = warm.run();
        if (r.cycles == 0)
            r.cycles = run.cycles;
        if (run.cycles != r.cycles) {
            fatal(name, ": engine cycle mismatch (",
                  sim::engineName(engine), "=", run.cycles, ", expected ",
                  r.cycles, ")");
        }
        std::vector<std::vector<uint64_t>> got = state();
        if (!have_baseline) {
            baseline = std::move(got);
            have_baseline = true;
        } else if (got != baseline) {
            fatal(name, ": architectural state mismatch on ",
                  sim::engineName(engine));
        }

        // The observability cost row rides along with the levelized
        // reps: the same run with a do-nothing observer attached, so
        // BENCH_sim.json records what leaving a probe on costs (and
        // that off costs nothing — the plain reps never touch the
        // notification path). Observed and plain repetitions
        // interleave within one loop: back-to-back pairs see the same
        // host conditions, so the overhead quotient of the two bests
        // compares like with like instead of folding in whatever the
        // machine did between two separate measurement loops (the
        // separated form charged one workload +67% "overhead" that
        // was nothing but scheduler drift).
        struct NoopObserver : obs::SimObserver
        {
            void
            cycleSettled(uint64_t, const uint64_t *) override
            {
            }
        } noop;
        bool observe = engine == sim::Engine::Levelized;
        if (observe) {
            r.observed.cycles = run.cycles;
            r.observed.reps = reps;
        }
        for (int i = 0; i < reps; ++i) {
            seed();
            sim::CycleSim cs(sp, engine);
            double start = now();
            cs.run();
            double dt = now() - start;
            run.seconds += dt;
            if (run.best == 0 || dt < run.best)
                run.best = dt;
            if (!observe)
                continue;
            seed();
            sim::CycleSim ocs(sp, engine);
            ocs.state().addObserver(&noop);
            start = now();
            ocs.run();
            dt = now() - start;
            r.observed.seconds += dt;
            if (r.observed.best == 0 || dt < r.observed.best)
                r.observed.best = dt;
        }
        run.ran = true;
        if (observe)
            r.observed.ran = true;
    }
    return r;
}

/**
 * Batched-throughput rows (sim/batch.h): stimuli/sec per engine, batch
 * size, and thread count, appended to `r.batched`. One resident
 * BatchRunner per (engine, threads) pays schedule/JIT setup once —
 * exactly the `futil --serve` usage the rows are meant to predict.
 * Batch sizes: 1/64/4096 on the compiled engine (the --check gate
 * holds 4096 to >= 8x the batch-1 rate on gemm, i.e. batching must
 * amortize the fixed lane width); the levelized interpreter stops at
 * 64 — its per-stimulus cost makes a 4096 batch minutes long without
 * saying anything new. Thread counts: 1, plus the host's hardware
 * concurrency when it is >= 2.
 */
void
benchBatched(WorkloadResult &r, sim::SimProgram &sp,
             const sim::Stimulus &stim, int reps,
             const std::function<bool(sim::Engine)> &skip)
{
    unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> threadCfgs{1};
    if (hw >= 2)
        threadCfgs.push_back(hw);
    struct Cfg
    {
        sim::Engine e;
        std::vector<uint32_t> batches;
    };
    const std::vector<Cfg> cfgs = {
        {sim::Engine::Compiled, {1, 64, 4096}},
        {sim::Engine::Levelized, {1, 64}},
    };
    for (const Cfg &cfg : cfgs) {
        if (skip(cfg.e))
            continue;
        for (unsigned th : threadCfgs) {
            sim::BatchOptions bo;
            bo.engine = cfg.e;
            bo.threads = th;
            sim::BatchRunner runner(sp, bo);
            {
                // Untimed warmup: JIT load, pool spin-up, allocator.
                std::vector<sim::Stimulus> warm(1, stim);
                runner.run(warm);
            }
            for (uint32_t b : cfg.batches) {
                std::vector<sim::Stimulus> batchVec(b, stim);
                BatchRow row;
                row.engine = sim::engineName(cfg.e);
                row.batchSize = b;
                row.threads = th;
                row.laneTile = runner.options().laneTile;
                row.reps = b >= 4096 ? std::min(reps, 2) : reps;
                for (int i = 0; i < row.reps; ++i) {
                    double start = now();
                    runner.run(batchVec);
                    double dt = now() - start;
                    if (row.best == 0 || dt < row.best)
                        row.best = dt;
                }
                r.batched.push_back(std::move(row));
            }
        }
    }
}

/**
 * Partitioned single-stimulus scaling rows (sim/partition.h): one run
 * per (engine, thread count) with SimState::setThreads() active, for
 * threads 1/2/4 capped at the host's concurrency. Cycle counts are held
 * to the workload's agreed count — the rows double as a bit-identity
 * smoke for the partitioned path. The --check gate over these rows is
 * checkPartitioned().
 */
void
benchPartitioned(WorkloadResult &r, sim::SimProgram &sp,
                 const std::function<void()> &seed, int reps,
                 const std::function<bool(sim::Engine)> &skip)
{
    unsigned hw = std::thread::hardware_concurrency();
    for (sim::Engine e : {sim::Engine::Levelized, sim::Engine::Compiled}) {
        if (skip(e))
            continue;
        for (unsigned th : {1u, 2u, 4u}) {
            if (th > 1 && th > hw)
                continue;
            PartRow row;
            row.engine = sim::engineName(e);
            row.threads = th;
            row.reps = reps;

            // Untimed warmup: partition plan build, (compiled) the
            // partitioned module's JIT, pool spin-up — plus the
            // identity check against the engines' agreed cycle count.
            seed();
            sim::CycleSim warm(sp, e);
            warm.state().setThreads(th);
            row.cycles = warm.run();
            if (r.cycles != 0 && row.cycles != r.cycles) {
                fatal(r.name, ": partitioned cycle mismatch (",
                      row.engine, " x", th, "=", row.cycles,
                      ", expected ", r.cycles, ")");
            }

            for (int i = 0; i < reps; ++i) {
                seed();
                sim::CycleSim cs(sp, e);
                cs.state().setThreads(th);
                double start = now();
                cs.run();
                double dt = now() - start;
                if (row.best == 0 || dt < row.best)
                    row.best = dt;
            }
            r.partitioned.push_back(std::move(row));
        }
    }
}

WorkloadResult
benchSystolic(int dim, int reps, const std::function<bool(sim::Engine)> &skip)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = dim;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
    sim::SimProgram sp(ctx, "main");

    auto seed = [&sp, dim] {
        for (int i = 0; i < dim; ++i) {
            auto *l = sp.findModel(systolic::leftMemName(i))->memory();
            auto *t = sp.findModel(systolic::topMemName(i))->memory();
            for (int k = 0; k < dim; ++k) {
                (*l)[k] = i + k + 1;
                (*t)[k] = 2 * i + k + 1;
            }
        }
    };
    auto state = [&sp] { return sim::archState(sp); };
    auto skip_dim = [&](sim::Engine e) {
        return skip(e) ||
               (e == sim::Engine::Jacobi && dim > jacobiMaxDim);
    };
    std::string name =
        "systolic_" + std::to_string(dim) + "x" + std::to_string(dim);
    WorkloadResult r = benchProgram(
        name, sp, dim >= singleRepDim ? 1 : reps, seed, state, skip_dim);
    if (dim <= jacobiMaxDim) {
        // Batched rows for the tractable dims only (the gate workload
        // is systolic_8x8; a 64x64 batch of 64 is hours of levelized).
        sim::Stimulus stim;
        for (int i = 0; i < dim; ++i) {
            std::vector<uint64_t> l(dim), t(dim);
            for (int k = 0; k < dim; ++k) {
                l[k] = i + k + 1;
                t[k] = 2 * i + k + 1;
            }
            stim.mems.emplace_back(systolic::leftMemName(i),
                                   std::move(l));
            stim.mems.emplace_back(systolic::topMemName(i), std::move(t));
        }
        benchBatched(r, sp, stim, reps, skip_dim);
    }
    // Partitioned scaling rows on the gate dims (16/32) and on the
    // small-mode 4x4 so the CI smoke exercises the partitioned path.
    if (dim == 4 || dim == 16 || dim == 32) {
        benchPartitioned(r, sp, seed, dim >= singleRepDim ? 1 : reps,
                         skip_dim);
    }
    return r;
}

WorkloadResult
benchKernel(const std::string &name, int reps,
            const std::function<bool(sim::Engine)> &skip)
{
    const workloads::Kernel &k = workloads::kernel(name);
    dahlia::Program prog = dahlia::parse(k.source);
    workloads::MemState inputs = workloads::makeInputs(name, prog);

    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, passes::parsePipelineSpec("all"));
    sim::SimProgram sp(ctx, "main");

    auto seed = [&] { workloads::pokeInputs(sp, prog, inputs); };
    auto state = [&] {
        std::vector<std::vector<uint64_t>> flat;
        for (auto &[mem, data] : workloads::readMemories(sp, prog))
            flat.push_back(data);
        return flat;
    };
    WorkloadResult r = benchProgram(name, sp, reps, seed, state, skip);
    benchBatched(r, sp, workloads::makeStimulus(prog, inputs), reps,
                 skip);
    return r;
}

void
writeJson(const std::string &path,
          const std::vector<WorkloadResult> &results,
          double geo_lev_jac, double geo_comp_lev)
{
    size_t jac = engineIndex(sim::Engine::Jacobi);
    size_t lev = engineIndex(sim::Engine::Levelized);
    size_t comp = engineIndex(sim::Engine::Compiled);

    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    out << "{\n  \"workloads\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"cycles\": %llu,\n",
                      r.name.c_str(),
                      static_cast<unsigned long long>(r.cycles));
        out << buf;
        out << "     \"engines\": {";
        bool first = true;
        for (size_t e = 0; e < sim::engineInfos().size(); ++e) {
            if (!r.runs[e].ran)
                continue;
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"reps\": %d, \"seconds\": %.6f, "
                          "\"cycles_per_sec\": %.0f}",
                          first ? "" : ", ", sim::engineInfos()[e].name,
                          r.runs[e].reps, r.runs[e].seconds, r.cps(e));
            out << buf;
            first = false;
        }
        out << "},\n";
        if (r.observed.ran) {
            double plain = r.cps(lev), obs_cps = r.observedCps();
            double overhead =
                plain > 0 && obs_cps > 0 ? (plain / obs_cps - 1) * 100
                                         : 0.0;
            std::snprintf(buf, sizeof buf,
                          "     \"observed_levelized\": {\"reps\": %d, "
                          "\"seconds\": %.6f, \"cycles_per_sec\": %.0f, "
                          "\"overhead_pct\": %.1f},\n",
                          r.observed.reps, r.observed.seconds, obs_cps,
                          overhead);
            out << buf;
        }
        if (!r.batched.empty()) {
            out << "     \"batched\": [\n";
            for (size_t b = 0; b < r.batched.size(); ++b) {
                const BatchRow &row = r.batched[b];
                std::snprintf(
                    buf, sizeof buf,
                    "       {\"engine\": \"%s\", \"batch\": %u, "
                    "\"threads\": %u, \"lane_tile\": %u, \"reps\": %d, "
                    "\"best_seconds\": %.6f, "
                    "\"stimuli_per_sec\": %.1f}%s\n",
                    row.engine.c_str(), row.batchSize, row.threads,
                    row.laneTile, row.reps, row.best, row.stimPerSec(),
                    b + 1 < r.batched.size() ? "," : "");
                out << buf;
            }
            out << "     ],\n";
        }
        if (!r.partitioned.empty()) {
            out << "     \"partitioned\": [\n";
            for (size_t p = 0; p < r.partitioned.size(); ++p) {
                const PartRow &row = r.partitioned[p];
                std::snprintf(
                    buf, sizeof buf,
                    "       {\"engine\": \"%s\", \"threads\": %u, "
                    "\"reps\": %d, \"best_seconds\": %.6f, "
                    "\"cycles_per_sec\": %.0f}%s\n",
                    row.engine.c_str(), row.threads, row.reps, row.best,
                    row.cps(), p + 1 < r.partitioned.size() ? "," : "");
                out << buf;
            }
            out << "     ],\n";
        }
        std::snprintf(buf, sizeof buf,
                      "     \"speedup_levelized_vs_jacobi\": %.2f, "
                      "\"speedup_compiled_vs_levelized\": %.2f}%s\n",
                      r.speedup(lev, jac), r.speedup(comp, lev),
                      i + 1 < results.size() ? "," : "");
        out << buf;
    }
    char tail[160];
    std::snprintf(tail, sizeof tail,
                  "  ],\n  \"geomean_levelized_vs_jacobi\": %.2f,\n"
                  "  \"geomean_compiled_vs_levelized\": %.2f\n}\n",
                  geo_lev_jac, geo_comp_lev);
    out << tail;
}

/**
 * --check against the recorded baseline: current levelized throughput
 * may not drop more than 5% below the baseline's on any workload the
 * baseline timed long enough to trust (>= 100 ms total; shorter
 * measurements jitter past the tolerance on a loaded host). Returns
 * the number of regressions; a missing baseline file is a note, not a
 * failure (fresh clones have no recorded numbers to hold them to).
 */
int
checkBaseline(const std::string &path,
              const std::vector<WorkloadResult> &results, size_t lev)
{
    std::ifstream in(path);
    if (!in) {
        std::printf("note: no baseline at %s; skipping throughput "
                    "check\n",
                    path.c_str());
        return 0;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    json::Value doc = json::parse(ss.str());

    int regressions = 0;
    for (const auto &w : doc.at("workloads").items()) {
        const json::Value *base_lev = w.at("engines").find("levelized");
        if (!base_lev || base_lev->at("seconds").asReal() < 0.1)
            continue;
        double base_cps = base_lev->at("cycles_per_sec").asReal();
        for (const WorkloadResult &r : results) {
            if (r.name != w.at("name").asStr() || !r.runs[lev].ran)
                continue;
            double cps = r.cps(lev);
            if (cps < 0.95 * base_cps) {
                std::fprintf(stderr,
                             "FAIL %s: levelized %.0f c/s is more than "
                             "5%% below baseline %.0f c/s\n",
                             r.name.c_str(), cps, base_cps);
                ++regressions;
            }
        }
    }
    return regressions;
}

/**
 * --check gates on the batched rows. Two assertions:
 *
 *  1. Batching amortizes: on gemm, the compiled engine's batch-4096
 *     stimuli/sec must be >= 8x its batch-1 rate (single thread).
 *     Batch-1 pays a full fixed-width tile pass per stimulus
 *     (BatchOptions::laneTile), so this holds the lane machinery to
 *     actually filling its width.
 *  2. Threads scale: on systolic_8x8, levelized batch-64 with all
 *     hardware threads must be >= 2x the single-thread rate. Skipped
 *     (with a note) on single-core hosts, where no multi-thread rows
 *     exist to compare.
 *
 * Returns the number of failed gates.
 */
int
checkBatched(const std::vector<WorkloadResult> &results)
{
    int failures = 0;
    unsigned hw = std::thread::hardware_concurrency();
    for (const WorkloadResult &r : results) {
        if (r.name == "gemm") {
            double b1 = r.batchStimPerSec("compiled", 1, 1);
            double b4096 = r.batchStimPerSec("compiled", 4096, 1);
            if (b1 > 0 && b4096 > 0 && b4096 < 8.0 * b1) {
                std::fprintf(stderr,
                             "FAIL gemm: compiled batch-4096 %.1f "
                             "stimuli/s is under 8x batch-1 %.1f\n",
                             b4096, b1);
                ++failures;
            }
        }
        if (r.name == "systolic_8x8" && hw >= 2) {
            double t1 = r.batchStimPerSec("levelized", 64, 1);
            double tn = r.batchStimPerSec("levelized", 64, hw);
            if (t1 > 0 && tn > 0 && tn < 2.0 * t1) {
                std::fprintf(stderr,
                             "FAIL systolic_8x8: levelized batch-64 "
                             "with %u threads %.1f stimuli/s is under "
                             "2x single-thread %.1f\n",
                             hw, tn, t1);
                ++failures;
            }
        }
    }
    if (hw < 2)
        std::printf("note: single-core host; thread-scaling gate "
                    "skipped\n");
    return failures;
}

/**
 * --check gate on the partitioned single-stimulus rows: on
 * systolic_16x16 the compiled engine at 4 threads must deliver >= 1.5x
 * the cycles/sec of its single-thread row. Auto-skipped (with a note)
 * on hosts with fewer than 4 cores, where the 4-thread row either does
 * not exist or times oversubscribed spinning rather than scaling; also
 * vacuous when the workload or the compiled engine did not run (--small
 * stops at 4x4, toolchain-free hosts skip compiled).
 */
int
checkPartitioned(const std::vector<WorkloadResult> &results)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
        std::printf("note: host has %u core(s); partitioned-scaling "
                    "gate needs 4, skipped\n",
                    hw);
        return 0;
    }
    int failures = 0;
    for (const WorkloadResult &r : results) {
        if (r.name != "systolic_16x16")
            continue;
        double t1 = r.partCps("compiled", 1);
        double t4 = r.partCps("compiled", 4);
        if (t1 > 0 && t4 > 0 && t4 < 1.5 * t1) {
            std::fprintf(stderr,
                         "FAIL systolic_16x16: compiled partitioned "
                         "4-thread %.0f c/s is under 1.5x single-thread "
                         "%.0f c/s\n",
                         t4, t1);
            ++failures;
        }
    }
    return failures;
}

/** Geomean of per-workload speedups, over workloads where both ran. */
double
geomean(const std::vector<WorkloadResult> &results, size_t num, size_t den)
{
    double log_sum = 0;
    int n = 0;
    for (const WorkloadResult &r : results) {
        double s = r.speedup(num, den);
        if (s > 0) {
            log_sum += std::log(s);
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false, check = false;
    int reps = 3;
    int max_dim = 0;
    std::string out_path = "BENCH_sim.json";
    std::string baseline_path = "bench/baselines/sim_pr6.json";

    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--small") {
            small = true;
        } else if (args[i] == "--check") {
            check = true;
        } else if (args[i] == "--reps" && i + 1 < args.size()) {
            reps = std::max(1, std::atoi(args[++i].c_str()));
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else if (args[i] == "--max-dim" && i + 1 < args.size()) {
            max_dim = std::atoi(args[++i].c_str());
        } else if (args[i] == "--baseline" && i + 1 < args.size()) {
            baseline_path = args[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_sim_engines [--small] [--check] "
                         "[--reps N] [--out FILE] [--max-dim N] "
                         "[--baseline FILE]\n");
            return 2;
        }
    }

    // Engines come from the registry; nothing below hard-codes the set.
    const auto &engines = sim::engineInfos();
    std::string no_compiled = sim::compiledEngineUnavailableReason();
    auto skip = [&](sim::Engine e) {
        return e == sim::Engine::Compiled && !no_compiled.empty();
    };
    if (!no_compiled.empty())
        std::printf("note: skipping compiled engine: %s\n",
                    no_compiled.c_str());

    std::vector<int> dims = small
                                ? std::vector<int>{2, 4}
                                : std::vector<int>{2, 4, 6, 8, 16, 32, 64};
    if (max_dim > 0)
        std::erase_if(dims, [max_dim](int d) { return d > max_dim; });
    std::vector<std::string> kernels =
        small ? std::vector<std::string>{"gemm", "atax"}
              : std::vector<std::string>{"gemm", "atax", "mvt", "bicg"};

    std::printf("=== simulation engines:");
    for (const auto &info : engines)
        std::printf(" %s", info.name);
    std::printf(" ===\n");
    std::printf("%-14s %12s |", "workload", "cycles");
    for (const auto &info : engines)
        std::printf(" %13s", (std::string(info.name) + " c/s").c_str());
    std::printf("\n");

    std::vector<WorkloadResult> results;
    try {
        for (int dim : dims)
            results.push_back(benchSystolic(dim, reps, skip));
        for (const std::string &k : kernels)
            results.push_back(benchKernel(k, reps, skip));
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    size_t jac = engineIndex(sim::Engine::Jacobi);
    size_t lev = engineIndex(sim::Engine::Levelized);
    size_t comp = engineIndex(sim::Engine::Compiled);
    bool regression = false;
    for (const WorkloadResult &r : results) {
        std::printf("%-14s %12llu |", r.name.c_str(),
                    static_cast<unsigned long long>(r.cycles));
        for (size_t e = 0; e < engines.size(); ++e) {
            if (r.runs[e].ran)
                std::printf(" %13.0f", r.cps(e));
            else
                std::printf(" %13s", "-");
        }
        std::printf("\n");
        for (const auto &row : r.batched) {
            std::printf("  batched %-9s batch %4u x%u thread%s "
                        "(tile %2u): %10.1f stimuli/s\n",
                        row.engine.c_str(), row.batchSize, row.threads,
                        row.threads == 1 ? " " : "s", row.laneTile,
                        row.stimPerSec());
        }
        for (const auto &row : r.partitioned) {
            std::printf("  partitioned %-9s x%u thread%s: "
                        "%12.0f cycles/s\n",
                        row.engine.c_str(), row.threads,
                        row.threads == 1 ? " " : "s", row.cps());
        }
        double cl = r.speedup(comp, lev);
        if (cl > 0 && cl < 1.0)
            regression = true;
    }
    double geo_lj = geomean(results, lev, jac);
    double geo_cl = geomean(results, comp, lev);
    std::printf("geomean speedup: levelized/jacobi %.2fx, "
                "compiled/levelized %.2fx\n",
                geo_lj, geo_cl);

    double overhead_sum = 0;
    int overhead_n = 0;
    for (const WorkloadResult &r : results) {
        double plain = r.cps(lev), obs_cps = r.observedCps();
        if (plain > 0 && obs_cps > 0) {
            overhead_sum += (plain / obs_cps - 1) * 100;
            ++overhead_n;
        }
    }
    if (overhead_n > 0)
        std::printf("no-op observer overhead (levelized): %.1f%% mean "
                    "over %d workloads\n",
                    overhead_sum / overhead_n, overhead_n);

    try {
        writeJson(out_path, results, geo_lj, geo_cl);
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());

    int failures = 0;
    if (check && regression) {
        std::fprintf(stderr,
                     "FAIL: an engine is slower than its predecessor on "
                     "at least one workload\n");
        ++failures;
    }
    if (check) {
        try {
            failures += checkBaseline(baseline_path, results, lev);
        } catch (const Error &e) {
            std::fprintf(stderr, "error: bad baseline %s: %s\n",
                         baseline_path.c_str(), e.what());
            ++failures;
        }
        failures += checkBatched(results);
        failures += checkPartitioned(results);
    }
    return failures > 0 ? 1 : 0;
}

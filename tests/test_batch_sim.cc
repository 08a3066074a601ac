/**
 * Batched lane-parallel simulation (ISSUE 8): a batch of N stimuli run
 * through sim::BatchRunner must be bit-identical — cycle counts,
 * register state, memory images, per lane — to N scalar CycleSim runs,
 * on both the levelized and compiled engines, including batches whose
 * lanes take divergent control paths (a while loop bounded by a value
 * loaded from memory) and batches cut into tiles with a remainder.
 * On the compiled engine it also covers the routing between the lane
 * module (full tiles) and the scalar module (remainders, and every
 * tile issued while the lane module is still building), and a lane
 * build that fails. Also covers the work-stealing pool the tiles are
 * spread over, and the construction-time rejections (groups, the
 * Jacobi oracle).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "helpers.h"
#include "ir/parser.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "support/pool.h"
#include "support/error.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

/** Engines batching supports in this environment. */
std::vector<sim::Engine>
batchEngines()
{
    std::vector<sim::Engine> out{sim::Engine::Levelized};
    if (sim::compiledEngineUnavailableReason().empty())
        out.push_back(sim::Engine::Compiled);
    return out;
}

/** One scalar run's observable outcome, in BatchRunner slot order. */
struct ScalarRef
{
    uint64_t cycles = 0;
    std::vector<uint64_t> regs;
    std::vector<std::vector<uint64_t>> mems;
};

ScalarRef
runScalar(const Context &ctx, const sim::Stimulus &stim, sim::Engine engine)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    for (const auto &[path, data] : stim.mems) {
        std::vector<uint64_t> *mem = sp.findModel(path)->memory();
        EXPECT_NE(mem, nullptr) << path;
        std::copy(data.begin(), data.end(), mem->begin());
    }
    sim::CycleSim cs(sp, engine);
    ScalarRef r;
    r.cycles = cs.run();
    for (const auto &m : sp.models()) {
        if (auto rv = m->registerValue())
            r.regs.push_back(*rv);
        else if (const std::vector<uint64_t> *mm = m->memory())
            r.mems.push_back(*mm);
    }
    return r;
}

void
expectResultsMatch(const std::vector<sim::LaneResult> &results,
                   const std::vector<ScalarRef> &refs,
                   const std::string &label)
{
    ASSERT_EQ(results.size(), refs.size()) << label;
    for (size_t l = 0; l < refs.size(); ++l) {
        EXPECT_EQ(refs[l].cycles, results[l].cycles)
            << label << ": cycle count diverges in lane " << l;
        EXPECT_EQ(refs[l].regs, results[l].regs)
            << label << ": register state diverges in lane " << l;
        EXPECT_EQ(refs[l].mems, results[l].mems)
            << label << ": memory state diverges in lane " << l;
    }
}

std::vector<ScalarRef>
scalarRefs(const Context &ctx, const std::vector<sim::Stimulus> &batch,
           sim::Engine engine)
{
    std::vector<ScalarRef> refs;
    for (const sim::Stimulus &stim : batch)
        refs.push_back(runScalar(ctx, stim, engine));
    return refs;
}

/** Compiled runners run full tiles on the lane module once it has
 * landed; wait for it so the lane path is what gets checked. */
void
expectBatchMatchesScalar(const Context &ctx,
                         const std::vector<sim::Stimulus> &batch,
                         const sim::BatchOptions &opts,
                         const std::string &label)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchRunner runner(sp, opts);
    if (opts.engine == sim::Engine::Compiled)
        runner.awaitLaneModule();
    expectResultsMatch(runner.run(batch),
                       scalarRefs(ctx, batch, opts.engine),
                       label + " (" + sim::engineName(opts.engine) + ")");
}

/** Divergent stimuli for the data-bounded loop, one per bound. */
std::vector<sim::Stimulus>
boundStimuli(const std::vector<uint64_t> &bounds)
{
    std::vector<sim::Stimulus> batch;
    for (uint64_t b : bounds) {
        sim::Stimulus s;
        s.mems.emplace_back("bound", std::vector<uint64_t>{b});
        batch.push_back(std::move(s));
    }
    return batch;
}

/**
 * While loop whose trip count is loaded combinationally from a 1-entry
 * memory in the condition group: per-lane stimuli drive genuinely
 * divergent control — different iteration counts, cycle counts, and
 * final state per lane.
 */
const char *kDataBoundedLoop = R"(
component main() -> () {
  cells {
    bound = std_mem_d1(8, 1, 1);
    out = std_mem_d1(32, 1, 1);
    x = std_reg(32);
    i = std_reg(8);
    lt = std_lt(8);
    addx = std_add(32);
    addi = std_add(8);
  }
  wires {
    group cond {
      bound.addr0 = 1'd0;
      lt.left = i.out;
      lt.right = bound.read_data;
      cond[done] = 1'd1;
    }
    group bump_x {
      addx.left = x.out; addx.right = 32'd3;
      x.in = addx.out; x.write_en = 1'd1;
      bump_x[done] = x.done;
    }
    group bump_i {
      addi.left = i.out; addi.right = 8'd1;
      i.in = addi.out; i.write_en = 1'd1;
      bump_i[done] = i.done;
    }
    group store {
      out.addr0 = 1'd0;
      out.write_data = x.out; out.write_en = 1'd1;
      store[done] = out.done;
    }
  }
  control {
    seq {
      while lt.out with cond { seq { bump_x; bump_i; } }
      store;
    }
  }
}
)";

TEST(BatchSim, Batch64MatchesScalarOnExamples)
{
    namespace fs = std::filesystem;
    int found = 0;
    for (const auto &entry : fs::directory_iterator(CALYX_EXAMPLES_DIR)) {
        if (entry.path().extension() != ".futil")
            continue;
        ++found;
        std::ifstream in(entry.path());
        ASSERT_TRUE(in) << entry.path();
        std::stringstream buffer;
        buffer << in.rdbuf();
        Context ctx = Parser::parseProgram(buffer.str());
        passes::runPipeline(ctx, "all");
        // 64 lanes (four default-width tiles) with default-zero
        // stimuli: every lane must retire exactly like one scalar run.
        std::vector<sim::Stimulus> batch(64);
        for (sim::Engine engine : batchEngines()) {
            sim::BatchOptions opts;
            opts.engine = engine;
            expectBatchMatchesScalar(
                ctx, batch, opts, entry.path().filename().string());
        }
    }
    EXPECT_GE(found, 2) << "expected at least two examples/*.futil";
}

TEST(BatchSim, DivergentControlPathsPerLane)
{
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    // Divergent trip counts, deliberately out of order, including the
    // zero-trip edge and lanes that straddle tile boundaries.
    std::vector<sim::Stimulus> batch =
        boundStimuli({5, 0, 13, 1, 7, 2, 9, 0, 4, 11});
    for (sim::Engine engine : batchEngines()) {
        sim::BatchOptions opts;
        opts.engine = engine;
        opts.laneTile = 4; // 10 lanes -> tiles of 4, 4, and a 2-lane tail.
        opts.threads = 3;
        expectBatchMatchesScalar(ctx, batch, opts, "data-bounded loop");
    }

    // Sanity: the lanes really did diverge (distinct cycle counts).
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    auto results = sim::runBatch(sp, batch, opts);
    EXPECT_NE(results[0].cycles, results[1].cycles);
    EXPECT_NE(results[0].cycles, results[2].cycles);
    EXPECT_EQ(results[1].cycles, results[7].cycles); // Both zero-trip.
}

TEST(BatchSim, PolybenchDivergentDataPerLane)
{
    const workloads::Kernel &k = workloads::kernel("gemm");
    dahlia::Program prog = dahlia::parse(k.source);
    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, "all");

    workloads::MemState base = workloads::makeInputs("gemm", prog);
    std::vector<sim::Stimulus> batch;
    for (uint64_t lane = 0; lane < 6; ++lane) {
        workloads::MemState inputs = base;
        for (auto &[name, data] : inputs)
            for (size_t i = 0; i < data.size(); ++i)
                data[i] += lane * (i % 7);
        batch.push_back(workloads::makeStimulus(prog, inputs));
    }
    for (sim::Engine engine : batchEngines()) {
        sim::BatchOptions opts;
        opts.engine = engine;
        opts.laneTile = 4; // Two full tiles and a remainder of two.
        opts.threads = 2;
        expectBatchMatchesScalar(ctx, batch, opts, "gemm");
    }
}

/** gemm with per-stimulus data, and every example, at batch sizes
 * around the 16-lane tile: 1 and 15 (scalar only), 16 (one tile), 17
 * and 33 (tiles plus a remainder), on 1 and 3 threads. */
TEST(BatchSim, CompiledRoutingMatchesScalarAcrossBatchSizes)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    struct Case
    {
        std::string label;
        Context ctx;
        std::vector<sim::Stimulus> stimuli; ///< 33 of them.
    };
    std::vector<Case> cases;
    {
        dahlia::Program prog =
            dahlia::parse(workloads::kernel("gemm").source);
        Case c{"gemm", dahlia::compileDahlia(prog), {}};
        workloads::MemState base = workloads::makeInputs("gemm", prog);
        for (uint64_t lane = 0; lane < 33; ++lane) {
            workloads::MemState inputs = base;
            for (auto &[name, data] : inputs)
                for (size_t i = 0; i < data.size(); ++i)
                    data[i] += lane * (i % 5);
            c.stimuli.push_back(workloads::makeStimulus(prog, inputs));
        }
        cases.push_back(std::move(c));
    }
    namespace fs = std::filesystem;
    for (const auto &entry : fs::directory_iterator(CALYX_EXAMPLES_DIR)) {
        if (entry.path().extension() != ".futil")
            continue;
        std::ifstream in(entry.path());
        std::stringstream buffer;
        buffer << in.rdbuf();
        cases.push_back({entry.path().filename().string(),
                         Parser::parseProgram(buffer.str()),
                         std::vector<sim::Stimulus>(33)});
    }
    for (Case &c : cases) {
        passes::runPipeline(c.ctx, "all");
        std::vector<ScalarRef> refs =
            scalarRefs(c.ctx, c.stimuli, sim::Engine::Compiled);
        sim::SimProgram sp(c.ctx, c.ctx.entrypoint());
        for (unsigned threads : {1u, 3u}) {
            sim::BatchOptions opts;
            opts.engine = sim::Engine::Compiled;
            opts.threads = threads;
            sim::BatchRunner runner(sp, opts);
            runner.awaitLaneModule();
            for (size_t size : {1, 15, 16, 17, 33}) {
                std::vector<sim::Stimulus> batch(c.stimuli.begin(),
                                                 c.stimuli.begin() + size);
                expectResultsMatch(
                    runner.run(batch),
                    std::vector<ScalarRef>(refs.begin(), refs.begin() + size),
                    c.label + " batch " + std::to_string(size) + " x" +
                        std::to_string(threads));
            }
        }
    }
}

TEST(BatchSim, BatchDuringLaneBuildRunsOnScalar)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    testing::ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-fake-cxx");
    testing::ScopedEnv cxx(
        "CXX", testing::fakeCompiler(tools.path(), "slow-lane-cxx",
                                     "case \"$*\" in *-march=native*) "
                                     "sleep 3;; esac\n"
                                     "exec \"$REAL\" \"$@\""));
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    std::vector<sim::Stimulus> batch =
        boundStimuli({5, 0, 13, 1, 7, 2, 9, 0, 4, 11});
    std::vector<ScalarRef> refs =
        scalarRefs(ctx, batch, sim::Engine::Levelized);

    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Compiled;
    opts.laneTile = 4;
    opts.threads = 2;
    sim::BatchRunner runner(sp, opts);
    // Two full tiles start the lane build; the run does not wait for
    // it, so everything ran on the scalar module.
    expectResultsMatch(runner.run(batch), refs, "lane build in flight");
    EXPECT_EQ(runner.moduleLoads(), 1u) << "the run waited for lanes";

    runner.awaitLaneModule();
    EXPECT_EQ(runner.moduleLoads(), 2u);
    expectResultsMatch(runner.run(batch), refs, "lane module landed");
}

TEST(BatchSim, FailedLaneBuildFailsFullTilesOnly)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    testing::ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-fake-cxx");
    testing::ScopedEnv cxx(
        "CXX", testing::fakeCompiler(tools.path(), "no-lane-cxx",
                                     "case \"$*\" in *-march=native*) "
                                     "echo no lanes here >&2; exit 1;; "
                                     "esac\n"
                                     "exec \"$REAL\" \"$@\""));
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    std::vector<sim::Stimulus> tile = boundStimuli({3, 1, 4, 1});
    std::vector<sim::Stimulus> partial = boundStimuli({5, 9, 2});

    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Compiled;
    opts.laneTile = 4;
    sim::BatchRunner runner(sp, opts);
    try {
        runner.awaitLaneModule();
        FAIL() << "a failed lane build went unreported";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("no lanes here"),
                  std::string::npos)
            << e.what();
    }
    try {
        runner.run(tile);
        FAIL() << "a full tile ran without its lane module";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("lane module failed"),
                  std::string::npos)
            << e.what();
    }
    // Less than a tile still runs, on the scalar module.
    expectResultsMatch(runner.run(partial),
                       scalarRefs(ctx, partial, sim::Engine::Levelized),
                       "after a failed lane build");
    EXPECT_EQ(runner.moduleLoads(), 1u);
}

TEST(BatchSim, ResidentRunnerLoadsTwoModulesOnce)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Compiled;
    opts.laneTile = 8;
    sim::BatchRunner runner(sp, opts);
    // One full tile and a remainder: both kinds of module.
    std::vector<sim::Stimulus> batch =
        boundStimuli({0, 1, 2, 3, 4, 5, 6, 7, 8});
    runner.run(batch);
    runner.awaitLaneModule();
    EXPECT_EQ(runner.moduleLoads(), 2u);
    for (int round = 0; round < 5; ++round) {
        auto results = runner.run(batch);
        for (uint64_t b = 1; b < batch.size(); ++b)
            EXPECT_EQ(results[b].regs[0], 3 * b)
                << "round " << round << " lane " << b;
    }
    // Both modules are resident: the count does not grow with runs.
    EXPECT_EQ(runner.moduleLoads(), 2u);
}

TEST(BatchSim, RejectsJacobiAndGroups)
{
    Context lowered = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(lowered, "all");
    sim::SimProgram sp(lowered, lowered.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Jacobi;
    try {
        sim::BatchRunner runner(sp, opts);
        FAIL() << "batched runner accepted the jacobi oracle";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("jacobi"), std::string::npos)
            << e.what();
    }

    Context grouped = Parser::parseProgram(kDataBoundedLoop);
    sim::SimProgram spg(grouped, grouped.entrypoint());
    sim::BatchOptions lopts;
    lopts.engine = sim::Engine::Levelized;
    try {
        sim::BatchRunner runner(spg, lopts);
        FAIL() << "batched runner accepted a program with groups";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("lowered"), std::string::npos)
            << e.what();
    }
}

TEST(BatchSim, RejectsUnknownStimulusMemory)
{
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    std::vector<sim::Stimulus> batch(1);
    batch[0].mems.emplace_back("no_such_mem", std::vector<uint64_t>{1});
    try {
        sim::runBatch(sp, batch, opts);
        FAIL() << "unknown stimulus memory was not rejected";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_mem"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bound"), std::string::npos)
            << "diagnostic should list the known memories: " << msg;
    }
}

TEST(WorkPool, ParallelForCoversEveryIndexOnce)
{
    const size_t n = 10'000;
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto &h : hits)
        h.store(0);
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        for (auto &h : hits)
            h.store(0);
        WorkPool::global().parallelFor(n, threads, [&](size_t i) {
            hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "index " << i << " with " << threads << " threads";
    }
}

TEST(WorkPool, PropagatesFirstException)
{
    try {
        WorkPool::global().parallelFor(64, 4, [&](size_t i) {
            if (i == 13)
                fatal("boom at 13");
        });
        FAIL() << "exception was swallowed by the pool";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
    // The pool stays usable after a failed job.
    std::atomic<size_t> count{0};
    WorkPool::global().parallelFor(32, 4,
                                        [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32u);
}

} // namespace
} // namespace calyx

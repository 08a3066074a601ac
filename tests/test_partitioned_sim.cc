/**
 * Partitioned multi-threaded single-stimulus simulation: running the
 * macro-task partition plan (sim/partition.h) with
 * SimState::setThreads(N) must be bit-identical to the single-thread
 * walk — same cycle counts, same registers, same memories — on every
 * example program, PolyBench kernels, and a systolic configuration,
 * and across arbitrary partition-count targets ($CALYX_SIM_PARTITIONS).
 * Each threaded case runs twice: with every cycle forced parallel (the
 * measured policy keeps short runs serial, so only a forced schedule
 * reaches the parallel walk) and under the policy itself. The compiled
 * engine ignores the thread count and must match too. The runner's
 * serial/parallel choice may switch modes at any cycle, so a forced
 * schedule switches at every cycle index on every driver (CycleSim,
 * Interp, single-tile batch). Serialized designs must
 * degrade to a single task instead of a task-per-level plan, VCD
 * traces must stay byte-identical under threads (observer delivery is
 * a single host-side drain point), and the process-wide WorkPool must
 * cap combined occupancy instead of stacking thread counts, crews
 * included. The whole suite also runs under TSan in CI, which is what
 * actually holds the dependency-stamp and crew-phase memory model to
 * its claims.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "helpers.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "obs/vcd.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"
#include "sim/partition.h"
#include "sim/schedule.h"
#include "support/error.h"
#include "support/pool.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

namespace fs = std::filesystem;

#define SKIP_WITHOUT_TOOLCHAIN()                                          \
    do {                                                                  \
        std::string reason = sim::compiledEngineUnavailableReason();      \
        if (!reason.empty())                                              \
            GTEST_SKIP() << reason;                                       \
    } while (0)

/** Engines the partitioned path covers on this host. */
std::vector<sim::Engine>
partitionedEngines()
{
    std::vector<sim::Engine> out{sim::Engine::Levelized};
    if (sim::compiledEngineUnavailableReason().empty())
        out.push_back(sim::Engine::Compiled);
    return out;
}

struct RunResult
{
    uint64_t cycles = 0;
    std::vector<std::vector<uint64_t>> state;

    bool
    operator==(const RunResult &o) const
    {
        return cycles == o.cycles && state == o.state;
    }
};

/** One full run of a lowered context at a given thread count. */
RunResult
runContext(const Context &ctx, sim::Engine engine, unsigned threads)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::CycleSim cs(sp, engine);
    cs.state().setThreads(threads);
    RunResult r;
    r.cycles = cs.run();
    r.state = sim::archState(sp);
    return r;
}

std::string
readExample(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Temporarily set (or clear) one environment variable. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name(name)
    {
        const char *old = std::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldVal = old;
        ::setenv(name, value.c_str(), 1);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldVal.c_str(), 1);
        else
            ::unsetenv(name);
    }

  private:
    const char *name;
    bool hadOld = false;
    std::string oldVal;
};

/** Forces every runner's mode schedule for the scope (an empty
 * function keeps the measured policy). */
class ForcedSchedule
{
  public:
    explicit ForcedSchedule(std::function<bool(uint64_t)> f)
    {
        sim::PartitionRunner::forceSchedule(std::move(f));
    }
    ~ForcedSchedule() { sim::PartitionRunner::forceSchedule({}); }
};

/** How a threaded case runs: every cycle parallel, or as measured. */
std::vector<std::pair<std::string, std::function<bool(uint64_t)>>>
threadedModes()
{
    return {{"parallel", [](uint64_t) { return true; }}, {"measured", {}}};
}

// --- Bit identity: every example, both engines, threads 1 vs 2 vs 4 ----

TEST(PartitionedSim, BitIdenticalOnAllExamples)
{
    int found = 0;
    for (const auto &entry : fs::directory_iterator(CALYX_EXAMPLES_DIR)) {
        if (entry.path().extension() != ".futil")
            continue;
        ++found;
        std::string source = readExample(entry.path());
        std::string label = entry.path().filename().string();
        for (sim::Engine engine : partitionedEngines()) {
            Context base = Parser::parseProgram(source);
            passes::runPipeline(base, "all");
            RunResult scalar = runContext(base, engine, 1);
            for (unsigned threads : {2u, 4u}) {
                for (const auto &[mode, schedule] : threadedModes()) {
                    ForcedSchedule force(schedule);
                    Context ctx = Parser::parseProgram(source);
                    passes::runPipeline(ctx, "all");
                    RunResult part = runContext(ctx, engine, threads);
                    EXPECT_EQ(scalar.cycles, part.cycles)
                        << label << " (" << sim::engineName(engine)
                        << " x" << threads << ", " << mode << ")";
                    EXPECT_EQ(scalar.state, part.state)
                        << label << " (" << sim::engineName(engine)
                        << " x" << threads << ", " << mode << ")";
                }
            }
        }
    }
    EXPECT_GE(found, 2) << "expected at least two examples/*.futil";
}

// --- Bit identity: PolyBench kernels ------------------------------------

/** Compile, seed, and run one PolyBench kernel at a thread count. */
RunResult
runKernel(const std::string &name, sim::Engine engine, unsigned threads)
{
    const workloads::Kernel &k = workloads::kernel(name);
    dahlia::Program prog = dahlia::parse(k.source);
    workloads::MemState inputs = workloads::makeInputs(name, prog);
    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    workloads::pokeInputs(sp, prog, inputs);
    sim::CycleSim cs(sp, engine);
    cs.state().setThreads(threads);
    RunResult r;
    r.cycles = cs.run();
    for (auto &[mem, data] : workloads::readMemories(sp, prog))
        r.state.push_back(data);
    return r;
}

TEST(PartitionedSim, BitIdenticalOnPolybenchKernels)
{
    for (const std::string &name : {"gemm", "atax"}) {
        for (sim::Engine engine : partitionedEngines()) {
            RunResult scalar = runKernel(name, engine, 1);
            for (const auto &[mode, schedule] : threadedModes()) {
                ForcedSchedule force(schedule);
                RunResult part = runKernel(name, engine, 4);
                EXPECT_EQ(scalar.cycles, part.cycles)
                    << name << " (" << sim::engineName(engine) << ", "
                    << mode << ")";
                EXPECT_EQ(scalar.state, part.state)
                    << name << " (" << sim::engineName(engine) << ", "
                    << mode << ")";
            }
        }
    }
}

// --- Bit identity: systolic array ---------------------------------------

RunResult
runSystolic(int dim, sim::Engine engine, unsigned threads)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = dim;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
    sim::SimProgram sp(ctx, "main");
    for (int r = 0; r < dim; ++r) {
        auto *l = sp.findModel(systolic::leftMemName(r))->memory();
        auto *t = sp.findModel(systolic::topMemName(r))->memory();
        for (int k = 0; k < dim; ++k) {
            (*l)[k] = r + k + 1;
            (*t)[k] = 2 * r + k + 1;
        }
    }
    sim::CycleSim cs(sp, engine);
    cs.state().setThreads(threads);
    RunResult out;
    out.cycles = cs.run();
    out.state = sim::archState(sp);
    return out;
}

TEST(PartitionedSim, BitIdenticalOnSystolicArray)
{
    const int dim = 4;
    for (sim::Engine engine : partitionedEngines()) {
        RunResult scalar = runSystolic(dim, engine, 1);
        for (unsigned threads : {2u, 4u}) {
            for (const auto &[mode, schedule] : threadedModes()) {
                ForcedSchedule force(schedule);
                RunResult part = runSystolic(dim, engine, threads);
                EXPECT_EQ(scalar, part) << sim::engineName(engine) << " x"
                                        << threads << ", " << mode;
            }
        }
    }
}

// --- Randomized partition-count targets ---------------------------------

TEST(PartitionedSim, RandomizedPartitionCountsLevelized)
{
    std::string source = readExample(
        fs::path(CALYX_EXAMPLES_DIR) / "counter.futil");
    Context base = Parser::parseProgram(source);
    passes::runPipeline(base, "all");
    RunResult scalar = runContext(base, sim::Engine::Levelized, 1);

    // Fixed seed: the values vary across the full clamp range but the
    // test is reproducible.
    std::mt19937 rng(0xCA1F'1234);
    std::uniform_int_distribution<uint32_t> dist(1, 300);
    ForcedSchedule force([](uint64_t) { return true; });
    for (int i = 0; i < 6; ++i) {
        uint32_t target = dist(rng);
        ScopedEnv env("CALYX_SIM_PARTITIONS", std::to_string(target));
        Context ctx = Parser::parseProgram(source);
        passes::runPipeline(ctx, "all");
        RunResult part = runContext(ctx, sim::Engine::Levelized, 4);
        EXPECT_EQ(scalar, part) << "CALYX_SIM_PARTITIONS=" << target;
    }
}

TEST(PartitionedSim, NonDefaultPartitionCountCompiled)
{
    // The compiled engine runs its plain module whatever the thread
    // count and partition target.
    SKIP_WITHOUT_TOOLCHAIN();
    std::string source = readExample(
        fs::path(CALYX_EXAMPLES_DIR) / "counter.futil");
    Context base = Parser::parseProgram(source);
    passes::runPipeline(base, "all");
    RunResult scalar = runContext(base, sim::Engine::Compiled, 1);

    ScopedEnv env("CALYX_SIM_PARTITIONS", "5");
    Context ctx = Parser::parseProgram(source);
    passes::runPipeline(ctx, "all");
    RunResult part = runContext(ctx, sim::Engine::Compiled, 3);
    EXPECT_EQ(scalar, part);
}

// --- Plan shape ----------------------------------------------------------

/** Structural invariants every plan must satisfy (sim/partition.h). */
void
expectPlanWellFormed(const sim::PartitionPlan &plan, size_t num_nodes)
{
    size_t covered = 0;
    for (size_t t = 0; t < plan.tasks.size(); ++t) {
        const auto &task = plan.tasks[t];
        covered += task.nodes.size();
        for (size_t i = 0; i < task.nodes.size(); ++i) {
            ASSERT_LT(task.nodes[i], num_nodes);
            EXPECT_EQ(plan.taskOfNode[task.nodes[i]], t);
            if (i)
                EXPECT_LT(task.nodes[i - 1], task.nodes[i]);
        }
        for (size_t i = 0; i < task.deps.size(); ++i) {
            EXPECT_LT(task.deps[i], t) << "dep must be an earlier task";
            if (i)
                EXPECT_LT(task.deps[i - 1], task.deps[i]);
        }
        EXPECT_GE(task.cost, 1u);
        EXPECT_LT(task.thread, plan.threads);
    }
    EXPECT_EQ(covered, num_nodes) << "every node in exactly one task";
    size_t placed = 0;
    for (const auto &list : plan.threadTasks) {
        placed += list.size();
        for (size_t i = 1; i < list.size(); ++i)
            EXPECT_LT(list[i - 1], list[i]) << "threadTasks ascending";
    }
    EXPECT_EQ(placed, plan.tasks.size());
}

TEST(PartitionPlan, WellFormedAcrossTargetsAndThreads)
{
    Context ctx = testing::counterProgram(7, 2);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    const sim::SimSchedule &sched = sp.schedule();
    for (uint32_t target : {1u, 2u, 3u, 8u, 16u, 64u}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            sim::PartitionPlan plan =
                sim::buildPartitionPlan(sp, sched, target, threads);
            expectPlanWellFormed(plan, sched.nodes().size());
        }
    }
}

TEST(PartitionPlan, SerialChainDegradesToOneTask)
{
    // A pure dependency chain has one node per level; the chain-merge
    // must collapse it to a single task (not a task per level), so a
    // serialized design runs exactly like the scalar engine instead of
    // ping-ponging between threads.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    auto &assigns = comp.continuousAssignments();
    const int len = 12;
    for (int i = 0; i < len; ++i)
        comp.addCell("w" + std::to_string(i), "std_wire", {8}, ctx);
    assigns.emplace_back(cellPort("w0", "in"), constant(7, 8));
    for (int i = 1; i < len; ++i) {
        assigns.emplace_back(cellPort("w" + std::to_string(i), "in"),
                             cellPort("w" + std::to_string(i - 1), "out"));
    }
    sim::SimProgram sp(ctx, "main");
    const sim::SimSchedule &sched = sp.schedule();
    sim::PartitionPlan plan = sim::buildPartitionPlan(sp, sched, 16, 4);
    expectPlanWellFormed(plan, sched.nodes().size());
    EXPECT_EQ(plan.tasks.size(), 1u);
    EXPECT_FALSE(plan.parallel());
}

TEST(PartitionedSim, GuardedSccSettlesUnderThreads)
{
    // The guarded combinational cycle from the engine-equivalence
    // suite: the SCC is one condensed schedule node, so it lands in one
    // task and its Gauss-Seidel fixed point runs single-threaded inside
    // the partitioned walk.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("sel", "std_wire", {1}, ctx);
    comp.addCell("w1", "std_wire", {8}, ctx);
    comp.addCell("w2", "std_wire", {8}, ctx);
    auto &assigns = comp.continuousAssignments();
    assigns.emplace_back(cellPort("sel", "in"), constant(0, 1));
    GuardPtr on = Guard::fromPort(cellPort("sel", "out"));
    assigns.emplace_back(cellPort("w1", "in"), cellPort("w2", "out"), on);
    assigns.emplace_back(cellPort("w1", "in"), constant(5, 8),
                         Guard::negate(on));
    assigns.emplace_back(cellPort("w2", "in"), cellPort("w1", "out"));

    sim::SimProgram sp(ctx, "main");
    ForcedSchedule force([](uint64_t) { return true; });
    sim::SimState st(sp, sim::Engine::Levelized);
    st.setThreads(4);
    st.reset();
    st.beginCycle();
    st.activate(sp.root().continuous);
    st.comb();
    EXPECT_EQ(st.value(Symbol("w2.out")), 5u);
    EXPECT_EQ(st.value(Symbol("w1.out")), 5u);
}

// --- Observer determinism under threads (satellite 2) -------------------

/** Trace a freshly-lowered counter example into a VCD string. */
std::string
traceCounter(sim::Engine engine, unsigned threads)
{
    Context ctx = Parser::parseProgram(readExample(
        fs::path(CALYX_EXAMPLES_DIR) / "counter.futil"));
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    std::ostringstream os;
    obs::VcdWriter vcd(sp, os, obs::VcdScope::All);
    sim::CycleSim cs(sp, engine);
    cs.state().setThreads(threads);
    cs.state().addObserver(&vcd);
    cs.run();
    return os.str();
}

TEST(PartitionedSim, VcdByteIdenticalUnderThreadsLevelized)
{
    std::string scalar = traceCounter(sim::Engine::Levelized, 1);
    ASSERT_FALSE(scalar.empty());
    EXPECT_NE(scalar.find("$enddefinitions"), std::string::npos);
    for (const auto &[mode, schedule] : threadedModes()) {
        ForcedSchedule force(schedule);
        EXPECT_EQ(scalar, traceCounter(sim::Engine::Levelized, 4)) << mode;
    }
}

TEST(PartitionedSim, VcdByteIdenticalUnderThreadsCompiled)
{
    SKIP_WITHOUT_TOOLCHAIN();
    std::string scalar = traceCounter(sim::Engine::Compiled, 1);
    ASSERT_FALSE(scalar.empty());
    for (const auto &[mode, schedule] : threadedModes()) {
        ForcedSchedule force(schedule);
        EXPECT_EQ(scalar, traceCounter(sim::Engine::Compiled, 4)) << mode;
    }
}

// --- WorkPool occupancy (satellite 1) -----------------------------------

TEST(PartitionedPool, ConcurrentCallersDoNotStackThreads)
{
    // Two threads each request a 2-wide parallelFor at once. The pool
    // serializes jobs, so the combined participant high-water mark must
    // stay at one job's width (2) — not the 4 a per-caller thread pool
    // would spike to (the 2N oversubscription the serve host hit when
    // compile shards and sim partitions each brought their own pool).
    WorkPool::global().resetPeakParticipants();
    auto burst = [] {
        WorkPool::global().parallelFor(8, 2, [](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
    };
    std::thread a(burst), b(burst);
    a.join();
    b.join();
    EXPECT_GE(WorkPool::peakParticipants(), 1u);
    EXPECT_LE(WorkPool::peakParticipants(), 2u);
}

TEST(PartitionedPool, NestedParallelismIsCappedNotStacked)
{
    // parallelFor from inside a pool worker must run serially on that
    // worker: a partitioned clock() inside a batch tile, or a compile
    // dispatched from a worker, must not multiply the thread count.
    WorkPool::global().resetPeakParticipants();
    WorkPool::global().runConcurrent(2, [](size_t) {
        WorkPool::global().parallelFor(8, 4, [](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    });
    EXPECT_LE(WorkPool::peakParticipants(), 2u);
}

TEST(PartitionedPool, ThrowingTaskReleasesTheCrew)
{
    // A task that throws inside a crew phase: the exception reaches the
    // caller once every participant has drained, the crew stays usable
    // while held, and releasing it frees the slot for the next job.
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = 4;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
    sim::SimProgram sp(ctx, "main");
    sim::PartitionPlan plan =
        sim::buildPartitionPlan(sp, sp.schedule(), 16, 4);
    ASSERT_TRUE(plan.parallel());
    sim::PartitionRunner runner(plan);
    sim::PartitionRunner::forceSchedule([](uint64_t) { return true; });
    const uint32_t bad = static_cast<uint32_t>(plan.tasks.size() / 2);
    {
        WorkPool::Crew crew;
        ASSERT_TRUE(runner.beginCycle());
        EXPECT_THROW(runner.run(
                         [&](uint32_t task, unsigned) {
                             if (task == bad)
                                 throw std::runtime_error("task failed");
                         },
                         &crew),
                     std::runtime_error);
        std::atomic<uint32_t> ran{0};
        runner.beginCycle();
        runner.run([&](uint32_t, unsigned) { ++ran; }, &crew);
        EXPECT_EQ(ran.load(), plan.tasks.size());
    }
    sim::PartitionRunner::forceSchedule({});

    std::atomic<size_t> items{0};
    WorkPool::global().parallelFor(64, 4, [&](size_t) { ++items; });
    EXPECT_EQ(items.load(), 64u);
}

TEST(PartitionedPool, ConcurrentCallerQueuesBehindAHeldCrew)
{
    // While one thread holds a 2-wide crew, another thread's 2-wide
    // parallelFor must wait for the release instead of running beside
    // it: occupancy never exceeds one job's width.
    WorkPool::global().resetPeakParticipants();
    std::atomic<bool> held{false}, holding{false};
    std::atomic<int> overlapped{0};
    std::thread holder([&] {
        WorkPool::Crew crew;
        ASSERT_TRUE(crew.hold(2));
        holding = true;
        held = true;
        for (int phase = 0; phase < 10; ++phase) {
            crew.run([](unsigned) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            });
        }
        holding = false;
    });
    while (!held)
        std::this_thread::yield();
    WorkPool::global().parallelFor(8, 2, [&](size_t) {
        if (holding)
            ++overlapped;
    });
    holder.join();
    EXPECT_EQ(overlapped.load(), 0);
    EXPECT_LE(WorkPool::peakParticipants(), 2u);
}

// --- Measured serial/parallel choice: forced schedules -----------------

/**
 * Mode schedules over a run of `cycles` cycles: all serial, all
 * parallel, alternating every cycle, and a single switch at every
 * cycle index in both directions.
 */
std::vector<std::pair<std::string, std::function<bool(uint64_t)>>>
switchSchedules(uint64_t cycles)
{
    std::vector<std::pair<std::string, std::function<bool(uint64_t)>>> out;
    out.emplace_back("serial", [](uint64_t) { return false; });
    out.emplace_back("parallel", [](uint64_t) { return true; });
    out.emplace_back("alternating", [](uint64_t c) { return c % 2 == 1; });
    for (uint64_t k = 0; k <= cycles; ++k) {
        out.emplace_back("serial then parallel at " + std::to_string(k),
                         [k](uint64_t c) { return c >= k; });
        out.emplace_back("parallel then serial at " + std::to_string(k),
                         [k](uint64_t c) { return c < k; });
    }
    return out;
}

/** A 4x4 systolic array with seeded operands, lowered or not. */
struct Systolic4
{
    Context ctx;
    std::unique_ptr<sim::SimProgram> sp;
    sim::Stimulus stim;

    explicit Systolic4(bool lowered)
    {
        systolic::Config cfg;
        cfg.rows = cfg.cols = cfg.inner = 4;
        systolic::generate(ctx, cfg);
        if (lowered)
            passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
        sp = std::make_unique<sim::SimProgram>(ctx, "main");
        for (int r = 0; r < 4; ++r) {
            std::vector<uint64_t> l(4), t(4);
            for (int k = 0; k < 4; ++k) {
                l[k] = r + k + 1;
                t[k] = 2 * r + k + 1;
            }
            stim.mems.emplace_back(systolic::leftMemName(r), l);
            stim.mems.emplace_back(systolic::topMemName(r), t);
        }
    }

    void
    seed()
    {
        for (const auto &m : sp->models()) {
            if (std::vector<uint64_t> *mem = m->memory())
                std::fill(mem->begin(), mem->end(), 0);
        }
        for (const auto &[path, data] : stim.mems) {
            auto *mem = sp->findModel(path)->memory();
            std::copy(data.begin(), data.end(), mem->begin());
        }
    }
};

// The switch tests drive the levelized engine: the compiled engine runs
// its plain module whatever the thread count, so it has no mode to
// switch (BitIdentical* above hold it to the single-thread result).

TEST(PartitionedSim, ForcedModeSwitchesAreBitIdenticalCycleSim)
{
    Systolic4 d(true);
    ASSERT_TRUE(sim::buildPartitionPlan(*d.sp, d.sp->schedule(),
                                        sim::partitionTarget(), 4)
                    .parallel());
    auto run = [&](unsigned threads) {
        d.seed();
        sim::CycleSim cs(*d.sp, sim::Engine::Levelized);
        cs.state().setThreads(threads);
        RunResult r;
        r.cycles = cs.run();
        r.state = sim::archState(*d.sp);
        return r;
    };
    RunResult ref = run(1);
    for (const auto &[label, schedule] : switchSchedules(ref.cycles)) {
        ForcedSchedule force(schedule);
        EXPECT_EQ(ref, run(4)) << label;
    }
}

TEST(PartitionedSim, ForcedModeSwitchesAreBitIdenticalInterp)
{
    // The control interpreter activates per-group assignment sets,
    // which only the interpreting engines accept: levelized here.
    Systolic4 d(false);
    ASSERT_TRUE(d.sp->hasGroups());
    ASSERT_TRUE(sim::buildPartitionPlan(*d.sp, d.sp->schedule(),
                                        sim::partitionTarget(), 4)
                    .parallel());
    auto run = [&](unsigned threads) {
        d.seed();
        sim::Interp interp(*d.sp, sim::Engine::Levelized);
        interp.state().setThreads(threads);
        RunResult r;
        r.cycles = interp.run();
        r.state = sim::archState(*d.sp);
        return r;
    };
    RunResult ref = run(1);
    for (const auto &[label, schedule] : switchSchedules(ref.cycles)) {
        ForcedSchedule force(schedule);
        EXPECT_EQ(ref, run(4)) << label;
    }
}

TEST(PartitionedSim, ForcedModeSwitchesAreBitIdenticalSingleTileBatch)
{
    // A single-tile levelized batch with threads > 1 partitions inside
    // the tile; its serial cycles run the tile's dirty-cone queue.
    Systolic4 d(true);
    sim::BatchOptions serial;
    serial.engine = sim::Engine::Levelized;
    sim::BatchOptions threaded = serial;
    threaded.threads = 4;
    std::vector<sim::Stimulus> batch(1, d.stim);
    sim::LaneResult ref = sim::runBatch(*d.sp, batch, serial)[0];
    sim::BatchRunner runner(*d.sp, threaded);
    for (const auto &[label, schedule] : switchSchedules(ref.cycles)) {
        ForcedSchedule force(schedule);
        sim::LaneResult got = runner.run(batch)[0];
        EXPECT_EQ(ref.cycles, got.cycles) << label;
        EXPECT_EQ(ref.regs, got.regs) << label;
        EXPECT_EQ(ref.mems, got.mems) << label;
    }
}

TEST(PartitionedSim, CycleSimRunDispatchesAtMostOnce)
{
    // Comb tasks and the levelized clock split are phases of one
    // run-scoped crew: a 4-thread run publishes one pool job however
    // many cycles run in parallel, and none when every cycle is serial.
    Systolic4 d(true);
    sim::CycleSim cs(*d.sp, sim::Engine::Levelized);
    cs.state().setThreads(4);
    for (bool parallel : {true, false}) {
        ForcedSchedule force([parallel](uint64_t) { return parallel; });
        d.seed();
        WorkPool::resetDispatches();
        cs.run();
        EXPECT_EQ(WorkPool::dispatches(), parallel ? 1u : 0u);
    }
    d.seed();
    WorkPool::resetDispatches();
    cs.run();
    EXPECT_LE(WorkPool::dispatches(), 1u) << "measured";

    if (sim::compiledEngineUnavailableReason().empty()) {
        // The compiled engine ignores threads: no pool job at all.
        sim::CycleSim compiled(*d.sp, sim::Engine::Compiled);
        compiled.state().setThreads(4);
        d.seed();
        compiled.run(); // Loads the module (its build may dispatch).
        ForcedSchedule force([](uint64_t) { return true; });
        d.seed();
        WorkPool::resetDispatches();
        compiled.run();
        EXPECT_EQ(WorkPool::dispatches(), 0u) << "compiled";
    }
}

TEST(PartitionedPool, SerialStretchReleasesTheCrew)
{
    // Once a run goes serial outside a probe, its crew lets the pool go:
    // another thread's parallelFor completes while the run (and its
    // crew object) lives on, and the next parallel cycle re-engages the
    // crew with one more dispatch.
    Systolic4 d(true);
    sim::PartitionPlan plan =
        sim::buildPartitionPlan(*d.sp, d.sp->schedule(), 16, 2);
    ASSERT_TRUE(plan.parallel());
    sim::PartitionRunner runner(plan);
    ForcedSchedule force([](uint64_t c) { return c != 1; });
    WorkPool::resetDispatches();
    WorkPool::Crew crew;
    runner.restart();
    ASSERT_TRUE(runner.beginCycle(&crew));
    runner.run([](uint32_t, unsigned) {}, &crew);
    EXPECT_EQ(WorkPool::dispatches(), 1u);

    ASSERT_FALSE(runner.beginCycle(&crew));
    auto other = std::async(std::launch::async, [] {
        std::atomic<size_t> items{0};
        WorkPool::global().parallelFor(8, 2, [&](size_t) { ++items; });
        return items.load();
    });
    bool completed = other.wait_for(std::chrono::seconds(30)) ==
                     std::future_status::ready;
    EXPECT_TRUE(completed) << "parallelFor queued behind a serial run";
    if (!completed)
        crew.release(); // Unblock it before the future is joined.
    EXPECT_EQ(other.get(), 8u);

    ASSERT_TRUE(runner.beginCycle(&crew));
    std::atomic<uint32_t> ran{0};
    runner.run([&](uint32_t, unsigned) { ++ran; }, &crew);
    EXPECT_EQ(ran.load(), plan.tasks.size());
    EXPECT_EQ(WorkPool::dispatches(), 3u); // Engage, the other, re-engage.
}

} // namespace
} // namespace calyx

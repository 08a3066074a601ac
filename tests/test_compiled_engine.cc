/**
 * Compiled-engine unit tests (ISSUE 6): the cppsim backend and the JIT
 * driver behind `--sim-engine=compiled`. Covers engine-name parsing
 * with did-you-mean, backend registration, end-to-end equivalence on
 * the canonical counter program, the content-addressed disk cache
 * (second load must not recompile or add files), rejection of forces
 * on computed ports, and rejection of unlowered programs. Also the
 * loader's concurrency and distrust of disk: loads of different
 * modules overlap, loads of one module share one build, two processes
 * racing on one digest both succeed, and a truncated or foreign cached
 * object is rebuilt (while a bad fresh build is an error).
 *
 * Everything that invokes the host toolchain is skipped — not failed —
 * when compiledEngineUnavailableReason() reports no compiler.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>

#include "emit/backend.h"
#include "emit/cppsim.h"
#include "helpers.h"
#include "ir/builder.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/subprocess.h"

namespace calyx {
namespace {

namespace fs = std::filesystem;

#define SKIP_WITHOUT_TOOLCHAIN()                                          \
    do {                                                                  \
        std::string reason = sim::compiledEngineUnavailableReason();      \
        if (!reason.empty())                                              \
            GTEST_SKIP() << reason;                                       \
    } while (0)

using testing::ScopedCacheDir;

TEST(CompiledEngine, ParseEngineDidYouMean)
{
    EXPECT_EQ(sim::parseEngine("compiled"), sim::Engine::Compiled);
    EXPECT_EQ(sim::parseEngine("levelized"), sim::Engine::Levelized);
    try {
        sim::parseEngine("levelised");
        FAIL() << "unknown engine name was accepted";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("levelized"), std::string::npos)
            << "no did-you-mean suggestion: " << msg;
    }
    // The registry names every engine exactly once.
    std::vector<std::string> names = sim::engineNames();
    EXPECT_EQ(names.size(), sim::engineInfos().size());
    for (const std::string &n : names)
        EXPECT_EQ(sim::engineName(sim::parseEngine(n)), n);
}

TEST(CompiledEngine, BackendRegistered)
{
    auto &reg = emit::BackendRegistry::instance();
    ASSERT_TRUE(reg.has("cppsim"));
    const auto *entry = reg.find("cppsim");
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->requiresLowered);
    EXPECT_EQ(entry->fileExtension, ".cc");

    // Emitting a lowered program produces the C ABI the driver loads.
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "all");
    std::string src = reg.create("cppsim")->emitString(ctx);
    for (const char *sym :
         {"cppsim_abi", "cppsim_new", "cppsim_bind", "cppsim_reset",
          "cppsim_eval", "cppsim_clk", "cppsim_error"})
        EXPECT_NE(src.find(sym), std::string::npos)
            << "generated module misses " << sym;
}

TEST(CompiledEngine, RejectsUnloweredProgram)
{
    // Programs that still have groups and control cannot be compiled;
    // the backend names the problem instead of emitting garbage.
    Context ctx = testing::counterProgram(3, 2);
    std::ostringstream os;
    sim::SimProgram sp(ctx, "main");
    EXPECT_THROW(emit::emitCppSim(sp, os), Error);
}

TEST(CompiledEngine, CounterMatchesInterpretedEngines)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    Context ctx = testing::counterProgram(5, 3);
    passes::runPipeline(ctx, "all");

    uint64_t cycles[2], regs[2];
    int i = 0;
    for (sim::Engine engine :
         {sim::Engine::Levelized, sim::Engine::Compiled}) {
        sim::SimProgram sp(ctx, "main");
        sim::CycleSim cs(sp, engine);
        cycles[i] = cs.run();
        regs[i] = *sp.findModel("x")->registerValue();
        ++i;
    }
    EXPECT_EQ(regs[0], 15u);
    EXPECT_EQ(regs[1], 15u);
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(CompiledEngine, DiskCacheSkipsRecompilation)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    Context ctx = testing::counterProgram(4, 2);
    passes::runPipeline(ctx, "all");

    std::string so_path;
    size_t entries_after_first;
    {
        sim::SimProgram sp(ctx, "main");
        auto mod = sp.compiledModule();
        ASSERT_NE(mod, nullptr);
        EXPECT_FALSE(mod->fromCache()) << "first load found a stale cache";
        so_path = mod->objectPath();
        EXPECT_TRUE(fs::exists(so_path));
        entries_after_first = cache.entryCount();
    } // Release the module so the process-wide registry entry expires.

    {
        sim::SimProgram sp(ctx, "main");
        auto mod = sp.compiledModule();
        ASSERT_NE(mod, nullptr);
        EXPECT_TRUE(mod->fromCache()) << "second load recompiled";
        EXPECT_EQ(mod->objectPath(), so_path);
        // A cache hit must not leave new files behind (no temporary
        // sources, no duplicate objects).
        EXPECT_EQ(cache.entryCount(), entries_after_first);

        // The module still runs from cache.
        sim::CycleSim cs(sp, sim::Engine::Compiled);
        cs.run();
        EXPECT_EQ(*sp.findModel("x")->registerValue(), 8u);
    }
}

TEST(CompiledEngine, SharedModuleAcrossStates)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    // Two SimStates over one SimProgram share a single compiled module
    // (one codegen, one dlopen) but keep independent port values.
    Context ctx = testing::counterProgram(3, 1);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");

    sim::CycleSim a(sp, sim::Engine::Compiled);
    uint64_t cycles_a = a.run();
    sim::CycleSim b(sp, sim::Engine::Compiled);
    uint64_t cycles_b = b.run();
    EXPECT_EQ(cycles_a, cycles_b);
    EXPECT_EQ(*sp.findModel("x")->registerValue(), 3u);
}

TEST(CompiledEngine, RejectsForceOnComputedPort)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    // The generated eval() owns every driven port; forcing one would
    // silently diverge from the interpreted engines, so it is fatal
    // and names the port.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("w", "std_wire", {8}, ctx);
    comp.continuousAssignments().emplace_back(cellPort("w", "in"),
                                              constant(9, 8));

    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp, sim::Engine::Compiled);
    st.reset();
    st.beginCycle();
    st.activate(sp.root().continuous);
    st.force(sp.portId(Symbol("w.in")), 7);
    try {
        st.comb();
        FAIL() << "force on a computed port was not rejected";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("w.in"), std::string::npos) << msg;
    }
}

/** One compiler invocation seen by a logging fake $CXX. */
struct Invocation
{
    long long start = 0, stop = 0; ///< ns since the epoch.
};

/** A fake $CXX that logs "start|stop <pid> <ns>" lines to `log` around
 * a real compile, after sleeping `delay` seconds. */
std::string
loggingCompiler(const std::string &dir, const std::string &log,
                const char *delay)
{
    return testing::fakeCompiler(
        dir, "logging-cxx",
        "echo \"start $$ $(date +%s%N)\" >> '" + log + "'\n"
        "sleep " + delay + "\n"
        "\"$REAL\" \"$@\"; rc=$?\n"
        "echo \"stop $$ $(date +%s%N)\" >> '" + log + "'\n"
        "exit $rc");
}

std::vector<Invocation>
readInvocations(const std::string &log)
{
    std::map<long long, Invocation> byPid;
    std::ifstream in(log);
    std::string what;
    long long pid, ns;
    while (in >> what >> pid >> ns)
        (what == "start" ? byPid[pid].start : byPid[pid].stop) = ns;
    std::vector<Invocation> out;
    for (const auto &[pid, inv] : byPid)
        out.push_back(inv);
    return out;
}

/** Cycles and final `x` of one run of `ctx` on `engine`. */
std::pair<uint64_t, uint64_t>
runCounter(const Context &ctx, sim::Engine engine)
{
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp, engine);
    uint64_t cycles = cs.run();
    return {cycles, *sp.findModel("x")->registerValue()};
}

TEST(CompiledEngine, LoadsOfDifferentModulesOverlap)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-fake-cxx");
    std::string log = tools.path() + "/log";
    testing::ScopedEnv cxx("CXX", loggingCompiler(tools.path(), log, "0.5"));

    Context a = testing::counterProgram(4, 2);
    Context b = testing::counterProgram(6, 5);
    passes::runPipeline(a, "all");
    passes::runPipeline(b, "all");
    sim::SimProgram spa(a, "main"), spb(b, "main");
    std::string errors[2];
    auto loadOn = [&](sim::SimProgram &sp, std::string &err) {
        try {
            sim::CompiledModule::load(sp);
        } catch (const Error &e) {
            err = e.what();
        }
    };
    std::thread ta(loadOn, std::ref(spa), std::ref(errors[0]));
    std::thread tb(loadOn, std::ref(spb), std::ref(errors[1]));
    ta.join();
    tb.join();
    EXPECT_EQ(errors[0], "");
    EXPECT_EQ(errors[1], "");

    std::vector<Invocation> inv = readInvocations(log);
    ASSERT_EQ(inv.size(), 2u) << "expected one host compile per module";
    EXPECT_LT(std::max(inv[0].start, inv[1].start),
              std::min(inv[0].stop, inv[1].stop))
        << "the two builds ran one after the other";
}

TEST(CompiledEngine, LoadsOfOneModuleShareOneBuild)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-fake-cxx");
    std::string log = tools.path() + "/log";
    testing::ScopedEnv cxx("CXX", loggingCompiler(tools.path(), log, "0.3"));

    Context ctx = testing::counterProgram(4, 2);
    passes::runPipeline(ctx, "all");
    sim::SimProgram spa(ctx, "main"), spb(ctx, "main");
    std::shared_ptr<sim::CompiledModule> ma, mb;
    std::thread ta([&] { ma = sim::CompiledModule::load(spa); });
    std::thread tb([&] { mb = sim::CompiledModule::load(spb); });
    ta.join();
    tb.join();
    EXPECT_EQ(readInvocations(log).size(), 1u);
    EXPECT_EQ(ma, mb) << "one digest, two modules";
}

TEST(CompiledEngine, TwoProcessesRacingOnOneDigestBothSucceed)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-fake-cxx");
    std::string log = tools.path() + "/log";
    testing::ScopedEnv cxx("CXX", loggingCompiler(tools.path(), log, "0.5"));

    Context ctx = testing::counterProgram(7, 3);
    passes::runPipeline(ctx, "all");
    auto want = runCounter(ctx, sim::Engine::Levelized);

    pid_t kids[2];
    for (pid_t &kid : kids) {
        kid = fork();
        ASSERT_GE(kid, 0);
        if (kid == 0) {
            int code = 3;
            try {
                code = runCounter(ctx, sim::Engine::Compiled) == want ? 0 : 2;
            } catch (...) {
            }
            _exit(code);
        }
    }
    for (pid_t kid : kids) {
        int status = 0;
        ASSERT_EQ(waitpid(kid, &status, 0), kid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "2: wrong cycles or state, 3: the load failed";
    }
    // Both built (the race happened), and neither left a temporary:
    // the cache holds exactly <digest>.cc and <digest>.so.
    EXPECT_EQ(readInvocations(log).size(), 2u);
    EXPECT_EQ(cache.entryCount(), 2u);
}

/** Replace `path` with `bytes` through a new file (a new inode, so no
 * dlopen() handle still open on the old file can answer for it). */
void
replaceFile(const std::string &path, const std::string &bytes)
{
    {
        std::ofstream out(path + ".new", std::ios::binary);
        out << bytes;
    }
    fs::rename(path + ".new", path);
}

/** A shared object exporting only cppsim_abi, with a wrong version. */
std::string
foreignObject(const std::string &dir)
{
    std::string src = dir + "/foreign.cc", so = dir + "/foreign.so";
    {
        std::ofstream out(src);
        out << "extern \"C\" unsigned cppsim_abi() { return 0; }\n";
    }
    ProcessResult res = runProcess(
        {testing::hostCompilerPath(), "-shared", "-fPIC", "-o", so, src});
    EXPECT_TRUE(res.ok()) << res.output;
    std::ifstream in(so, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Load `ctx` into the empty cache, replace the cached object with
 * `bad`, and expect the next load to rebuild it and run like
 * levelized. */
void
expectBadCachedObjectRebuilt(const ScopedCacheDir &cache,
                             const std::string &bad)
{
    Context ctx = testing::counterProgram(5, 4);
    passes::runPipeline(ctx, "all");
    std::string so;
    {
        sim::SimProgram sp(ctx, "main");
        so = sp.compiledModule()->objectPath();
    } // Released: the next load goes to disk.
    replaceFile(so, bad);

    sim::SimProgram sp(ctx, "main");
    auto mod = sp.compiledModule();
    EXPECT_FALSE(mod->fromCache()) << "the bad object was trusted";
    EXPECT_EQ(runCounter(ctx, sim::Engine::Compiled),
              runCounter(ctx, sim::Engine::Levelized));
    EXPECT_EQ(cache.entryCount(), 2u);
}

TEST(CompiledEngine, TruncatedCachedObjectIsRebuilt)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    expectBadCachedObjectRebuilt(cache, std::string("\x7f" "ELF", 4));
}

TEST(CompiledEngine, ForeignCachedObjectIsRebuilt)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-foreign");
    expectBadCachedObjectRebuilt(cache, foreignObject(tools.path()));
}

TEST(CompiledEngine, BadFreshObjectIsAnError)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    testing::ScopedTempDir tools("calyx-foreign");
    foreignObject(tools.path());
    // A "compiler" that builds the foreign object whatever it is asked.
    testing::ScopedEnv cxx(
        "CXX", testing::fakeCompiler(
                   tools.path(), "foreign-cxx",
                   "out=; prev=\n"
                   "for a in \"$@\"; do [ \"$prev\" = -o ] && out=$a; "
                   "prev=$a; done\n"
                   "exec \"$REAL\" -shared -fPIC -o \"$out\" '" +
                       tools.path() + "/foreign.cc'"));

    Context ctx = testing::counterProgram(3, 3);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    try {
        sp.compiledModule();
        FAIL() << "a freshly built foreign object was accepted";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("ABI version 0"), std::string::npos) << msg;
    }
    // It never entered the cache: only the kept source is there.
    EXPECT_EQ(cache.entryCount(), 1u);
}

} // namespace
} // namespace calyx

#ifndef CALYX_TESTS_HELPERS_H
#define CALYX_TESTS_HELPERS_H

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "ir/builder.h"
#include "passes/pipeline_spec.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"
#include "support/subprocess.h"

namespace calyx::testing {

/** Set an environment variable for one scope, then restore it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld = true;
            oldVal = old;
        }
        ::setenv(name, value.c_str(), 1);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldVal.c_str(), 1);
        else
            ::unsetenv(name);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name;
    std::string oldVal;
    bool hadOld = false;
};

/** A fresh, process-unique directory under the system temp dir,
 * removed with everything in it on scope exit. */
class ScopedTempDir
{
  public:
    explicit ScopedTempDir(const std::string &tag)
    {
        dir = (std::filesystem::temp_directory_path() /
               (tag + "-" + std::to_string(::getpid())))
                  .string();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    ~ScopedTempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    const std::string &path() const { return dir; }

    size_t
    entryCount() const
    {
        size_t n = 0;
        std::error_code ec;
        for (auto it = std::filesystem::directory_iterator(dir, ec);
             !ec && it != std::filesystem::directory_iterator(); ++it)
            ++n;
        return n;
    }

  private:
    std::string dir;
};

/** Point $CALYX_CPPSIM_CACHE at a fresh directory for one scope. */
class ScopedCacheDir : public ScopedTempDir
{
  public:
    ScopedCacheDir()
        : ScopedTempDir("calyx-cppsim-test"), env("CALYX_CPPSIM_CACHE", path())
    {
    }

  private:
    ScopedEnv env;
};

/** The host C++ compiler the compiled engine picks ($CXX, else the
 * first of c++/g++/clang++ on PATH), or "". */
inline std::string
hostCompilerPath()
{
    std::string real;
    if (const char *cxx = std::getenv("CXX"); cxx && *cxx)
        real = findProgram(cxx);
    for (const char *n : {"c++", "g++", "clang++"}) {
        if (real.empty())
            real = findProgram(n);
    }
    return real;
}

/**
 * Write an executable stand-in for the host C++ compiler to
 * `dir`/`name`, for pointing $CXX at: a POSIX sh `script` that sees the
 * compiler's arguments in "$@" and the real compiler's path in $REAL.
 * Lane modules are the only builds passing -march=native, so a script
 * can single them out with `case "$*" in *-march=native*)`.
 */
inline std::string
fakeCompiler(const std::string &dir, const std::string &name,
             const std::string &script)
{
    std::string real = hostCompilerPath();
    std::string path = dir + "/" + name;
    {
        std::ofstream out(path);
        out << "#!/bin/sh\nREAL='" << real << "'\n" << script << "\n";
    }
    std::filesystem::permissions(path,
                                 std::filesystem::perms::owner_all);
    return path;
}

/**
 * Canonical test program: while (i < trip) { x += delta; i += 1 }
 * with a combinational condition group. Final x = trip * delta.
 */
inline Context
counterProgram(uint64_t trip, uint64_t delta)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 32);
    b.reg("i", 8);
    b.cell("lt", "std_lt", {8});
    b.add("addx", 32);
    b.add("addi", 8);

    Group &init = b.regWriteGroup("init", "i", constant(0, 8));
    (void)init;

    Group &cond = b.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(trip, 8));
    cond.add(cond.doneHole(), constant(1, 1));

    Group &bump_x = b.group("bump_x");
    bump_x.add(cellPort("addx", "left"), cellPort("x", "out"));
    bump_x.add(cellPort("addx", "right"), constant(delta, 32));
    bump_x.add(cellPort("x", "in"), cellPort("addx", "out"));
    bump_x.add(cellPort("x", "write_en"), constant(1, 1));
    bump_x.add(bump_x.doneHole(), cellPort("x", "done"));

    Group &bump_i = b.group("bump_i");
    bump_i.add(cellPort("addi", "left"), cellPort("i", "out"));
    bump_i.add(cellPort("addi", "right"), constant(1, 8));
    bump_i.add(cellPort("i", "in"), cellPort("addi", "out"));
    bump_i.add(cellPort("i", "write_en"), constant(1, 1));
    bump_i.add(bump_i.doneHole(), cellPort("i", "done"));

    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("bump_x"));
    body.push_back(ComponentBuilder::enable("bump_i"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("init"));
    top.push_back(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    b.component().setControl(ComponentBuilder::seq(std::move(top)));
    return ctx;
}

/** Register values after interpreting a source program. */
inline uint64_t
interpReg(Context &ctx, const std::string &reg, uint64_t *cycles = nullptr)
{
    sim::SimProgram sp(ctx, "main");
    sim::Interp interp(sp);
    uint64_t c = interp.run();
    if (cycles)
        *cycles = c;
    return *sp.findModel(reg)->registerValue();
}

/** Register value after cycle-simulating an already-compiled program. */
inline uint64_t
simulatedReg(Context &ctx, const std::string &reg, uint64_t *cycles)
{
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    uint64_t c = cs.run();
    if (cycles)
        *cycles = c;
    return *sp.findModel(reg)->registerValue();
}

/** Register value after compiling a program through a pipeline-spec
 * string and cycle-simulating it. */
inline uint64_t
compiledReg(Context &ctx, const std::string &reg,
            const std::string &spec = "default", uint64_t *cycles = nullptr)
{
    passes::runPipeline(ctx, spec);
    return simulatedReg(ctx, reg, cycles);
}

} // namespace calyx::testing

#endif // CALYX_TESTS_HELPERS_H

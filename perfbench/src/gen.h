#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "frontends/dahlia/ast.h"
#include "workloads/reference.h"

namespace perfbench {

using calyx::workloads::MemState;

/** Calyx text of a PolyBench kernel, through the Dahlia frontend. */
std::string kernelCalyx(const std::string &name, bool unrolled);

/** Calyx text of an output-stationary systolic array. */
std::string systolicCalyx(int rows, int cols, int inner);

/** Seeded input data for every memory a Dahlia program declares:
 * values in [1, 13], like workloads::inputData, so divisors stay
 * nonzero and products small. */
MemState randomInputs(const calyx::dahlia::Program &program, uint64_t seed);

/** Seeded systolic operands: A is rows x inner, B is inner x cols. */
struct SystolicInputs
{
    int rows = 0, cols = 0, inner = 0;
    std::vector<uint64_t> a, b;
};
SystolicInputs randomSystolic(int rows, int cols, int inner, uint64_t seed);

/** Software matmul reference: row-major rows x cols, 32-bit wrap. */
std::vector<uint64_t> matmul(const SystolicInputs &in);

/** One request of the compile stream. */
struct CompileOp
{
    enum Kind { FirstSeen, Repeat, Reformat, Edit };
    Kind kind = FirstSeen;
    bool systolic = false; ///< Systolic array, else PolyBench kernel.
    std::string source;
};

const char *kindName(CompileOp::Kind kind);

/**
 * The compile stream's request sequence: Calyx text of PolyBench
 * kernels (base and unrolled) and systolic arrays of seeded shapes
 * (rows, cols, inner each in 2..12). First-seen programs alternate
 * between the two; each comes from a seeded shuffle of its whole
 * range (every kernel text, every rows x cols pair), so the seed moves
 * the order and the inner dimension, not the mix of program sizes.
 * A kernel drawn again carries a dead register with a fresh name,
 * which makes it a new program. Repeats, reformats and edits take
 * their target from the kernel and the systolic programs sent so far
 * in turn. Each block of 20 requests holds,
 * in seeded order, 8 first-seen programs, 6 exact repeats of an
 * earlier request, 3 whitespace-reformatted repeats and 3 edits that
 * add one dead register to one component of an earlier program. A
 * request that needs history before any exists is first-seen instead.
 */
std::vector<CompileOp> compileStream(uint64_t seed, size_t count);

/** JSON payload of a compile request (pipeline `all`, verilog). */
std::string compilePayload(const std::string &source);

/** One request of the stimulus stream: a batch of seeded stimuli. */
struct RunOp
{
    std::vector<MemState> inputs; ///< One per stimulus, original layout.
    std::string payload;          ///< The run request's JSON.
};

/**
 * The stimulus stream's request sequence for a Dahlia program: batch
 * sizes 1, 16 and 256 (two of each per block of six, seeded order),
 * each stimulus with seeded random data.
 */
std::vector<RunOp> stimulusStream(const calyx::dahlia::Program &program,
                                  uint64_t seed, size_t count);

/** JSON payload of a run request carrying `inputs` as stimuli. */
std::string runPayload(const calyx::dahlia::Program &program,
                       const std::vector<MemState> &inputs);

} // namespace perfbench

#endif // PERFBENCH_GEN_H

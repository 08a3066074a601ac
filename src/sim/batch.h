#ifndef CALYX_SIM_BATCH_H
#define CALYX_SIM_BATCH_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/env.h"

namespace calyx::sim {

class CompiledModule;
struct PartitionPlan;
class PartitionRunner;

/**
 * One independent stimulus set for a batched run: initial memory images
 * by hierarchical cell path (the same cells workloads::pokeInputs
 * seeds). Memories not named start zeroed; images shorter than the
 * memory pad with zeros. Registers always start at zero, exactly like
 * a scalar CycleSim::run() after reset().
 */
struct Stimulus
{
    std::vector<std::pair<std::string, std::vector<uint64_t>>> mems;
};

/** Final architectural state and cycle count of one retired lane. */
struct LaneResult
{
    uint64_t cycles = 0;
    /// Final register values, register-slot order (BatchRunner::regPaths).
    std::vector<uint64_t> regs;
    /// Final memory images, memory-slot order (BatchRunner::memPaths).
    std::vector<std::vector<uint64_t>> mems;
};

struct BatchOptions
{
    Engine engine = Engine::Compiled;
    /**
     * Worker threads. Normally tiles are spread over them (1 = run on
     * the caller); when a levelized batch has a single tile (notably
     * batch size 1 — a serve run request) the threads move *inside*
     * the tile instead, running the macro-task partition plan
     * (sim/partition.h) so a lone stimulus still uses the machine
     * where that measures faster than one thread (the plan's runner
     * decides per run, on a crew held for the tile's loop). Compiled
     * batches are spread one stimulus per work item (a full tile on
     * lanes is run by its first item; see laneTile), so a batch of one
     * runs on the caller. The two levels never stack: inner
     * partitioning engages only when the outer tile loop is serial, so
     * occupancy stays at `threads` either way (see docs/simulation.md
     * "Partitioned execution").
     */
    unsigned threads = 1;
    /**
     * Lanes per tile. A batch is cut into tiles of at most this many
     * lanes; each tile is one schedule walk (levelized) or one lane
     * module pass (compiled) and one work item for the thread pool.
     *
     * The compiled engine runs full tiles at this width *fixed*, on
     * one resident lane module compiled for exactly laneTile lanes, so
     * a serve process never recompiles because request shapes vary.
     * Stimuli that cannot fill a tile (the B mod laneTile remainder)
     * run one by one on the scalar module CycleSim uses (on gemm one
     * tile pass costs about as much as a dozen scalar runs). 16 lanes
     * is the measured sweet spot on AVX-512 hosts: two 8×u64 vectors
     * per plane op, and a gemm-sized working set still L1-resident.
     * The levelized engine narrows tiles to the batch instead (its
     * interpreter cost is linear in live lanes, so padding only
     * wastes work).
     */
    uint32_t laneTile = 16;
    uint64_t maxCycles = 50'000'000;
};

/**
 * Batched lane-parallel execution of one netlist over many independent
 * stimulus sets (the ROADMAP's traffic-scale throughput item).
 *
 * Port values become lane arrays: the compiled engine runs a lane
 * module whose generated statements loop over a dense SoA plane
 * (`vals[port * lanes + lane]`, emit/cppsim.h CppSimOptions::lanes);
 * the levelized engine walks one shared dirty-node schedule over
 * lane-major value slices, with a private PrimModel set per lane for
 * stateful storage. Either way one walk of the Tarjan-condensed
 * schedule advances every lane in the tile.
 *
 * Lane divergence is handled by done-mask retirement: each cycle every
 * live lane evaluates, lanes whose `done` settles high retire
 * independently — their cycle count and architectural state snapshot
 * at exactly the point a scalar CycleSim::run() would return — and
 * their `go` drops so the retired design idles while siblings run on.
 * Per-lane results are bit-identical to scalar runs by construction;
 * tests/test_batch_sim.cc holds every lane of a batch to that.
 *
 * Tiles own disjoint state, so they parallelize over the work-stealing
 * pool (support/pool.h) without locks.
 *
 * A BatchRunner is resident: construction resolves the schedule and
 * the driver tables once, and run() reuses them for every subsequent
 * batch — the object `futil --serve` keeps alive across requests.
 * Compiled modules load lazily. The first run with a remainder fetches
 * the scalar module (SimProgram::compiledModule()) on the calling
 * thread; the first run with a full tile starts the lane module's
 * build on a background thread and never waits for it. Until it lands,
 * full tiles run stimulus by stimulus on the scalar module; each tile
 * begun after it lands runs on lanes. A failed lane build fails every
 * later run that has a full tile (batches below one tile keep
 * running). The destructor joins a build in flight.
 *
 * Construction fatal()s on programs with groups (batching needs
 * fully-lowered programs) and on Engine::Jacobi (the oracle stays
 * scalar); run() fatal()s on anything CompiledModule::load rejects.
 * Observers are rejected by design: batched runs have no probe hookup
 * (docs/simulation.md, docs/observability.md).
 */
class BatchRunner
{
  public:
    BatchRunner(const SimProgram &prog, const BatchOptions &opts);
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /** Run every stimulus to completion; results in batch order. */
    std::vector<LaneResult> run(const std::vector<Stimulus> &batch);

    /** Cell path per LaneResult::regs slot. */
    const std::vector<std::string> &regPaths() const { return regPathList; }
    /** Cell path per LaneResult::mems slot. */
    const std::vector<std::string> &memPaths() const { return memPathList; }

    /** Flattened word count of memory slot `m`. */
    uint64_t memSize(size_t m) const { return memSizes[m]; }

    /** JIT modules loaded so far (compiled engine): at most two, the
     * scalar module and the lane module, however many runs follow. */
    uint64_t moduleLoads() const;

    /** True when every load so far was served from the on-disk object
     * cache without invoking the host compiler. */
    bool modulesFromCache() const;

    /**
     * Start the lane module's build if no run has, and block until it
     * lands; fatal() if it failed. run() never waits for the build:
     * this is for callers that must time or test the lane path itself.
     */
    void awaitLaneModule();

    const BatchOptions &options() const { return opts; }

  private:
    struct LevelizedPlan;

    void runCompiledTile(const std::vector<Stimulus> &batch, size_t start,
                         uint32_t lanes,
                         const CompiledModule &mod,
                         std::vector<LaneResult> &out);
    void runLevelizedTile(const std::vector<Stimulus> &batch, size_t start,
                          size_t count, PartitionRunner *runner,
                          std::vector<LaneResult> &out);
    void runCompiled(const std::vector<Stimulus> &batch,
                     std::vector<LaneResult> &out);
    void startLaneBuild();

    /// Per-memory-slot lane image for one stimulus (resolved indices).
    std::vector<std::vector<uint64_t>> seedImages(const Stimulus &s) const;

    const SimProgram *prog;
    BatchOptions opts;

    // Stateful-slot maps, model order (mirrors emit/cppsim.cc).
    std::vector<size_t> regModelIdx, memModelIdx;
    std::vector<std::string> regPathList, memPathList;
    std::vector<uint64_t> memSizes;
    std::map<std::string, size_t> memSlotByPath;

    // Compiled engine only. The scalar module is set on the calling
    // thread. The lane module is set by the `laneBuild` thread before
    // it publishes Ready or Failed (release); read it only after an
    // acquire load of `laneState` says so.
    enum class LaneState : uint8_t { Idle, Building, Ready, Failed };
    std::shared_ptr<CompiledModule> scalarModule;
    std::shared_ptr<CompiledModule> laneModule;
    std::string laneError;
    std::atomic<LaneState> laneState{LaneState::Idle};
    std::thread laneBuild;

    std::unique_ptr<LevelizedPlan> plan; ///< Levelized engine only.

    /// Intra-tile macro-task plan (levelized), built lazily the first
    /// time a run has a single tile and threads > 1 (see
    /// BatchOptions::threads).
    std::unique_ptr<PartitionPlan> innerPlan;
    std::unique_ptr<PartitionRunner> innerRunner;
};

/** One-shot convenience over a temporary BatchRunner. */
std::vector<LaneResult> runBatch(const SimProgram &prog,
                                 const std::vector<Stimulus> &batch,
                                 const BatchOptions &opts);

} // namespace calyx::sim

#endif // CALYX_SIM_BATCH_H

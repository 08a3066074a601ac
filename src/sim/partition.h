#ifndef CALYX_SIM_PARTITION_H
#define CALYX_SIM_PARTITION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/pool.h"

namespace calyx::sim {

class SimProgram;
class SimSchedule;

/**
 * MTask-style macro-task partition of the levelized evaluation
 * schedule (the verilator technique): the Tarjan-condensed schedule
 * nodes are clustered into coarse cost-modeled tasks over the level
 * DAG, then list-scheduled onto a fixed number of threads with
 * critical-path priority. One plan drives both engines — the levelized
 * interpreter walks Task::nodes directly, and the compiled backend
 * emits one generated function per task (emit/cppsim.h) whose
 * dependency tables the host re-reads into this same structure.
 *
 * Invariants the execution model relies on:
 *  - tasks are topologically ordered: every Task::deps entry is a
 *    smaller task id;
 *  - a schedule node appears in exactly one task, and the nodes inside
 *    a task are in ascending (schedule/topological) order;
 *  - an SCC node never splits across tasks, so its Gauss-Seidel fixed
 *    point runs single-threaded exactly like the scalar engine;
 *  - each threadTasks[w] list is ascending in task id, so executing a
 *    thread's list in order — spin-waiting on cross-thread deps — can
 *    never deadlock: every dependency edge and every intra-thread
 *    ordering edge increases the task id.
 */
struct PartitionPlan
{
    struct Task
    {
        std::vector<uint32_t> nodes; ///< Schedule node ids, ascending.
        std::vector<uint32_t> deps;  ///< Earlier task ids, ascending.
        uint64_t cost = 1;           ///< Estimated evaluation cost.
        uint32_t thread = 0;         ///< Owning thread in the plan.
    };

    std::vector<Task> tasks;          ///< Topologically ordered.
    std::vector<uint32_t> taskOfNode; ///< Schedule node id -> task id.
    /// Static per-thread execution order (ascending task ids).
    std::vector<std::vector<uint32_t>> threadTasks;
    unsigned threads = 1;

    /** True when the plan actually fans out. */
    bool parallel() const { return threads > 1 && tasks.size() > 1; }
};

/**
 * Partition grain target: roughly how many equal-cost slices the total
 * schedule cost is cut into per level run. $CALYX_SIM_PARTITIONS
 * (clamped to [1, 256]) overrides the default of 16. Deliberately a
 * pure function of the environment — never of --threads or the host's
 * core count — so the compiled engine's partitioned module (whose
 * source embeds the plan) has one digest per design and thread counts
 * 2 and 4 share one cached .so.
 */
uint32_t partitionTarget();

/**
 * Build the macro-task plan for `sched`: per-node costs from the
 * static driver/guard/model shape of `prog`, longest-path levels over
 * the node DAG, cost-capped clustering inside each level (ordered by
 * predecessor-task affinity to keep cross-partition port edges low),
 * and a chain-merge of consecutive single-task levels so serialized
 * designs degrade to few (down to one) tasks instead of a task per
 * level. Finishes with assignThreads(plan, threads).
 */
PartitionPlan buildPartitionPlan(const SimProgram &prog,
                                 const SimSchedule &sched,
                                 uint32_t target, unsigned threads);

/**
 * Critical-path-aware list scheduling of plan.tasks onto `threads`
 * workers: tasks are simulated in priority order (longest path of cost
 * to a sink first), each placed on the worker that can start it
 * earliest. Fills Task::thread, plan.threadTasks (ascending ids), and
 * plan.threads (clamped to the task count). Also used standalone on
 * plans rebuilt from a compiled module's dependency tables.
 */
void assignThreads(PartitionPlan &plan, unsigned threads);

/**
 * Cycle executor for a PartitionPlan, and the policy that decides
 * whether a cycle runs it in parallel at all.
 *
 * Parallel mode runs `fn(task, worker)` for every task, honoring
 * dependencies with per-task atomic completion stamps (one cache line
 * each) — no global barrier per level. Each worker executes its static
 * threadTasks list in order on a dedicated participant, waiting (a
 * bounded spin, then blocking on the stamp) until each cross-thread
 * dependency's stamp reaches the current run.
 * The participants are a run-scoped WorkPool::Crew when the caller
 * lends one (one pool dispatch per run while parallel keeps winning;
 * a run that settles on serial releases the crew and re-engages it at
 * its next probe), else a WorkPool::runConcurrent per cycle. Memory
 * model: a task's writes are release-published by its
 * stamp store and acquire-consumed by every dependent's spin load, so a
 * task may read any value written by its transitive dependencies and
 * must write only state no concurrent task reads (see
 * docs/simulation.md). Serial mode is the driver's own scalar walk
 * (the levelized dirty-cone walk, SimState's or a batch tile's); run()
 * itself runs the tasks in id order on the caller (still correct: task
 * order is topological) when called in a serial cycle or from inside
 * pool work (nested parallelism is capped, not stacked).
 *
 * The mode is measured, not configured: `--threads N` is an upper
 * bound. beginCycle() times whole cycles — everything between two
 * calls, so the driver's clock edge and bookkeeping count too — over a
 * probe window of 6 serial then 6 parallel cycles, and the run goes on
 * in parallel only if parallel's measured cycles took at most 0.9x as
 * long in total as serial's (stalled cycles included: they are what
 * parallel costs on a loaded host). The first probe starts once the run (from restart()) has
 * lasted 16 ms, so runs too short to repay a probe stay serial; each
 * later probe waits until the run time has doubled, so a run whose
 * balance shifts is caught while a long steady run pays O(log time)
 * probes. A serial run whose cycles are shorter than 25 us skips the
 * probe (too little work per cycle to cover the synchronisation) and
 * looks again at the next doubling. A parallel stretch is also checked as it runs: a window of
 * at least 2 ms and 8 cycles whose mean cycle is slower than the
 * probe's mean serial cycle ends it (the host's load may have changed
 * since the probe). Until the first probe, and on a plan that does not
 * fan out, cycles are serial.
 *
 * An exception thrown by `fn` aborts the run: waiters bail out, every
 * worker drains its list without running further tasks, and the first
 * exception is rethrown on the caller.
 */
class PartitionRunner
{
  public:
    explicit PartitionRunner(const PartitionPlan &plan);

    /** Start a run: the next cycle opens a fresh probe window. */
    void restart();

    /**
     * Open the next cycle and pick its mode (true = parallel), closing
     * the previous cycle's timing. Drivers call it once per cycle,
     * before run() or instead of it when serial means a different
     * walk (the levelized dirty-cone walk). A serial cycle outside a
     * probe releases `crew`, so a run that settles on serial does not
     * keep the pool; the next parallel run() re-engages it.
     */
    bool beginCycle(WorkPool::Crew *crew = nullptr);

    /**
     * Run every task once in the current cycle's mode. Parallel runs on
     * `crew` (engaged at the plan's width) when given.
     */
    void run(const std::function<void(uint32_t task, unsigned worker)> &fn,
             WorkPool::Crew *crew = nullptr);

    /**
     * Test hook: replace the measured policy by `schedule(cycle)`,
     * cycle counted from restart(), in every runner of the process; an
     * empty function restores the policy. A plan that does not fan out
     * stays serial either way. Set it only while no simulation runs.
     */
    static void forceSchedule(std::function<bool(uint64_t cycle)> schedule);

  private:
    /** One completion stamp per cache line: tasks on different threads
     * store theirs every cycle. 32 bits, so a blocked waiter sleeps on
     * the stamp itself (a futex) and a store with no sleeper notifies
     * for the price of a load; wrapping is harmless, as a stamp is only
     * ever compared for equality with the current run's, and every
     * parallel run stores every task's. */
    struct alignas(64) Stamp
    {
        std::atomic<uint32_t> v{0};
    };

    /** The policy behind beginCycle(). */
    bool pickMode();

    /** False, having run nothing, when called nested in pool work. */
    bool runParallel(const std::function<void(uint32_t, unsigned)> &fn,
                     WorkPool::Crew *crew);

    const PartitionPlan *plan;
    std::unique_ptr<Stamp[]> doneStamp;
    uint32_t runStamp = 0;

    // --- Mode policy (see the class comment) ---------------------------
    bool parallelNow = false;
    bool steadyParallel = false; ///< Mode between probes.
    bool probing = false;
    bool timing = false;   ///< The current cycle is measured.
    uint64_t cycle = 0;    ///< Cycles since restart().
    uint32_t probePos = 0; ///< Cycles into the probe window.
    double nextProbe = 0;  ///< Run time (s) at which the next probe starts.
    uint64_t nextRead = 0; ///< Cycle of the next clock read between probes.
    uint64_t lastReadCycle = 0;
    std::chrono::steady_clock::time_point runStart, cycleStart, lastRead;
    /// Probe blocks: this many serial cycles, then as many parallel
    /// ones. A block's first cycle pays the switch (the levelized walk
    /// re-seeds its dirty queue with every node; the first parallel
    /// cycle wakes parked workers) and is not measured.
    static constexpr uint32_t probeBlock = 6;
    double serialSum = 0;   ///< Measured serial cycles of the probe (s).
    double parallelSum = 0; ///< Measured parallel cycles of the probe (s).
    double serialCycle = 0; ///< The last probe's mean serial cycle (s).
    /// Start of the current guard window of a parallel stretch.
    std::chrono::steady_clock::time_point guardStart;
    uint64_t guardCycle = 0;
};

} // namespace calyx::sim

#endif // CALYX_SIM_PARTITION_H

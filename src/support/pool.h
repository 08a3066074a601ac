#ifndef CALYX_SUPPORT_POOL_H
#define CALYX_SUPPORT_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace calyx {

/**
 * One iteration of a spin-wait: a CPU pause hint where the target has
 * one, so a spinning hyperthread yields pipeline resources to its
 * sibling without giving up its time slice.
 */
inline void
spinPause()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * The spinning half of a wait that is usually short. Each spin() is
 * one pause (every 64th also yields the core) and returns true until
 * about 50 us have passed; then the caller should block instead. A
 * waiter that never blocks keeps its core busy, so when the machine is
 * oversubscribed a preempted thread the wait depends on cannot be moved
 * onto it, and the wait lasts a whole scheduler slice (1-12 ms measured
 * on a shared 4-vCPU host with every core spinning).
 */
class BoundedSpin
{
  public:
    bool
    spin()
    {
        spinPause();
        if (++count % 64 != 0)
            return true;
        std::this_thread::yield();
        auto now = std::chrono::steady_clock::now();
        if (deadline == std::chrono::steady_clock::time_point{})
            deadline = now + std::chrono::microseconds(50);
        return now < deadline;
    }

  private:
    unsigned count = 0;
    std::chrono::steady_clock::time_point deadline{};
};

/**
 * Persistent work-stealing thread pool shared by every engine-agnostic
 * parallel loop in the toolchain: batch simulation partitions lane
 * tiles over it (sim/batch.h), the pass manager dispatches independent
 * components of one dependency wavefront over it
 * (passes/pass_manager.h), compiled-module shard builds run over it
 * (sim/compiled.h), and partitioned single-stimulus simulation runs
 * its static per-thread plans on a Crew of it (sim/partition.h). In
 * all cases the work items' state is disjoint by construction, so the
 * pool needs no per-item locking — only job distribution is
 * synchronized.
 *
 * Work distribution is index-range stealing: parallelFor(n, w, fn)
 * splits [0, n) into `w` contiguous ranges, one per participant, each
 * with an atomic cursor. A participant drains its own range first
 * (contiguous indices: lane tiles sharing cache lines stay on one
 * core), then steals from the range with the most work left. The
 * calling thread participates as worker 0, so `threads == 1` runs
 * entirely on the caller with no synchronization beyond the atomics,
 * and a 1-core machine never context-switches per item.
 *
 * The pool is the process-wide occupancy cap: jobs from concurrent
 * callers (e.g. `--serve` compiling one request while simulating
 * another) serialize on a single publication slot instead of stacking
 * thread counts, and a parallelFor issued from *inside* a worker runs
 * serially on that worker rather than deadlocking on the slot — so a
 * `--threads N` process never runs more than N items at once, however
 * the subsystems nest. A Crew occupies the slot from hold() to
 * release(). peakParticipants() exposes the observed high-water mark
 * and dispatches() the number of jobs published, for tests asserting
 * exactly that.
 *
 * Workers are spawned lazily up to the high-water request and persist
 * for the process lifetime (detached at exit), so a `futil --serve`
 * session pays thread startup once, not per request. Exceptions thrown
 * by `fn` are captured; the first one is rethrown on the caller after
 * every participant has drained.
 */
class WorkPool
{
  public:
    /** The process-wide pool. */
    static WorkPool &global();

    /**
     * Run `fn(i)` for every i in [0, n) across `threads` participants
     * (clamped to [1, n]; the caller is one of them). Returns when all
     * items are done. When called from inside a pool worker the loop
     * runs serially on that worker (nested parallelism is capped, not
     * stacked).
     */
    void parallelFor(size_t n, unsigned threads,
                     const std::function<void(size_t)> &fn);

    /**
     * Run `fn(i)` for every i in [0, n) with a *dedicated* participant
     * per index — no stealing, index i runs on participant i, the
     * caller is participant 0. This is the primitive for static
     * per-thread execution plans whose items block on each other
     * (sim/partition.h): stealing would let one OS thread sit inside
     * item A's spin-wait while item B — the one A waits on — is queued
     * behind it on the same thread. Dedicated participants make every
     * plan's progress assumption hold by construction. Runs serially
     * when n <= 1 or when called from inside a pool worker.
     */
    void runConcurrent(size_t n, const std::function<void(size_t)> &fn);

    /**
     * A run-scoped crew: `width` dedicated participants (the holder's
     * thread is participant 0) kept for the length of one loop — a
     * cycle simulation's run, one batch tile — so a loop that needs a
     * parallel phase every iteration pays one pool dispatch, not one
     * per phase. Each run(fn) is one phase: fn(w) on participant w for
     * every w in [0, width), returning when all are done (the same
     * no-steal contract as runConcurrent, so phases may wait on
     * each other's items).
     *
     * Between phases the workers spin for a bounded time (about
     * 100 us), then park on a condition variable; the next phase wakes
     * them. A loop that goes serial for a while therefore costs no CPU
     * beyond that window. A crew is inert until a successful hold()
     * (callers hold on their first parallel phase, so a loop that
     * stays serial never dispatches); from then until release() or
     * destruction it holds the pool's publication slot: concurrent
     * callers queue behind it, and pool calls made by the holder's
     * thread meanwhile run serially (it counts as inside the pool). A
     * loop that settles on serial releases the crew so other callers
     * get the pool back; its next parallel phase re-engages it (one
     * more dispatch). Release or destroy it on the thread that holds
     * it.
     */
    class Crew
    {
      public:
        Crew();
        ~Crew();
        Crew(const Crew &) = delete;
        Crew &operator=(const Crew &) = delete;

        /**
         * Engage `width` participants, or confirm the ones engaged.
         * False — nothing held — when width <= 1, when called from
         * inside pool work (nested parallelism is capped, not
         * stacked), or when the crew already holds a different width.
         */
        bool hold(unsigned width);

        /**
         * Let the participants go and free the publication slot; a
         * no-op on a crew that holds nothing. The destructor calls it.
         */
        void release();

        /**
         * One phase: fn(w) for every w in [0, width), w on
         * participant w. Requires a successful hold(). The first
         * exception thrown by any participant is rethrown here after
         * every participant has finished the phase; the crew stays
         * usable.
         */
        void run(const std::function<void(unsigned)> &fn);

      private:
        struct State;
        std::unique_ptr<State> st;
    };

    /**
     * True on a thread currently executing pool work (including the
     * caller-as-participant). Used to demote nested parallel calls to
     * serial execution.
     */
    static bool insideWorker();

    /**
     * High-water mark of simultaneously active participants since the
     * last reset — the observable for "no 2N-thread spike" tests.
     */
    static unsigned peakParticipants();
    static void resetPeakParticipants();

    /**
     * Jobs published to the workers since the last reset: one per
     * multi-participant parallelFor or runConcurrent, one per engaged
     * Crew (however many phases it runs).
     */
    static uint64_t dispatches();
    static void resetDispatches();

    /** A sensible default worker count: hardware_concurrency, >= 1. */
    static unsigned defaultThreads();

  private:
    WorkPool() = default;

    struct Range
    {
        std::atomic<size_t> next{0};
        size_t end = 0;
        // Cursors are hammered by their owner and occasional thieves;
        // keep each range on its own cache line.
        char pad[64 - sizeof(std::atomic<size_t>) - sizeof(size_t)];
    };

    struct Job
    {
        const std::function<void(size_t)> *fn = nullptr;
        std::vector<Range> ranges;
        std::atomic<size_t> done{0}; ///< Participants finished.
        size_t parts = 0;
        bool noSteal = false; ///< Dedicated participant per range.

        /** `n` dedicated participants: range r is [r, r + 1). */
        void dedicate(size_t n);
    };

    void ensureWorkers(unsigned count);
    void workerLoop(unsigned id);
    void runAs(Job &job, size_t self);
    void dispatch(Job &j);
    /** Hand `j` to the workers; the slot must be held. */
    void publish(Job &j);
    /** Wait until every worker participant of `j` has finished. */
    void awaitWorkers(Job &j);

    /// The single publication slot: held for one job, or a Crew's life.
    std::mutex slotMu;
    std::mutex mu;
    std::condition_variable cv;      ///< Wakes idle workers.
    std::condition_variable doneCv;  ///< Wakes the caller.
    Job *job = nullptr;              ///< Published under `mu`.
    uint64_t generation = 0;         ///< Bumped per job.
    unsigned spawned = 0;
    std::vector<std::thread> workers;
};

} // namespace calyx

#endif // CALYX_SUPPORT_POOL_H

#include "sim/partition.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "sim/env.h"
#include "sim/schedule.h"
#include "support/pool.h"

namespace calyx::sim {

uint32_t
partitionTarget()
{
    if (const char *env = std::getenv("CALYX_SIM_PARTITIONS");
        env && *env) {
        long v = std::strtol(env, nullptr, 10);
        if (v < 1)
            v = 1;
        if (v > 256)
            v = 256;
        return static_cast<uint32_t>(v);
    }
    return 16;
}

namespace {

/** Iteration estimate for a cyclic (SCC) node's Gauss-Seidel loop. */
constexpr uint64_t sccIterEstimate = 8;

} // namespace

PartitionPlan
buildPartitionPlan(const SimProgram &prog, const SimSchedule &sched,
                   uint32_t target, unsigned threads)
{
    const auto &nodes = sched.nodes();
    const uint32_t N = static_cast<uint32_t>(nodes.size());
    PartitionPlan plan;
    plan.taskOfNode.assign(N, 0);
    if (target < 1)
        target = 1;
    if (N == 0) {
        assignThreads(plan, threads);
        return plan;
    }

    // Cost model: per port, one unit for the walk itself, one per
    // potential driver (guard eval + select), guard size over four
    // (SExpr nodes are cheap relative to a driver check), and two for
    // an inlined primitive evaluation. Cyclic nodes multiply by a
    // fixed-point iteration estimate. All static — the plan must be a
    // pure function of the design so the compiled engine can embed it.
    std::vector<uint32_t> fanIn(prog.numPorts(), 0);
    std::vector<uint32_t> guardWeight(prog.numPorts(), 0);
    prog.forEachAssignment([&](const SAssign &a, bool) {
        ++fanIn[a.dst];
        guardWeight[a.dst] +=
            static_cast<uint32_t>(a.guard->nodes.size());
    });

    std::vector<uint64_t> cost(N, 1);
    uint64_t totalCost = 0;
    for (uint32_t n = 0; n < N; ++n) {
        const SimSchedule::Node &node = nodes[n];
        const uint32_t *mem = sched.memberPorts().data() + node.first;
        uint64_t c = 0;
        for (uint32_t i = 0; i < node.count; ++i) {
            uint32_t p = mem[i];
            c += 1 + fanIn[p] + guardWeight[p] / 4 +
                 (sched.modelOf(p) ? 2 : 0);
        }
        if (node.cyclic)
            c *= std::min<uint64_t>(node.count, sccIterEstimate);
        cost[n] = c ? c : 1;
        totalCost += cost[n];
    }

    // Node-level dependency DAG, deduplicated from the port fanout.
    // Node ids are already topological, so predecessor lists only hold
    // smaller ids and fill in one ascending pass.
    std::vector<std::vector<uint32_t>> preds(N);
    {
        std::vector<uint32_t> seen(N, UINT32_MAX);
        for (uint32_t n = 0; n < N; ++n) {
            const SimSchedule::Node &node = nodes[n];
            const uint32_t *mem = sched.memberPorts().data() + node.first;
            for (uint32_t i = 0; i < node.count; ++i) {
                for (const uint32_t *q = sched.fanoutBegin(mem[i]),
                                    *e = sched.fanoutEnd(mem[i]);
                     q != e; ++q) {
                    uint32_t succ = sched.nodeOf(*q);
                    if (succ == n || seen[succ] == n)
                        continue;
                    seen[succ] = n;
                    preds[succ].push_back(n);
                }
            }
        }
    }

    // Longest-path levels: an edge always spans levels, so two nodes
    // on one level can never read each other and a level is safe to
    // split across concurrent tasks.
    std::vector<uint32_t> level(N, 0);
    uint32_t maxLevel = 0;
    for (uint32_t n = 0; n < N; ++n) {
        uint32_t l = 0;
        for (uint32_t p : preds[n])
            l = std::max(l, level[p] + 1);
        level[n] = l;
        maxLevel = std::max(maxLevel, l);
    }
    std::vector<std::vector<uint32_t>> byLevel(maxLevel + 1);
    for (uint32_t n = 0; n < N; ++n)
        byLevel[level[n]].push_back(n);

    const uint64_t grain = std::max<uint64_t>(totalCost / target, 1);

    // Cluster each level into cost-capped tasks. Nodes are ordered by
    // the smallest predecessor task first, so nodes fed by the same
    // upstream task pack together — fewer distinct cross-partition
    // dependency (and port) edges per task.
    std::vector<std::pair<uint32_t, uint32_t>> order; // (affinity, node)
    int64_t prevSingleTask = -1; // Sole task of the previous level.
    for (uint32_t lv = 0; lv <= maxLevel; ++lv) {
        order.clear();
        for (uint32_t n : byLevel[lv]) {
            uint32_t aff = UINT32_MAX;
            for (uint32_t p : preds[n])
                aff = std::min(aff, plan.taskOfNode[p]);
            order.emplace_back(aff, n);
        }
        std::sort(order.begin(), order.end());

        const size_t levelStart = plan.tasks.size();
        uint64_t cur = 0;
        bool open = false;
        for (const auto &[aff, n] : order) {
            (void)aff;
            if (!open || cur >= grain) {
                plan.tasks.emplace_back();
                plan.tasks.back().cost = 0;
                cur = 0;
                open = true;
            }
            plan.tasks.back().nodes.push_back(n);
            plan.taskOfNode[n] =
                static_cast<uint32_t>(plan.tasks.size() - 1);
            plan.tasks.back().cost += cost[n];
            cur += cost[n];
        }

        // Chain-merge: consecutive single-task levels are inherently
        // serial, so they collapse into one task — a deliberately
        // serial design (one long dependency chain) degrades to a
        // single task instead of one spin-synced task per level.
        if (plan.tasks.size() - levelStart == 1 && prevSingleTask >= 0) {
            PartitionPlan::Task merged = std::move(plan.tasks.back());
            plan.tasks.pop_back();
            PartitionPlan::Task &prev =
                plan.tasks[static_cast<size_t>(prevSingleTask)];
            for (uint32_t n : merged.nodes) {
                prev.nodes.push_back(n);
                plan.taskOfNode[n] = static_cast<uint32_t>(prevSingleTask);
            }
            prev.cost += merged.cost;
        } else if (plan.tasks.size() - levelStart == 1) {
            prevSingleTask = static_cast<int64_t>(plan.tasks.size() - 1);
        } else {
            prevSingleTask = -1;
        }
    }

    // Dependencies per task (deduplicated, ascending), nodes sorted
    // back into schedule order (a chain merge can interleave ids).
    std::vector<uint32_t> depSeen(plan.tasks.size(), UINT32_MAX);
    for (uint32_t t = 0; t < plan.tasks.size(); ++t) {
        PartitionPlan::Task &task = plan.tasks[t];
        std::sort(task.nodes.begin(), task.nodes.end());
        for (uint32_t n : task.nodes) {
            for (uint32_t p : preds[n]) {
                uint32_t pt = plan.taskOfNode[p];
                if (pt == t || depSeen[pt] == t)
                    continue;
                depSeen[pt] = t;
                task.deps.push_back(pt);
            }
        }
        std::sort(task.deps.begin(), task.deps.end());
        if (task.cost == 0)
            task.cost = 1;
    }

    // Absorption: sub-grain stragglers — a level's short tail, the
    // root's undriven go/done nodes — carry more dependency-counter
    // synchronization than work, and a serialized design must degrade
    // to ONE task, not a spin-synced chain of them. Three merges that
    // provably preserve the topological task order, applied to a fixed
    // point; each either joins adjacent tasks or moves a task with no
    // ordering edges on the violated side:
    //   - deps == {t-1}: fold into the immediately preceding task;
    //   - no deps, sole dependent t+1: fold into the following task
    //     (the nodes run later, which nothing constrains);
    //   - no edges at all: fold into the heaviest task.
    {
        auto mergeInto = [&plan](uint32_t src, uint32_t dst) {
            const uint32_t T =
                static_cast<uint32_t>(plan.tasks.size());
            PartitionPlan::Task absorbed = std::move(plan.tasks[src]);
            PartitionPlan::Task &d = plan.tasks[dst];
            d.nodes.insert(d.nodes.end(), absorbed.nodes.begin(),
                           absorbed.nodes.end());
            std::sort(d.nodes.begin(), d.nodes.end());
            d.cost += absorbed.cost;
            d.deps.insert(d.deps.end(), absorbed.deps.begin(),
                          absorbed.deps.end());
            plan.tasks.erase(plan.tasks.begin() +
                             static_cast<ptrdiff_t>(src));

            std::vector<uint32_t> newId(T);
            for (uint32_t i = 0; i < T; ++i)
                newId[i] = i - (i > src ? 1 : 0);
            newId[src] = dst - (dst > src ? 1 : 0);
            for (auto &task : plan.tasks) {
                for (uint32_t &dep : task.deps)
                    dep = newId[dep];
                std::sort(task.deps.begin(), task.deps.end());
                task.deps.erase(std::unique(task.deps.begin(),
                                            task.deps.end()),
                                task.deps.end());
            }
            uint32_t self = newId[src];
            auto &dd = plan.tasks[self].deps;
            dd.erase(std::remove(dd.begin(), dd.end(), self), dd.end());
            for (uint32_t &t : plan.taskOfNode)
                t = newId[t];
        };

        bool changed = true;
        while (changed && plan.tasks.size() > 1) {
            changed = false;
            const uint32_t T =
                static_cast<uint32_t>(plan.tasks.size());
            std::vector<uint32_t> dependentCount(T, 0);
            std::vector<uint32_t> soleDependent(T, 0);
            for (uint32_t t = 0; t < T; ++t) {
                for (uint32_t d : plan.tasks[t].deps) {
                    ++dependentCount[d];
                    soleDependent[d] = t;
                }
            }
            uint32_t heaviest = 0;
            for (uint32_t t = 1; t < T; ++t) {
                if (plan.tasks[t].cost > plan.tasks[heaviest].cost)
                    heaviest = t;
            }
            for (uint32_t t = 0; t < T; ++t) {
                const PartitionPlan::Task &tk = plan.tasks[t];
                if (tk.cost > grain)
                    continue;
                uint32_t dst = UINT32_MAX;
                if (t > 0 && tk.deps.size() == 1 &&
                    tk.deps[0] == t - 1)
                    dst = t - 1;
                else if (tk.deps.empty() && dependentCount[t] == 1 &&
                         soleDependent[t] == t + 1)
                    dst = t + 1;
                else if (tk.deps.empty() && dependentCount[t] == 0 &&
                         t != heaviest)
                    dst = heaviest;
                if (dst == UINT32_MAX)
                    continue;
                mergeInto(t, dst);
                changed = true;
                break;
            }
        }
    }

    assignThreads(plan, threads);
    return plan;
}

void
assignThreads(PartitionPlan &plan, unsigned threads)
{
    const size_t T = plan.tasks.size();
    if (threads < 1)
        threads = 1;
    if (T > 0 && threads > T)
        threads = static_cast<unsigned>(T);
    plan.threads = threads;
    plan.threadTasks.assign(threads, {});
    if (T == 0)
        return;
    if (threads == 1) {
        for (uint32_t t = 0; t < T; ++t) {
            plan.tasks[t].thread = 0;
            plan.threadTasks[0].push_back(t);
        }
        return;
    }

    // Critical-path priority: a task's priority is its cost plus the
    // costliest chain of dependents below it — the classic list-
    // scheduling heuristic (the same shape verilator's MTask packer
    // uses). Deps only point at smaller ids, so one reverse pass
    // suffices.
    std::vector<std::vector<uint32_t>> dependents(T);
    for (uint32_t t = 0; t < T; ++t) {
        for (uint32_t d : plan.tasks[t].deps)
            dependents[d].push_back(t);
    }
    std::vector<uint64_t> prio(T, 0);
    for (size_t t = T; t-- > 0;) {
        uint64_t below = 0;
        for (uint32_t s : dependents[t])
            below = std::max(below, prio[s]);
        prio[t] = plan.tasks[t].cost + below;
    }

    // Simulated list scheduling: repeatedly place the highest-priority
    // ready task on the worker that can start it earliest. All ties
    // break toward lower ids, so the plan is deterministic.
    std::vector<uint64_t> finish(T, 0), avail(threads, 0);
    std::vector<uint32_t> remaining(T);
    std::vector<uint32_t> ready;
    for (uint32_t t = 0; t < T; ++t) {
        remaining[t] = static_cast<uint32_t>(plan.tasks[t].deps.size());
        if (remaining[t] == 0)
            ready.push_back(t);
    }
    for (size_t placed = 0; placed < T; ++placed) {
        size_t bi = 0;
        for (size_t i = 1; i < ready.size(); ++i) {
            if (prio[ready[i]] > prio[ready[bi]] ||
                (prio[ready[i]] == prio[ready[bi]] &&
                 ready[i] < ready[bi]))
                bi = i;
        }
        uint32_t t = ready[bi];
        ready.erase(ready.begin() + static_cast<ptrdiff_t>(bi));

        uint64_t readyAt = 0;
        for (uint32_t d : plan.tasks[t].deps)
            readyAt = std::max(readyAt, finish[d]);
        unsigned bw = 0;
        uint64_t bestStart = std::max(avail[0], readyAt);
        for (unsigned w = 1; w < threads; ++w) {
            uint64_t start = std::max(avail[w], readyAt);
            if (start < bestStart) {
                bestStart = start;
                bw = w;
            }
        }
        finish[t] = bestStart + plan.tasks[t].cost;
        avail[bw] = finish[t];
        plan.tasks[t].thread = bw;
        plan.threadTasks[bw].push_back(t);

        for (uint32_t s : dependents[t]) {
            if (--remaining[s] == 0)
                ready.push_back(s);
        }
    }

    // Execute each worker's list in ascending task id: ids are
    // topological, so every dependency and every intra-thread ordering
    // edge strictly increases the id — the spin-wait execution below
    // is deadlock-free by induction on the id.
    for (auto &list : plan.threadTasks)
        std::sort(list.begin(), list.end());
}

namespace {

// The first probe waits until the run has lasted this long, so a run
// too short to repay a probe never pays one (a losing probe costs about
// 0.3 ms at 4 threads on 4 cores: waking parked workers plus a few
// parallel cycles); each later probe waits until the run has doubled.
constexpr double firstProbeSeconds = 16e-3;
// While waiting for the next probe the clock is read about this often
// (in run time, up to every 64th cycle): fine enough that a design with
// millisecond cycles starts its probe on time, coarse enough that the
// read costs nothing on a compiled design's 100 ns cycles.
constexpr double clockReadSeconds = 20e-6;
/// Parallel must measure at most this share of serial to be chosen.
constexpr double parallelMargin = 0.9;
// A run whose serial cycles are shorter than this skips the probe: a
// parallel cycle pays two crew phase handoffs plus a cross-thread wait
// per dependency (2mm: 29-39 waits; its 8 us serial cycles took 35 us
// in parallel; the shortest cycles measured to win were systolic 8x8
// batch-1's ~300 us), while a losing probe pays a crew wake-up that
// can take milliseconds on a loaded host.
constexpr double minProbeCycleSeconds = 25e-6;
// A parallel stretch is checked against the probe's mean serial cycle
// over windows of at least this long and at least guardCycles cycles:
// a window whose mean cycle is slower than serial ends the stretch.
constexpr double guardSeconds = 2e-3;
constexpr uint64_t guardCycles = 8;

std::function<bool(uint64_t)> &
forcedSchedule()
{
    static std::function<bool(uint64_t)> f;
    return f;
}

} // namespace

PartitionRunner::PartitionRunner(const PartitionPlan &p)
    : plan(&p), doneStamp(new Stamp[p.tasks.empty() ? 1 : p.tasks.size()])
{
    restart();
}

void
PartitionRunner::forceSchedule(std::function<bool(uint64_t)> schedule)
{
    forcedSchedule() = std::move(schedule);
}

void
PartitionRunner::restart()
{
    parallelNow = steadyParallel = probing = timing = false;
    cycle = nextRead = 0;
    nextProbe = firstProbeSeconds;
}

bool
PartitionRunner::beginCycle(WorkPool::Crew *crew)
{
    const bool par = pickMode();
    // A serial stretch outside a probe hands the pool back: another
    // caller's parallelFor should not wait for the rest of this run.
    if (!par && !probing && crew)
        crew->release();
    return par;
}

bool
PartitionRunner::pickMode()
{
    using Clock = std::chrono::steady_clock;
    const uint64_t c = cycle++;
    if (!plan->parallel())
        return parallelNow = false;
    if (const auto &forced = forcedSchedule())
        return parallelNow = forced(c);

    if (!probing) {
        if (c < nextRead)
            return parallelNow = steadyParallel;
        Clock::time_point now = Clock::now();
        uint64_t stride = 1;
        double perCycle = 0;
        if (c == 0) {
            runStart = now;
        } else {
            perCycle =
                std::chrono::duration<double>(now - lastRead).count() /
                static_cast<double>(c - lastReadCycle);
            stride = static_cast<uint64_t>(
                std::clamp(clockReadSeconds / perCycle, 1.0, 64.0));
        }
        lastRead = now;
        lastReadCycle = c;
        nextRead = c + stride;
        if (steadyParallel && c >= guardCycle + guardCycles) {
            // The probe's verdict holds only while parallel keeps
            // winning: host load can change after it (a preempted
            // worker stalls every cycle), so a window slower than the
            // probe's serial cycles goes back to serial until the next
            // probe.
            double span =
                std::chrono::duration<double>(now - guardStart).count();
            if (span >= guardSeconds) {
                if (span / static_cast<double>(c - guardCycle) >
                    serialCycle)
                    steadyParallel = false;
                guardStart = now;
                guardCycle = c;
            }
        }
        const double elapsed =
            std::chrono::duration<double>(now - runStart).count();
        if (elapsed < nextProbe)
            return parallelNow = steadyParallel;
        if (!steadyParallel && perCycle < minProbeCycleSeconds) {
            // Serial cycles too short for parallel to win: skip this
            // probe, look again once the run has doubled.
            nextProbe = 2 * elapsed;
            return parallelNow = false;
        }
        probing = true;
        probePos = 0;
        serialSum = parallelSum = 0;
    }

    Clock::time_point now = Clock::now();
    if (timing) {
        double dt = std::chrono::duration<double>(now - cycleStart).count();
        (parallelNow ? parallelSum : serialSum) += dt;
    }
    // Totals, not medians: a stalled parallel cycle (a preempted worker
    // holds up every task that waits on it) is what parallel costs on a
    // loaded host, so it counts in full. Parallel only adds to its
    // total, so the probe ends as soon as the total exceeds the margin
    // of serial's — a losing probe costs a few parallel cycles, not a
    // whole block.
    const double budget = parallelMargin * serialSum;
    if (probePos == 2 * probeBlock || (parallelNow && parallelSum > budget)) {
        steadyParallel = parallelSum <= budget;
        serialCycle = serialSum / (probeBlock - 1);
        nextProbe =
            2 * std::chrono::duration<double>(now - runStart).count();
        probing = timing = false;
        lastRead = guardStart = now;
        lastReadCycle = guardCycle = c;
        nextRead = c + 1;
        return parallelNow = steadyParallel;
    }
    parallelNow = probePos >= probeBlock;
    timing = probePos % probeBlock != 0;
    cycleStart = now;
    ++probePos;
    return parallelNow;
}

void
PartitionRunner::run(const std::function<void(uint32_t, unsigned)> &fn,
                     WorkPool::Crew *crew)
{
    if (parallelNow && runParallel(fn, crew))
        return;
    // Ascending task ids are a topological order, so in-order
    // execution satisfies every dependency.
    const uint32_t T = static_cast<uint32_t>(plan->tasks.size());
    for (uint32_t t = 0; t < T; ++t)
        fn(t, 0);
}

bool
PartitionRunner::runParallel(
    const std::function<void(uint32_t, unsigned)> &fn, WorkPool::Crew *crew)
{
    const PartitionPlan &p = *plan;
    const bool onCrew = crew && crew->hold(p.threads);
    if (!onCrew && WorkPool::insideWorker())
        return false; // Nested: capped, not stacked.
    const uint32_t stamp = ++runStamp;
    std::atomic<bool> aborted{false};
    auto worker = [&](size_t w) {
        for (uint32_t t : p.threadTasks[w]) {
            bool runnable = true;
            for (uint32_t d : p.tasks[t].deps) {
                // The acquire load pairs with the dependency's release
                // store below: once the stamp matches, every value the
                // dependency wrote is visible to this task. Spin first
                // (a dependency is usually microseconds away), then
                // block until the stamp moves.
                BoundedSpin spin;
                for (uint32_t v;
                     (v = doneStamp[d].v.load(std::memory_order_acquire)) !=
                     stamp;) {
                    if (aborted.load(std::memory_order_acquire)) {
                        runnable = false;
                        break;
                    }
                    if (!spin.spin())
                        doneStamp[d].v.wait(v, std::memory_order_acquire);
                }
                if (!runnable)
                    break;
            }
            if (runnable && !aborted.load(std::memory_order_acquire)) {
                try {
                    fn(t, static_cast<unsigned>(w));
                } catch (...) {
                    // Publish the abort, then every task's stamp, so all
                    // waiters (spinning or blocked on a task this worker
                    // will now never run) wake, see the abort and bail
                    // instead of running on half-written state. The
                    // exception reaches the caller after every worker
                    // drains.
                    aborted.store(true, std::memory_order_release);
                    for (uint32_t u = 0; u < p.tasks.size(); ++u) {
                        doneStamp[u].v.store(stamp,
                                             std::memory_order_release);
                        doneStamp[u].v.notify_all();
                    }
                    throw;
                }
            }
            doneStamp[t].v.store(stamp, std::memory_order_release);
            doneStamp[t].v.notify_all();
        }
    };

    if (onCrew)
        crew->run([&](unsigned w) { worker(w); });
    else
        WorkPool::global().runConcurrent(p.threads, worker);
    return true;
}

} // namespace calyx::sim

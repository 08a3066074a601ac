#include "support/pool.h"

#include <chrono>
#include <exception>

namespace calyx {

namespace {

/** First exception thrown by any participant, rethrown on the caller. */
struct ErrSlot
{
    std::mutex mu;
    std::exception_ptr err;

    void capture()
    {
        std::lock_guard<std::mutex> lk(mu);
        if (!err)
            err = std::current_exception();
    }
};

ErrSlot &
errSlot()
{
    static ErrSlot e;
    return e;
}

/** Set while this thread executes pool work (caller or worker). */
thread_local bool tlInPool = false;

/** Live participant count and its high-water mark. */
std::atomic<unsigned> activeParts{0};
std::atomic<unsigned> peakParts{0};

/** Jobs published (WorkPool::dispatches()). */
std::atomic<uint64_t> dispatchCount{0};

/**
 * Mark this thread as a pool participant; returns its previous
 * in-pool flag for leavePool().
 */
bool
enterPool()
{
    bool was = tlInPool;
    tlInPool = true;
    unsigned act = activeParts.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned peak = peakParts.load(std::memory_order_relaxed);
    while (act > peak &&
           !peakParts.compare_exchange_weak(peak, act,
                                            std::memory_order_relaxed))
        ;
    return was;
}

void
leavePool(bool was)
{
    activeParts.fetch_sub(1, std::memory_order_relaxed);
    tlInPool = was;
}

} // namespace

WorkPool &
WorkPool::global()
{
    // Leaked singleton: worker threads block on the condvar for the
    // process lifetime, so the pool (and its synchronization objects)
    // must never be destroyed under them.
    static WorkPool *pool = new WorkPool;
    return *pool;
}

unsigned
WorkPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
WorkPool::insideWorker()
{
    return tlInPool;
}

unsigned
WorkPool::peakParticipants()
{
    return peakParts.load(std::memory_order_relaxed);
}

void
WorkPool::resetPeakParticipants()
{
    peakParts.store(0, std::memory_order_relaxed);
}

uint64_t
WorkPool::dispatches()
{
    return dispatchCount.load(std::memory_order_relaxed);
}

void
WorkPool::resetDispatches()
{
    dispatchCount.store(0, std::memory_order_relaxed);
}

void
WorkPool::ensureWorkers(unsigned count)
{
    while (spawned < count) {
        unsigned id = spawned++;
        std::thread t([this, id] { workerLoop(id); });
        t.detach();
    }
}

void
WorkPool::workerLoop(unsigned id)
{
    uint64_t lastGen = 0;
    for (;;) {
        Job *j = nullptr;
        size_t slot = 0;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return job && generation != lastGen; });
            lastGen = generation;
            // Worker `id` owns participant slot id + 1 (the caller is
            // slot 0); workers beyond the job's width sit this one out.
            if (id + 1 < job->parts) {
                j = job;
                slot = id + 1;
            }
        }
        if (!j)
            continue;
        runAs(*j, slot);
        j->done.fetch_add(1);
        // Empty critical section orders the increment before the
        // notify so the caller's predicate re-check cannot miss it.
        { std::lock_guard<std::mutex> lk(mu); }
        doneCv.notify_all();
    }
}

void
WorkPool::runAs(Job &job, size_t self)
{
    bool wasInPool = enterPool();

    const auto &fn = *job.fn;
    auto run = [&](size_t i) {
        try {
            fn(i);
        } catch (...) {
            errSlot().capture();
        }
    };

    // Drain the own range front-to-back: contiguous indices keep one
    // participant on one cache-neighborhood of tiles.
    Range &own = job.ranges[self];
    for (size_t i;
         (i = own.next.fetch_add(1, std::memory_order_relaxed)) < own.end;)
        run(i);

    // Steal, one index at a time, from whichever range has the most
    // left. The claim is the same fetch_add the owner uses, so every
    // index is executed exactly once. Static-plan jobs (noSteal) skip
    // this: their items spin on each other, and a steal could park an
    // item behind the very item it waits on.
    while (!job.noSteal) {
        size_t best = SIZE_MAX, bestLeft = 0;
        for (size_t r = 0; r < job.parts; ++r) {
            size_t nx = job.ranges[r].next.load(std::memory_order_relaxed);
            if (nx < job.ranges[r].end && job.ranges[r].end - nx > bestLeft) {
                bestLeft = job.ranges[r].end - nx;
                best = r;
            }
        }
        if (best == SIZE_MAX)
            break;
        Range &victim = job.ranges[best];
        size_t i = victim.next.fetch_add(1, std::memory_order_relaxed);
        if (i < victim.end)
            run(i);
    }

    leavePool(wasInPool);
}

void
WorkPool::publish(Job &j)
{
    dispatchCount.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(mu);
        ensureWorkers(static_cast<unsigned>(j.parts) - 1);
        job = &j;
        ++generation;
    }
    cv.notify_all();
}

void
WorkPool::awaitWorkers(Job &j)
{
    std::unique_lock<std::mutex> lk(mu);
    doneCv.wait(lk, [&] { return j.done.load() == j.parts - 1; });
    job = nullptr;
}

void
WorkPool::dispatch(Job &j)
{
    // One job at a time: the pool has a single publication slot. This
    // is also the process-wide occupancy cap — concurrent callers
    // queue here instead of stacking their thread counts.
    std::lock_guard<std::mutex> serial(slotMu);

    {
        std::lock_guard<std::mutex> lk(errSlot().mu);
        errSlot().err = nullptr;
    }

    publish(j);
    runAs(j, 0);
    awaitWorkers(j);

    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lk(errSlot().mu);
        err = errSlot().err;
        errSlot().err = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
WorkPool::parallelFor(size_t n, unsigned threads,
                      const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads > n)
        threads = static_cast<unsigned>(n);
    if (threads <= 1 || insideWorker()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Job j;
    j.fn = &fn;
    j.parts = threads;
    j.ranges = std::vector<Range>(threads);
    size_t chunk = (n + threads - 1) / threads;
    for (size_t r = 0; r < threads; ++r) {
        size_t start = r * chunk;
        j.ranges[r].next.store(start, std::memory_order_relaxed);
        j.ranges[r].end = std::min(n, start + chunk);
    }
    dispatch(j);
}

void
WorkPool::runConcurrent(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1 || insideWorker()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Job j;
    j.fn = &fn;
    j.dedicate(n);
    dispatch(j);
}

void
WorkPool::Job::dedicate(size_t n)
{
    parts = n;
    noSteal = true;
    ranges = std::vector<Range>(n);
    for (size_t r = 0; r < n; ++r) {
        ranges[r].next.store(r, std::memory_order_relaxed);
        ranges[r].end = r + 1;
    }
}

// --- Crew ------------------------------------------------------------

namespace {

/** How long an idle crew worker spins before it parks. */
constexpr std::chrono::microseconds crewSpin{100};

} // namespace

/**
 * A held crew: the pool job whose participants loop over phases, and
 * the phase handshake. The holder stores `fn`, resets `pending`, then
 * bumps `seq` (release); a worker that observes the bump (acquire)
 * runs fn(slot) and decrements `pending` (release), which the holder
 * waits on (acquire; a bounded spin, then blocking, woken by the last
 * decrement). A bump with `fn == nullptr` releases the crew.
 * The holder writes `fn` only while no phase is in flight, so the
 * plain pointer never races.
 */
struct WorkPool::Crew::State
{
    std::unique_lock<std::mutex> slot; ///< The pool's publication slot.
    Job job;
    std::function<void(size_t)> loop; ///< job.fn: participate(slot).
    unsigned parts = 0;
    bool holderWasInPool = false;

    const std::function<void(unsigned)> *fn = nullptr;
    alignas(64) std::atomic<uint64_t> seq{0};
    alignas(64) std::atomic<unsigned> pending{0};
    alignas(64) std::mutex parkMu; ///< Guards parking on `parkCv`.
    std::condition_variable parkCv;
    ErrSlot err;

    /** Wait for the phase after `seen`: spin, then park. */
    uint64_t
    awaitPhase(uint64_t seen)
    {
        std::chrono::steady_clock::time_point deadline{};
        for (unsigned i = 1;; ++i) {
            uint64_t v = seq.load(std::memory_order_acquire);
            if (v != seen)
                return v;
            spinPause();
            if (i % 256 != 0)
                continue;
            // Every 256 pauses: give an oversubscribed core back, and
            // park once the spin budget is spent.
            auto now = std::chrono::steady_clock::now();
            if (deadline == std::chrono::steady_clock::time_point{})
                deadline = now + crewSpin;
            else if (now >= deadline)
                break;
            std::this_thread::yield();
        }
        std::unique_lock<std::mutex> lk(parkMu);
        parkCv.wait(lk, [&] {
            return seq.load(std::memory_order_acquire) != seen;
        });
        return seq.load(std::memory_order_acquire);
    }

    /** Worker side: run phases until the release bump. */
    void
    participate(unsigned slot)
    {
        uint64_t seen = 0;
        for (;;) {
            seen = awaitPhase(seen);
            const std::function<void(unsigned)> *phase = fn;
            if (!phase)
                return;
            try {
                (*phase)(slot);
            } catch (...) {
                err.capture();
            }
            if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
                pending.notify_one(); // The holder may have blocked.
        }
    }

    /** Holder side: publish a phase (or, with nullptr, the release). */
    void
    bump(const std::function<void(unsigned)> *phase)
    {
        fn = phase;
        pending.store(parts - 1, std::memory_order_relaxed);
        {
            // Under the park mutex so a worker between its predicate
            // check and its wait cannot miss the bump.
            std::lock_guard<std::mutex> lk(parkMu);
            seq.fetch_add(1, std::memory_order_release);
        }
        parkCv.notify_all();
    }
};

WorkPool::Crew::Crew() = default;

WorkPool::Crew::~Crew() { release(); }

void
WorkPool::Crew::release()
{
    if (!st)
        return;
    st->bump(nullptr);
    global().awaitWorkers(st->job);
    leavePool(st->holderWasInPool);
    st.reset(); // Releases the publication slot.
}

bool
WorkPool::Crew::hold(unsigned w)
{
    if (st)
        return st->parts == w;
    if (w <= 1 || insideWorker())
        return false;

    WorkPool &pool = global();
    auto s = std::make_unique<State>();
    s->slot = std::unique_lock<std::mutex>(pool.slotMu);
    s->parts = w;
    s->loop = [raw = s.get()](size_t slot) {
        raw->participate(static_cast<unsigned>(slot));
    };
    s->job.fn = &s->loop;
    s->job.dedicate(w);
    pool.publish(s->job);
    // The holder is participant 0 for the crew's whole life: pool
    // calls it makes meanwhile run serially instead of queueing on
    // the slot it holds.
    s->holderWasInPool = enterPool();
    st = std::move(s);
    return true;
}

void
WorkPool::Crew::run(const std::function<void(unsigned)> &fn)
{
    State &s = *st;
    s.bump(&fn);
    try {
        fn(0);
    } catch (...) {
        s.err.capture();
    }
    BoundedSpin spin;
    for (unsigned v; (v = s.pending.load(std::memory_order_acquire)) != 0;) {
        if (!spin.spin())
            s.pending.wait(v, std::memory_order_acquire);
    }
    std::exception_ptr e;
    {
        std::lock_guard<std::mutex> lk(s.err.mu);
        std::swap(e, s.err.err);
    }
    if (e)
        std::rethrow_exception(e);
}

} // namespace calyx

#ifndef CALYX_SIM_ENV_H
#define CALYX_SIM_ENV_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/context.h"
#include "sim/models.h"
#include "support/pool.h"
#include "support/symbol.h"

namespace calyx::obs {
class SimObserver;
}

namespace calyx::sim {

class SimSchedule;
class CompiledModule;
struct PartitionPlan;
class PartitionRunner;

/**
 * Combinational evaluation engine selection (see docs/simulation.md).
 *
 *  - Jacobi: the original reference engine. Every comb() pass zero-fills
 *    a scratch vector, re-evaluates every model and active assignment,
 *    and iterates to a fixed point. O(depth x (ports + assigns)) per
 *    cycle, but trivially correct; kept forever as the oracle.
 *  - Levelized: statically scheduled event-driven engine. A port-level
 *    dependency graph over all potential drivers is SCC-condensed and
 *    topologically ordered once per program; each cycle walks only the
 *    dirty cone of that schedule.
 *  - Compiled: verilator-style compiled simulation. The levelized
 *    schedule is code-generated as straight-line C++ (emit/cppsim.h),
 *    built with the host toolchain, and dlopen()ed (sim/compiled.h).
 *    Requires fully-lowered programs and a host C++ compiler.
 */
enum class Engine { Jacobi, Levelized, Compiled };

/** Registry row for one engine: drives parsing, benches, and docs. */
struct EngineInfo
{
    Engine engine;
    const char *name;
    const char *description;
};

/** Every engine, in declaration order. The single source of truth the
 * parser, the bench harness, and the tests enumerate. */
const std::vector<EngineInfo> &engineInfos();

/** All engine names, in declaration order. */
std::vector<std::string> engineNames();

/** "jacobi" / "levelized" / "compiled". */
const char *engineName(Engine engine);

/** Parse an engine name; fatal() with the valid options and a
 * did-you-mean suggestion on a miss. */
Engine parseEngine(const std::string &name);

/**
 * One distinct compiled guard, interned in its program's GuardPool
 * (every assignment with the same guard shares one entry).
 *
 * `nodes` is the source Guard tree flattened to postorder, with port
 * references resolved to flat port ids. It is the entry's identity and
 * the form the cppsim emitter, the schedule's dependency edges and the
 * partition cost model read.
 *
 * `code` is the evaluation form every interpreting engine runs, built
 * once per entry from `nodes` (docs/simulation.md, "Guard
 * evaluation"): the guard's leaf tests in prefix order, with negations
 * pushed into them, constant comparisons folded and same-port range
 * conjunctions fused. Each test names its successor for either
 * outcome, derived from the subtree ends of the flattened And/Or tree:
 * the next test to run, or the guard's final value. Successors always
 * lie ahead, so evaluation is one forward loop that short-circuits by
 * jumping, with no value stack and no recursion.
 */
struct SExpr
{
    enum class Op : uint8_t {
        True,
        Port,  ///< bit 0 of vals[a]
        Not,
        And,
        Or,
        Eq,
        Neq,
        Lt,
        Gt,
        Leq,
        Geq,
    };

    struct Node
    {
        Op op = Op::True;
        uint32_t a = 0, b = 0;     ///< Port ids for Port/Cmp leaves.
        uint64_t immA = 0, immB = 0;
        bool aImm = false, bImm = false;

        bool operator==(const Node &) const = default;
    };

    /** One leaf test of the evaluation form. */
    struct Test
    {
        enum class Op : uint8_t {
            Bit, ///< vals[a] & 1
            In,  ///< lo <= vals[a] <= lo + span
            Eq,  ///< vals[a] == vals[b]
            Lt,  ///< vals[a] < vals[b]
        };
        Op op = Op::Bit;
        uint32_t a = 0, b = 0;
        uint64_t lo = 0, span = 0;
        /// Where to go when the test is false ([0]) or true ([1]): a
        /// later index into `code`, or resultFalse / resultTrue.
        uint32_t next[2] = {0, 0};
    };

    static constexpr uint32_t resultFalse = UINT32_MAX - 1;
    static constexpr uint32_t resultTrue = UINT32_MAX;

    std::vector<Node> nodes; ///< Empty means "always true".
    std::vector<Test> code;  ///< Evaluation form; see above.
    uint32_t start = resultTrue; ///< First test, or a constant result.

    bool
    eval(const uint64_t *vals) const
    {
        const Test *t = code.data();
        uint32_t pc = start;
        while (pc < resultFalse) {
            const Test &x = t[pc];
            bool v;
            switch (x.op) {
              case Test::Op::Bit:
                v = vals[x.a] & 1;
                break;
              case Test::Op::In:
                v = vals[x.a] - x.lo <= x.span;
                break;
              case Test::Op::Eq:
                v = vals[x.a] == vals[x.b];
                break;
              default:
                v = vals[x.a] < vals[x.b];
                break;
            }
            pc = x.next[v];
        }
        return pc == resultTrue;
    }

    /** Append every port id the guard reads to `ports`. */
    void collectPorts(std::vector<uint32_t> &ports) const;
};

/**
 * The distinct guards of one program. intern() returns the existing
 * entry for a postorder form it has seen and builds a new entry
 * (including its evaluation form) otherwise. Entries never move, so
 * SAssign holds a plain pointer to its own.
 */
class GuardPool
{
  public:
    const SExpr *intern(const std::vector<SExpr::Node> &nodes);

    size_t size() const { return entries.size(); }
    const SExpr &operator[](size_t i) const { return entries[i]; }

  private:
    std::deque<SExpr> entries;
    /// Hash of `nodes` -> entry; equal hashes are told apart by nodes.
    std::unordered_multimap<uint64_t, const SExpr *> index;
};

/** A compiled assignment. */
struct SAssign
{
    uint32_t dst = 0;
    const SExpr *guard = nullptr; ///< Entry in the program's GuardPool.
    bool srcConst = false;
    uint32_t srcPort = 0;
    uint64_t srcValue = 0;
    uint32_t id = 0;    ///< Index into SimProgram::assignDescs.
};

/**
 * The flattened form of a Calyx program prepared for simulation: every
 * component instance is recursively inlined, ports get dense ids, and
 * assignments/guards are compiled. Shared by the control interpreter
 * (pre-compilation programs) and the cycle simulator (lowered programs).
 */
class SimProgram
{
  public:
    struct Instance
    {
        std::string path;        ///< "" for top, "pe00/" style prefix.
        const Component *comp = nullptr;
        std::vector<SAssign> continuous;
        /// Per-group data indexed by dense group id (declaration order);
        /// the symbol map exists only for one-time name resolution.
        std::vector<Symbol> groupNames;
        std::vector<std::vector<SAssign>> groupAssigns;
        /// (go hole id, done hole id) per group id.
        std::vector<std::pair<uint32_t, uint32_t>> groupHoles;
        std::unordered_map<Symbol, uint32_t> groupIndex;
        uint32_t goPort = 0, donePort = 0; ///< This-instance go/done ids.
        std::vector<std::unique_ptr<Instance>> subs;

        bool hasGroups() const { return !groupAssigns.empty(); }

        /** Dense id for a group name; fatal() on a miss. */
        uint32_t groupId(Symbol name) const;
    };

    SimProgram(const Context &ctx, Symbol top);
    ~SimProgram();

    const Instance &root() const { return *rootInst; }
    size_t numPorts() const { return portNames.size(); }

    /** Flat id for a hierarchical port path, e.g. "pe00/r0.out".
     * fatal() with a did-you-mean suggestion on a miss. */
    uint32_t portId(Symbol path) const;
    const std::string &portName(uint32_t id) const
    {
        return portNames[id].str();
    }

    /** Model for a hierarchical cell path, e.g. "A0" or "pe00/acc".
     * fatal() with a did-you-mean suggestion on a miss. */
    PrimModel *findModel(Symbol cell_path) const;

    /** True when any instance (top or nested) still has groups, i.e.
     * the program needs the control interpreter rather than CycleSim. */
    bool hasGroups() const;

    const std::vector<std::unique_ptr<PrimModel>> &models() const
    {
        return modelList;
    }

    /** Hierarchical cell path of each models() entry, in order. */
    std::vector<Symbol> modelPaths() const;

    /**
     * A fresh, independent set of primitive models in models() order.
     * The batch runner (sim/batch.h) gives every stimulus lane its own
     * set, so per-lane register/memory/pipeline state lives behind the
     * ordinary PrimModel interface while the program's own models stay
     * untouched.
     */
    std::vector<std::unique_ptr<PrimModel>> newModelSet() const;

    /** Human-readable description of assignment `id` (diagnostics). */
    const std::string &assignDesc(uint32_t id) const
    {
        return assignDescs[id];
    }

    /** Visit every compiled assignment; `continuous` distinguishes
     *  always-active assignments from group ones. */
    void forEachAssignment(
        const std::function<void(const SAssign &, bool continuous)> &fn)
        const;

    /**
     * The levelized evaluation schedule, built on first use and cached.
     * Construction fatal()s when the program contains an unconditional
     * combinational cycle, naming the ports on it.
     */
    const SimSchedule &schedule() const;

    /**
     * The JIT-compiled simulation module for this program, loaded on
     * first use and cached (sim/compiled.h), so every SimState running
     * --sim-engine=compiled over this program shares one module and
     * codegen happens once. fatal() like schedule() on rejection, plus
     * on a missing host toolchain or a failed host compile.
     *
     * The probed variant (`probe = true`) is generated with observer
     * callbacks compiled in (emit/cppsim.h) and cached separately —
     * requesting it never slows down unobserved runs of the plain
     * module, whose hot path stays branch-free.
     */
    std::shared_ptr<CompiledModule> compiledModule(bool probe = false) const;

    const Context &context() const { return *ctx; }

    /** Every distinct guard of the program, each compiled once. */
    const GuardPool &guards() const { return guardPool; }

  private:
    friend class SimState;

    void buildInstance(Instance &inst, const Component &comp);
    uint32_t addPort(Symbol path);
    SAssign compileAssign(const Instance &inst, const Assignment &a);
    const SExpr *compileGuard(const Instance &inst, const GuardPtr &g);
    uint32_t resolve(const Instance &inst, const PortRef &ref);

    const Context *ctx;
    std::unique_ptr<Instance> rootInst;
    std::vector<Symbol> portNames;
    std::unordered_map<Symbol, uint32_t> portIds;
    std::vector<std::unique_ptr<PrimModel>> modelList;
    std::unordered_map<Symbol, PrimModel *> modelIndex;
    std::vector<std::string> assignDescs;
    GuardPool guardPool;
    std::vector<SExpr::Node> guardScratch; ///< compileGuard's buffer.
    mutable std::unique_ptr<SimSchedule> sched; ///< Lazily built.
    /// Lazily loaded generated modules: [0] plain, [1] with probes.
    mutable std::shared_ptr<CompiledModule> compiled[2];
};

/**
 * The levelized walk's dirty set: one bit per schedule node, whose ids
 * are in topological order. drain() visits the set bits lowest first
 * with a forward cursor. Evaluating a node only ever marks later nodes
 * (fanout edges run forward in the schedule, and an SCC's members
 * settle inside their own node), so no heap is needed and the visit
 * order is the one a min-priority queue would give. mark() panics on a
 * node at or behind the cursor during a drain.
 */
class DirtyNodes
{
  public:
    /** Size for `n` nodes, all clean. */
    void resize(uint32_t n);

    void
    mark(uint32_t node)
    {
        uint64_t bit = uint64_t(1) << (node & 63);
        uint64_t &word = words[node >> 6];
        if (word & bit)
            return;
        if (node < floor)
            markedBehindCursor(node);
        word |= bit;
        ++count;
        low = std::min(low, node);
    }

    void markAll();
    void clear();

    /** Call `eval(node)` for every dirty node, lowest id first,
     * including nodes marked while the drain runs; return the count. */
    template <typename Fn>
    int
    drain(Fn &&eval)
    {
        struct Rewind
        {
            uint32_t &floor;
            ~Rewind() { floor = 0; }
        } rewind{floor};
        int visited = 0;
        for (uint32_t w = low >> 6; count; ++w) {
            for (uint64_t bits; (bits = words[w]);) {
                uint32_t node = w * 64 + std::countr_zero(bits);
                words[w] = bits & (bits - 1);
                --count;
                floor = node + 1;
                eval(node);
                ++visited;
            }
        }
        low = UINT32_MAX;
        return visited;
    }

  private:
    [[noreturn]] static void markedBehindCursor(uint32_t node);

    std::vector<uint64_t> words;
    uint32_t nodes = 0;
    uint32_t count = 0;        ///< Set bits.
    uint32_t low = UINT32_MAX; ///< No bit below this one is set.
    uint32_t floor = 0;        ///< During drain(): one past the cursor.
};

/**
 * Mutable per-run simulation state: port values plus the combinational
 * evaluation engine. Callers select the active assignment set each cycle
 * (continuous only for compiled programs; continuous + active groups for
 * the interpreter), then alternate comb() and clock().
 */
class SimState
{
  public:
    explicit SimState(const SimProgram &prog,
                      Engine engine = Engine::Levelized);
    ~SimState();

    SimState(const SimState &) = delete;
    SimState &operator=(const SimState &) = delete;

    /** Reset all models and values. */
    void reset();

    /** Clear the active assignment set (start of cycle assembly). */
    void beginCycle();

    /** Activate a set of assignments for this cycle. */
    void activate(const std::vector<SAssign> &assigns);

    /** Force a port to a value (interpreter-driven signals). */
    void force(uint32_t port, uint64_t value);

    /**
     * Settle the combinational network for this cycle. Throws Error on
     * multiple active drivers or a combinational loop. Returns the
     * number of Jacobi passes (Jacobi) or node evaluations (Levelized).
     */
    int comb();

    /** Advance all sequential primitives one clock edge. */
    void clock();

    uint64_t value(uint32_t port) const { return vals[port]; }
    uint64_t value(Symbol path) const { return vals[prog->portId(path)]; }

    Engine engine() const { return engineVal; }
    const SimProgram &program() const { return *prog; }

    /**
     * Upper bound on worker threads for partitioned single-stimulus
     * execution (docs/simulation.md, "Partitioned execution"). With
     * n > 1 the levelized engine builds a macro-task partition of the
     * schedule, and the plan's PartitionRunner picks, by measured
     * cycle time, whether each stretch of cycles walks the partition
     * on its static per-thread plan or runs the scalar dirty-cone walk.
     * The compiled engine ignores n: its plain module is faster than
     * the partitioned one serially and in parallel. Results are
     * bit-identical either way. Call before the first comb(); changing
     * it later rebuilds the plan.
     */
    void setThreads(unsigned n);
    unsigned threads() const { return threadsVal; }

    /**
     * Attach an observer (obs/observer.h); not owned, must outlive the
     * state. Every subsequent comb() notifies all observers in
     * attachment order, on every engine. Attach before the first
     * compiled-engine comb(): attaching later reloads the generated
     * module in its probed variant.
     */
    void addObserver(obs::SimObserver *observer);

    const std::vector<obs::SimObserver *> &observers() const
    {
        return observerList;
    }

    /**
     * Lends the state a run-scoped WorkPool::Crew for the scope's
     * lifetime: partitioned comb() and clock() phases then run on the
     * crew's dedicated participants, engaged once while parallel keeps
     * winning (one pool dispatch; released when the run settles on
     * serial, re-engaged at the next probe), instead of dispatching to
     * the pool every phase. The
     * cycle drivers (CycleSim::run, Interp::run) open one around their
     * loop; without one, parallel cycles dispatch per phase.
     */
    class CrewScope
    {
      public:
        explicit CrewScope(SimState &s) : state(s) { state.crew = &crew; }
        ~CrewScope() { state.crew = nullptr; }
        CrewScope(const CrewScope &) = delete;
        CrewScope &operator=(const CrewScope &) = delete;

      private:
        SimState &state;
        WorkPool::Crew crew; ///< Released after the pointer is cleared.
    };

    /** Cycles settled (comb() calls) since reset, observer-visible. */
    uint64_t settledCycles() const { return cycleIndex; }

    /** Notify observers that the run ended (drivers call this once). */
    void finishObservers(uint64_t cycles);

  private:
    int combJacobi();
    int combLevelized();
    int combCompiled();
    int combPartitioned();

    /** Bind + size the levelized engine state on first use. */
    void bindSchedule();

    /** Build the partition plan/runner/scratch on first use. */
    void ensurePartitioned();

    /** Levelized with threads > 1: open the runner's next cycle and
     * report whether it walks the partition in parallel. */
    bool partitionedCycle();

    /** Load/bind the generated module on the first compiled comb(). */
    void ensureCompiled();

    /** fatal() with the module's sticky runtime error, if any. */
    void checkCompiledError();

    /** Run every observer's cycleSettled for the current cycle. */
    void notifySettled();

    /** C callback the probed generated module invokes after eval(). */
    static void probeThunk(void *ctx, const uint64_t *vals);

    /** Settled value of one port under driver priority; see evalPort(). */
    uint64_t evalPort(uint32_t port, bool check_conflicts);

    /** Same, with caller-provided model scratch (partitioned walk:
     * each worker owns a scratch plane, so evalComb never races). */
    uint64_t evalPort(uint32_t port, bool check_conflicts,
                      uint64_t *scratch);

    void markDirty(uint32_t port);
    void rebuildActiveByPort();
    void diffForces();
    void evalNode(uint32_t node_index);

    /** evalNode without dirty-cone bookkeeping: the partitioned walk
     * evaluates every node each cycle, so fanout marking is dead
     * weight (and would race across workers). */
    void evalNodeFull(uint32_t node_index, uint64_t *scratch);

    const SimProgram *prog;
    Engine engineVal;
    std::vector<uint64_t> vals, tmp;
    std::vector<const SAssign *> active; ///< Jacobi: flat active set.
    std::vector<std::pair<uint32_t, uint64_t>> forces;
    std::vector<int32_t> driver; // scratch for conflict detection

    // --- Levelized engine state -------------------------------------
    const SimSchedule *sched = nullptr; ///< Bound on first comb().

    /// This cycle's activate() calls, by identity. When the sequence
    /// matches the previous cycle's, the per-port active lists are
    /// reused wholesale and no re-scatter or diff happens.
    std::vector<const std::vector<SAssign> *> activationCalls;
    std::vector<const std::vector<SAssign> *> prevActivationCalls;
    bool activationValid = false; ///< False after reset().

    /// Per-port active drivers, double-buffered so a rebuild can diff
    /// against the previous cycle; `touched` lists the non-empty slots.
    std::vector<std::vector<const SAssign *>> activeByPort;
    std::vector<std::vector<const SAssign *>> oldActiveByPort;
    std::vector<uint32_t> touched, oldTouched;

    std::vector<std::pair<uint32_t, uint64_t>> prevForces;
    std::vector<uint64_t> forcedVal;
    std::vector<uint32_t> forcedStamp;
    uint32_t stamp = 0; ///< Incremented every comb().

    DirtyNodes dirty; ///< Dirty schedule nodes, walked in topological order.
    std::vector<uint8_t> portChanged; ///< Scratch for cyclic nodes.

    // --- Compiled engine state --------------------------------------
    std::shared_ptr<CompiledModule> compiledMod; ///< Shared per digest.
    void *compiledInst = nullptr; ///< This state's generated instance.
    size_t continuousCount = 0;   ///< Total continuous assignments.
    bool compiledProbe = false;   ///< Loaded module notifies observers.

    // --- Partitioned execution (levelized engine) -------------------
    unsigned threadsVal = 1;
    std::unique_ptr<PartitionPlan> partPlan;
    std::unique_ptr<PartitionRunner> partRunner;
    /// One scratch plane (numPorts words) per plan thread; the
    /// levelized partitioned walk hands workers disjoint planes.
    std::vector<std::vector<uint64_t>> workerScratch;
    /// The current cycle walked the partition in parallel (levelized):
    /// its clock edge skipped the dirty-set seeding.
    bool parallelCycle = false;
    WorkPool::Crew *crew = nullptr; ///< Lent by a CrewScope.

    // --- Observability ----------------------------------------------
    std::vector<obs::SimObserver *> observerList;
    uint64_t cycleIndex = 0; ///< Settled cycles since reset().
};

/** Maximum Jacobi passes / local SCC iterations before giving up. */
constexpr int maxCombPasses = 256;

/**
 * Snapshot of all architectural state — registers and memory contents,
 * in model order. Used by cross-engine equivalence checks.
 */
std::vector<std::vector<uint64_t>> archState(const SimProgram &prog);

} // namespace calyx::sim

#endif // CALYX_SIM_ENV_H

#include "sim/env.h"

#include <algorithm>
#include <cstring>

#include "obs/observer.h"
#include "sim/compiled.h"
#include "sim/partition.h"
#include "sim/schedule.h"
#include "support/error.h"
#include "support/pool.h"
#include "support/text.h"

namespace calyx::sim {

std::vector<std::vector<uint64_t>>
archState(const SimProgram &prog)
{
    std::vector<std::vector<uint64_t>> state;
    for (const auto &m : prog.models()) {
        if (auto rv = m->registerValue())
            state.push_back({*rv});
        else if (auto *mem = m->memory())
            state.push_back(*mem);
    }
    return state;
}

const std::vector<EngineInfo> &
engineInfos()
{
    static const std::vector<EngineInfo> infos = {
        {Engine::Jacobi, "jacobi",
         "reference fixed-point engine (the oracle)"},
        {Engine::Levelized, "levelized",
         "statically scheduled event-driven engine"},
        {Engine::Compiled, "compiled",
         "codegen the schedule to C++ and JIT-build it "
         "(needs a host compiler)"},
    };
    return infos;
}

std::vector<std::string>
engineNames()
{
    std::vector<std::string> names;
    names.reserve(engineInfos().size());
    for (const EngineInfo &info : engineInfos())
        names.push_back(info.name);
    return names;
}

const char *
engineName(Engine engine)
{
    for (const EngineInfo &info : engineInfos()) {
        if (info.engine == engine)
            return info.name;
    }
    panic("engineName: bad engine");
}

Engine
parseEngine(const std::string &name)
{
    std::string options;
    for (const EngineInfo &info : engineInfos()) {
        if (name == info.name)
            return info.engine;
        if (!options.empty())
            options += ", ";
        options += info.name;
    }
    std::string close = suggestClosest(name, engineNames());
    if (close.empty()) {
        fatal("unknown simulation engine '", name, "' (options: ", options,
              ")");
    }
    fatal("unknown simulation engine '", name, "' (did you mean '", close,
          "'? options: ", options, ")");
}

namespace {

using Test = SExpr::Test;

/** Comparison `op` with its operands swapped: k < p is p > k. */
SExpr::Op
mirrored(SExpr::Op op)
{
    using Op = SExpr::Op;
    static const Op table[] = {Op::Eq, Op::Neq, Op::Gt, Op::Lt, Op::Geq,
                               Op::Leq};
    return table[static_cast<int>(op) - static_cast<int>(Op::Eq)];
}

/** The comparison that holds exactly when `op` does not. */
SExpr::Op
inverted(SExpr::Op op)
{
    using Op = SExpr::Op;
    static const Op table[] = {Op::Neq, Op::Eq, Op::Geq, Op::Leq, Op::Gt,
                               Op::Lt};
    return table[static_cast<int>(op) - static_cast<int>(Op::Eq)];
}

bool
compare(SExpr::Op op, uint64_t a, uint64_t b)
{
    switch (op) {
      case SExpr::Op::Eq:
        return a == b;
      case SExpr::Op::Neq:
        return a != b;
      case SExpr::Op::Lt:
        return a < b;
      case SExpr::Op::Gt:
        return a > b;
      case SExpr::Op::Leq:
        return a <= b;
      case SExpr::Op::Geq:
        return a >= b;
      default:
        panic("guard: not a comparison");
    }
}

/**
 * A node of the normalized guard tree, stored in prefix order: n-ary
 * And/Or nodes (no child has its parent's kind) over constants and
 * leaf tests, with every negation absorbed into a leaf.
 */
struct NormNode
{
    enum class Kind : uint8_t { False, True, Leaf, And, Or };
    Kind kind = Kind::Leaf;
    bool neg = false; ///< Leaf: the guard needs the test to fail.
    Test test;        ///< Leaf; an In test keeps [lo, hi] until the end.
    uint64_t hi = 0;  ///< In: inclusive upper bound.
    uint32_t end = 0; ///< One past the last node of this subtree.
    uint32_t first = 0; ///< The first leaf of this subtree.
    uint32_t next[2] = {0, 0}; ///< Leaf: successors, as in Test.
    uint32_t index = 0; ///< Leaf: position in `code`, once reachable.

    bool isConst() const { return kind <= Kind::True; }
    bool isLeaf() const { return kind <= Kind::Leaf; }
};

NormNode
constantNode(bool value)
{
    NormNode n;
    n.kind = value ? NormNode::Kind::True : NormNode::Kind::False;
    return n;
}

/** Leaf `x` of a postorder guard under an odd (`neg`) or even number
 * of negations, as a constant or a positive-or-negated test. */
NormNode
normalizeLeaf(const SExpr::Node &x, bool neg)
{
    using Op = SExpr::Op;
    if (x.op == Op::True)
        return constantNode(!neg);
    NormNode n;
    n.neg = neg;
    if (x.op == Op::Port) {
        n.test.op = Test::Op::Bit;
        n.test.a = x.a;
        return n;
    }
    if (x.aImm && x.bImm)
        return constantNode(compare(x.op, x.immA, x.immB) != neg);

    // Port on the left, negation folded into the operator.
    Op op = x.aImm ? mirrored(x.op) : x.op;
    uint32_t p = x.aImm ? x.b : x.a;
    if (neg)
        op = inverted(op);
    n.neg = false;

    if (!x.aImm && !x.bImm) {
        // Two ports: Eq and Lt, with Gt/Leq/Geq as swapped or negated
        // forms of Lt.
        n.test.a = x.a;
        n.test.b = x.b;
        n.test.op = op == Op::Eq || op == Op::Neq ? Test::Op::Eq
                                                  : Test::Op::Lt;
        n.neg = op == Op::Neq || op == Op::Geq || op == Op::Leq;
        if (op == Op::Gt || op == Op::Leq)
            std::swap(n.test.a, n.test.b);
        return n;
    }

    // Port against constant k: an inclusive range, or (Neq) the
    // complement of [k, k].
    const uint64_t k = x.aImm ? x.immA : x.immB;
    uint64_t lo = 0, hi = UINT64_MAX;
    switch (op) {
      case Op::Eq:
        lo = hi = k;
        break;
      case Op::Neq:
        lo = hi = k;
        n.neg = true;
        break;
      case Op::Lt:
        if (k == 0)
            return constantNode(false);
        hi = k - 1;
        break;
      case Op::Leq:
        hi = k;
        break;
      case Op::Gt:
        if (k == UINT64_MAX)
            return constantNode(false);
        lo = k + 1;
        break;
      case Op::Geq:
        lo = k;
        break;
      default:
        panic("guard: not a comparison");
    }
    if (lo == 0 && hi == UINT64_MAX)
        return constantNode(true);
    n.test.op = Test::Op::In;
    n.test.a = p;
    n.test.lo = lo;
    n.hi = hi;
    return n;
}

/**
 * Builds SExpr::code from SExpr::nodes. Its work lists persist between
 * builds (one builder per thread), so a pool of small guards allocates
 * little beyond the code itself. Nothing here recurses.
 */
class CodeBuilder
{
  public:
    /**
     * Normalize, then give every leaf its two successors: within an
     * And, a true child continues at the next sibling's first leaf and
     * a false one leaves with the And's false successor; the last child
     * inherits both of the And's (dually for Or). Constant leaves then
     * dissolve into the successors pointing at them, and only tests
     * reachable from the first one are kept.
     */
    void
    build(SExpr &e)
    {
        normalize(e.nodes);
        const uint32_t m = static_cast<uint32_t>(norm.size());
        for (uint32_t i = m; i-- > 0;) {
            NormNode &x = norm[i];
            if (x.kind == NormNode::Kind::Leaf &&
                x.test.op == Test::Op::In && x.test.lo > x.hi)
                x.kind = NormNode::Kind::False; // a fused range emptied
            x.first = x.isLeaf() ? i : norm[i + 1].first;
        }

        frames.clear();
        for (uint32_t i = 0; i < m; ++i) {
            NormNode &x = norm[i];
            while (!frames.empty() && frames.back().end <= i)
                frames.pop_back();
            uint32_t onTrue = SExpr::resultTrue;
            uint32_t onFalse = SExpr::resultFalse;
            if (!frames.empty()) {
                const Frame &p = frames.back();
                onTrue = p.onTrue;
                onFalse = p.onFalse;
                if (x.end < p.end) {
                    uint32_t sibling = norm[x.end].first;
                    (p.kind == NormNode::Kind::And ? onTrue : onFalse) =
                        sibling;
                }
            }
            if (!x.isLeaf()) {
                frames.push_back({x.end, x.kind, onTrue, onFalse});
            } else {
                x.next[0] = x.neg ? onTrue : onFalse;
                x.next[1] = x.neg ? onFalse : onTrue;
            }
        }

        // Successors only point forward, so resolving back to front
        // sees every constant's own successors already resolved.
        auto resolve = [&](uint32_t t) {
            if (t < m && norm[t].isConst())
                return norm[t].next[norm[t].kind == NormNode::Kind::True];
            return t;
        };
        for (uint32_t i = m; i-- > 0;) {
            NormNode &x = norm[i];
            x.index = UINT32_MAX;
            if (x.isLeaf()) {
                x.next[0] = resolve(x.next[0]);
                x.next[1] = resolve(x.next[1]);
            }
        }
        const uint32_t entry = resolve(norm[0].first);

        e.code.clear();
        if (entry < m)
            norm[entry].index = 0;
        for (uint32_t i = entry; i < m; ++i) {
            NormNode &x = norm[i];
            if (x.index == UINT32_MAX)
                continue;
            x.index = static_cast<uint32_t>(e.code.size());
            Test &t = e.code.emplace_back(x.test);
            if (t.op == Test::Op::In)
                t.span = x.hi - t.lo;
            for (int k = 0; k < 2; ++k) {
                t.next[k] = x.next[k];
                if (t.next[k] <= i)
                    panic("guard: evaluation form steps backwards");
                if (t.next[k] < m)
                    norm[t.next[k]].index = 0; // reachable; numbered later
            }
        }
        for (Test &t : e.code) {
            for (uint32_t &s : t.next) {
                if (s < m)
                    s = norm[s].index;
            }
        }
        e.start = entry < m ? 0 : entry;
    }

  private:
    /**
     * Fill `norm` from postorder `nodes`. A depth-first walk with an
     * explicit stack carries the negation parity down: a Not flips it,
     * an And under odd parity becomes an Or (and vice versa), and a node
     * of its nearest emitted ancestor's kind merges into that ancestor.
     * A positive range test on a port that already has one among the
     * same And's children narrows that test instead of adding one.
     */
    void
    normalize(const std::vector<SExpr::Node> &nodes)
    {
        using Op = SExpr::Op;
        const uint32_t n = static_cast<uint32_t>(nodes.size());
        lhs.resize(n);
        rhs.resize(n);
        operands.clear();
        for (uint32_t i = 0; i < n; ++i) {
            switch (nodes[i].op) {
              case Op::Not:
                lhs[i] = operands.back();
                operands.back() = i;
                break;
              case Op::And:
              case Op::Or:
                rhs[i] = operands.back();
                operands.pop_back();
                lhs[i] = operands.back();
                operands.back() = i;
                break;
              default:
                operands.push_back(i);
                break;
            }
        }

        norm.clear();
        open.clear();
        rangeOf.clear();
        work.assign(1, {operands.back(), false, false});
        while (!work.empty()) {
            Work w = work.back();
            work.pop_back();
            if (w.close) {
                norm[open.back()].end = static_cast<uint32_t>(norm.size());
                open.pop_back();
                continue;
            }
            const SExpr::Node &x = nodes[w.node];
            if (x.op == Op::Not) {
                work.push_back({lhs[w.node], !w.neg, false});
                continue;
            }
            if (x.op == Op::And || x.op == Op::Or) {
                auto kind = (x.op == Op::And) != w.neg
                                ? NormNode::Kind::And
                                : NormNode::Kind::Or;
                if (open.empty() || norm[open.back()].kind != kind) {
                    open.push_back(static_cast<uint32_t>(norm.size()));
                    norm.emplace_back().kind = kind;
                    work.push_back({0, false, true});
                }
                work.push_back({rhs[w.node], w.neg, false});
                work.push_back({lhs[w.node], w.neg, false});
                continue;
            }
            NormNode leaf = normalizeLeaf(x, w.neg);
            if (leaf.kind == NormNode::Kind::Leaf &&
                leaf.test.op == Test::Op::In && !leaf.neg &&
                !open.empty() &&
                norm[open.back()].kind == NormNode::Kind::And) {
                uint64_t key = uint64_t(open.back()) << 32 | leaf.test.a;
                auto [it, fresh] = rangeOf.emplace(
                    key, static_cast<uint32_t>(norm.size()));
                if (!fresh) {
                    NormNode &into = norm[it->second];
                    into.test.lo = std::max(into.test.lo, leaf.test.lo);
                    into.hi = std::min(into.hi, leaf.hi);
                    continue;
                }
            }
            leaf.end = static_cast<uint32_t>(norm.size()) + 1;
            norm.push_back(leaf);
        }
    }

    struct Work
    {
        uint32_t node;
        bool neg;
        bool close; ///< Ends the subtree of the innermost open node.
    };
    struct Frame
    {
        uint32_t end;
        NormNode::Kind kind;
        uint32_t onTrue, onFalse;
    };

    std::vector<uint32_t> lhs, rhs, operands; ///< Postorder children.
    std::vector<NormNode> norm;
    std::vector<Work> work;
    std::vector<uint32_t> open; ///< Emitted And/Or nodes, innermost last.
    std::unordered_map<uint64_t, uint32_t> rangeOf; ///< (And, port).
    std::vector<Frame> frames;
};

uint64_t
hashNodes(const std::vector<SExpr::Node> &nodes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint64_t v) {
        h = (h ^ v) * 0x100000001b3ull;
        h ^= h >> 29;
    };
    for (const SExpr::Node &n : nodes) {
        mix(static_cast<uint64_t>(n.op) | uint64_t(n.aImm) << 8 |
            uint64_t(n.bImm) << 9);
        mix(n.a | uint64_t(n.b) << 32);
        mix(n.immA);
        mix(n.immB);
    }
    return h;
}

} // namespace

const SExpr *
GuardPool::intern(const std::vector<SExpr::Node> &nodes)
{
    const uint64_t h = hashNodes(nodes);
    auto [lo, hi] = index.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
        if (it->second->nodes == nodes)
            return it->second;
    }
    SExpr &e = entries.emplace_back();
    e.nodes = nodes;
    if (!nodes.empty()) {
        thread_local CodeBuilder builder;
        builder.build(e);
    }
    index.emplace(h, &e);
    return &e;
}

void
DirtyNodes::resize(uint32_t n)
{
    words.assign((n + 63) / 64, 0);
    nodes = n;
    count = 0;
    low = UINT32_MAX;
    floor = 0;
}

void
DirtyNodes::markAll()
{
    std::fill(words.begin(), words.end(), ~uint64_t(0));
    if (nodes % 64)
        words.back() = (uint64_t(1) << (nodes % 64)) - 1;
    count = nodes;
    low = 0;
}

void
DirtyNodes::clear()
{
    std::fill(words.begin(), words.end(), 0);
    count = 0;
    low = UINT32_MAX;
}

void
DirtyNodes::markedBehindCursor(uint32_t node)
{
    panic("levelized walk: schedule node " + std::to_string(node) +
          " was marked dirty at or behind the walk's cursor");
}

void
SExpr::collectPorts(std::vector<uint32_t> &ports) const
{
    for (const Node &n : nodes) {
        switch (n.op) {
          case Op::Port:
            ports.push_back(n.a);
            break;
          case Op::Eq:
          case Op::Neq:
          case Op::Lt:
          case Op::Gt:
          case Op::Leq:
          case Op::Geq:
            if (!n.aImm)
                ports.push_back(n.a);
            if (!n.bImm)
                ports.push_back(n.b);
            break;
          default:
            break;
        }
    }
}

uint32_t
SimProgram::Instance::groupId(Symbol name) const
{
    auto it = groupIndex.find(name);
    if (it == groupIndex.end()) {
        fatal("simulator: unknown group ", name, " in component ",
              comp->name());
    }
    return it->second;
}

SimProgram::SimProgram(const Context &ctx, Symbol top)
    : ctx(&ctx)
{
    rootInst = std::make_unique<Instance>();
    rootInst->path = "";
    buildInstance(*rootInst, ctx.component(top));
}

SimProgram::~SimProgram() = default;

uint32_t
SimProgram::addPort(Symbol path)
{
    auto [it, inserted] =
        portIds.emplace(path, static_cast<uint32_t>(portNames.size()));
    if (inserted)
        portNames.push_back(path);
    return it->second;
}

uint32_t
SimProgram::portId(Symbol path) const
{
    auto it = portIds.find(path);
    if (it == portIds.end()) {
        std::vector<std::string> known;
        known.reserve(portNames.size());
        for (Symbol name : portNames)
            known.push_back(name.str());
        std::string close = suggestClosest(path.str(), known);
        if (close.empty())
            fatal("simulator: unknown port path ", path);
        fatal("simulator: unknown port path ", path, " (did you mean '",
              close, "'?)");
    }
    return it->second;
}

PrimModel *
SimProgram::findModel(Symbol cell_path) const
{
    auto it = modelIndex.find(cell_path);
    if (it == modelIndex.end()) {
        // One-shot diagnostic path: mirror the pass/backend registries'
        // did-you-mean UX for misspelled harness cell paths.
        std::vector<std::string> known;
        known.reserve(modelIndex.size());
        for (const auto &[name, model] : modelIndex) {
            (void)model;
            known.push_back(name.str());
        }
        std::string close = suggestClosest(cell_path.str(), known);
        if (close.empty())
            fatal("simulator: unknown cell path ", cell_path);
        fatal("simulator: unknown cell path ", cell_path,
              " (did you mean '", close, "'?)");
    }
    return it->second;
}

std::vector<Symbol>
SimProgram::modelPaths() const
{
    std::vector<Symbol> out;
    out.reserve(modelList.size());
    std::function<void(const Instance &)> walk = [&](const Instance &inst) {
        size_t sub = 0;
        for (const auto &cell : inst.comp->cells()) {
            if (cell->isPrimitive())
                out.push_back(inst.path + cell->name());
            else
                walk(*inst.subs[sub++]);
        }
    };
    walk(*rootInst);
    if (out.size() != modelList.size())
        panic("simulator: model path walk does not match model list");
    return out;
}

std::vector<std::unique_ptr<PrimModel>>
SimProgram::newModelSet() const
{
    std::vector<std::unique_ptr<PrimModel>> out;
    out.reserve(modelList.size());
    std::function<void(const Instance &)> walk = [&](const Instance &inst) {
        size_t sub = 0;
        for (const auto &cell : inst.comp->cells()) {
            if (cell->isPrimitive()) {
                std::string prefix = inst.path;
                auto resolver = [&](const std::string &port) {
                    return portId(prefix + cell->name() + "." + port);
                };
                out.push_back(makeModel(*cell, resolver));
            } else {
                walk(*inst.subs[sub++]);
            }
        }
    };
    walk(*rootInst);
    if (out.size() != modelList.size())
        panic("simulator: model set walk does not match model list");
    return out;
}

void
SimProgram::forEachAssignment(
    const std::function<void(const SAssign &, bool)> &fn) const
{
    std::function<void(const Instance &)> walk =
        [&](const Instance &inst) {
            for (const SAssign &a : inst.continuous)
                fn(a, true);
            for (const auto &vec : inst.groupAssigns) {
                for (const SAssign &a : vec)
                    fn(a, false);
            }
            for (const auto &sub : inst.subs)
                walk(*sub);
        };
    walk(*rootInst);
}

const SimSchedule &
SimProgram::schedule() const
{
    if (!sched)
        sched = std::make_unique<SimSchedule>(*this);
    return *sched;
}

std::shared_ptr<CompiledModule>
SimProgram::compiledModule(bool probe) const
{
    auto &slot = compiled[probe ? 1 : 0];
    if (!slot)
        slot = CompiledModule::load(*this, probe);
    return slot;
}

bool
SimProgram::hasGroups() const
{
    std::function<bool(const Instance &)> walk =
        [&](const Instance &inst) {
            if (inst.hasGroups())
                return true;
            for (const auto &sub : inst.subs) {
                if (walk(*sub))
                    return true;
            }
            return false;
        };
    return walk(*rootInst);
}

void
SimProgram::buildInstance(Instance &inst, const Component &comp)
{
    inst.comp = &comp;

    // This-instance signature ports. For the top instance these are fresh
    // ("go", "done"); for sub-instances they alias the parent's cell ports
    // ("pe00.go"), which addPort de-duplicates by path.
    for (const auto &p : comp.signature()) {
        std::string path = inst.path.empty()
                               ? p.name.str()
                               : inst.path.substr(0, inst.path.size() - 1) +
                                     "." + p.name;
        uint32_t id = addPort(path);
        if (p.name == "go")
            inst.goPort = id;
        if (p.name == "done")
            inst.donePort = id;
    }

    // Cell ports, models, and sub-instances.
    std::string prefix = inst.path;
    for (const auto &cell : comp.cells()) {
        for (const auto &p : cell->portDefs())
            addPort(prefix + cell->name() + "." + p.name);
        if (cell->isPrimitive()) {
            auto resolver = [&](const std::string &port) {
                return portId(prefix + cell->name() + "." + port);
            };
            auto model = makeModel(*cell, resolver);
            modelIndex[prefix + cell->name()] = model.get();
            modelList.push_back(std::move(model));
        } else {
            auto sub = std::make_unique<Instance>();
            sub->path = prefix + cell->name() + "/";
            // Sub-instance signature ports must resolve to the parent's
            // cell ports: "pe00.go" etc. The path computation in the
            // signature loop above produces exactly those names.
            buildInstance(*sub, ctx->component(cell->type()));
            inst.subs.push_back(std::move(sub));
        }
    }

    // Group holes, with dense group ids in declaration order.
    for (const auto &g : comp.groups()) {
        uint32_t go = addPort(prefix + g->name() + "[go]");
        uint32_t done = addPort(prefix + g->name() + "[done]");
        uint32_t id = static_cast<uint32_t>(inst.groupNames.size());
        inst.groupNames.push_back(g->name());
        inst.groupHoles.push_back({go, done});
        inst.groupIndex[g->name()] = id;
    }

    // Assignments.
    for (const auto &a : comp.continuousAssignments())
        inst.continuous.push_back(compileAssign(inst, a));
    for (const auto &g : comp.groups()) {
        // Mirror the hardware calling convention in the interpreter: a
        // group's body deactivates during its done cycle (CompileControl
        // deasserts go when done is high), otherwise registers with a
        // still-high write enable would commit twice. Combinational
        // groups (done = constant 1) have no state and stay unchanged.
        bool comb_done = false;
        for (const auto &a : g->assignments()) {
            if (a.dst == g->doneHole() && a.guard->isTrue() &&
                a.src.isConst() && a.src.value == 1) {
                comb_done = true;
            }
        }
        GuardPtr not_done =
            Guard::negate(Guard::fromPort(g->doneHole()));
        auto &vec = inst.groupAssigns.emplace_back();
        for (const auto &a : g->assignments()) {
            bool own_done = a.dst == g->doneHole();
            if (comb_done || own_done) {
                vec.push_back(compileAssign(inst, a));
            } else {
                Assignment gated(a.dst, a.src,
                                 Guard::conj(a.guard, not_done));
                vec.push_back(compileAssign(inst, gated));
            }
        }
    }
}

uint32_t
SimProgram::resolve(const Instance &inst, const PortRef &ref)
{
    switch (ref.kind) {
      case PortRef::Kind::This: {
        std::string path =
            inst.path.empty()
                ? ref.port.str()
                : inst.path.substr(0, inst.path.size() - 1) + "." + ref.port;
        return portId(path);
      }
      case PortRef::Kind::Cell:
        return portId(inst.path + ref.parent + "." + ref.port);
      case PortRef::Kind::Hole:
        return portId(inst.path + ref.parent + "[" + ref.port + "]");
      case PortRef::Kind::Const:
        panic("resolve() on a constant");
    }
    panic("bad PortRef kind");
}

SAssign
SimProgram::compileAssign(const Instance &inst, const Assignment &a)
{
    SAssign out;
    out.dst = resolve(inst, a.dst);
    out.guard = compileGuard(inst, a.guard);
    if (a.src.isConst()) {
        out.srcConst = true;
        out.srcValue = a.src.value;
    } else {
        out.srcPort = resolve(inst, a.src);
    }
    out.id = static_cast<uint32_t>(assignDescs.size());
    assignDescs.push_back(inst.path + a.str());
    return out;
}

namespace {

void
compileGuardInto(const GuardPtr &g,
                 const std::function<uint32_t(const PortRef &)> &resolve,
                 std::vector<SExpr::Node> &nodes)
{
    SExpr::Node n;
    switch (g->kind()) {
      case Guard::Kind::True:
        n.op = SExpr::Op::True;
        nodes.push_back(n);
        return;
      case Guard::Kind::Port:
        n.op = SExpr::Op::Port;
        n.a = resolve(g->port());
        nodes.push_back(n);
        return;
      case Guard::Kind::Not:
        compileGuardInto(g->left(), resolve, nodes);
        n.op = SExpr::Op::Not;
        nodes.push_back(n);
        return;
      case Guard::Kind::And:
      case Guard::Kind::Or:
        compileGuardInto(g->left(), resolve, nodes);
        compileGuardInto(g->right(), resolve, nodes);
        n.op = g->kind() == Guard::Kind::And ? SExpr::Op::And
                                             : SExpr::Op::Or;
        nodes.push_back(n);
        return;
      case Guard::Kind::Cmp: {
        switch (g->cmpOp()) {
          case Guard::CmpOp::Eq:
            n.op = SExpr::Op::Eq;
            break;
          case Guard::CmpOp::Neq:
            n.op = SExpr::Op::Neq;
            break;
          case Guard::CmpOp::Lt:
            n.op = SExpr::Op::Lt;
            break;
          case Guard::CmpOp::Gt:
            n.op = SExpr::Op::Gt;
            break;
          case Guard::CmpOp::Leq:
            n.op = SExpr::Op::Leq;
            break;
          case Guard::CmpOp::Geq:
            n.op = SExpr::Op::Geq;
            break;
        }
        if (g->lhs().isConst()) {
            n.aImm = true;
            n.immA = g->lhs().value;
        } else {
            n.a = resolve(g->lhs());
        }
        if (g->rhs().isConst()) {
            n.bImm = true;
            n.immB = g->rhs().value;
        } else {
            n.b = resolve(g->rhs());
        }
        nodes.push_back(n);
        return;
      }
    }
    panic("bad guard kind");
}

} // namespace

const SExpr *
SimProgram::compileGuard(const Instance &inst, const GuardPtr &g)
{
    guardScratch.clear();
    if (!g->isTrue()) {
        compileGuardInto(
            g, [&](const PortRef &r) { return resolve(inst, r); },
            guardScratch);
    }
    return guardPool.intern(guardScratch);
}

SimState::SimState(const SimProgram &prog, Engine engine)
    : prog(&prog), engineVal(engine)
{
    vals.assign(prog.numPorts(), 0);
    tmp.assign(prog.numPorts(), 0);
    driver.assign(prog.numPorts(), -1);
}

SimState::~SimState()
{
    if (compiledInst)
        compiledMod->freeInstance(compiledInst);
}

void
SimState::reset()
{
    std::fill(vals.begin(), vals.end(), 0);
    for (const auto &m : prog->models())
        m->reset();
    active.clear();
    forces.clear();
    cycleIndex = 0;
    // Forget all incremental levelized state: the next comb() walks the
    // entire schedule once.
    activationValid = false;
    activationCalls.clear();
    prevActivationCalls.clear();
    prevForces.clear();
    parallelCycle = false;
    if (partRunner)
        partRunner->restart();
    // Zero the generated module's internal state (done pulses, pipe
    // countdowns) and re-write constant-folded port values.
    if (compiledInst)
        compiledMod->reset(compiledInst, vals.data());
}

void
SimState::beginCycle()
{
    active.clear();
    std::swap(prevActivationCalls, activationCalls);
    activationCalls.clear();
    std::swap(prevForces, forces);
    forces.clear();
}

void
SimState::activate(const std::vector<SAssign> &assigns)
{
    if (engineVal == Engine::Jacobi) {
        for (const auto &a : assigns)
            active.push_back(&a);
    } else {
        // Record by identity only; the per-port scatter happens lazily
        // in comb() and is skipped when the call sequence repeats.
        activationCalls.push_back(&assigns);
    }
}

void
SimState::force(uint32_t port, uint64_t value)
{
    forces.emplace_back(port, value);
}

void
SimState::setThreads(unsigned n)
{
    n = n ? n : 1;
    if (n == threadsVal)
        return;
    threadsVal = n;
    partPlan.reset();
    partRunner.reset();
    workerScratch.clear();
    parallelCycle = false;
}

int
SimState::comb()
{
    int evals;
    switch (engineVal) {
      case Engine::Jacobi:
        evals = combJacobi();
        break;
      case Engine::Levelized:
        evals = threadsVal > 1 && partitionedCycle() ? combPartitioned()
                                                     : combLevelized();
        break;
      case Engine::Compiled:
        evals = combCompiled();
        break;
      default:
        panic("comb: bad engine");
    }
    if (!observerList.empty()) {
        // The probed compiled module already invoked cycleSettled from
        // inside its eval() (via probeThunk); the interpreting engines
        // notify here. Either way observers see settled, pre-clock-edge
        // values once per cycle.
        if (engineVal != Engine::Compiled || !compiledProbe)
            notifySettled();
        for (obs::SimObserver *o : observerList)
            o->combStats(cycleIndex, evals);
        ++cycleIndex;
    }
    return evals;
}

void
SimState::addObserver(obs::SimObserver *observer)
{
    observerList.push_back(observer);
    if (compiledInst && !compiledProbe) {
        // A plain (probe-free) module is already bound; drop it so the
        // next comb() reloads the probed variant.
        compiledMod->freeInstance(compiledInst);
        compiledInst = nullptr;
    }
}

void
SimState::notifySettled()
{
    for (obs::SimObserver *o : observerList)
        o->cycleSettled(cycleIndex, vals.data());
}

void
SimState::probeThunk(void *ctx, const uint64_t *vals)
{
    (void)vals; // the same array the state owns
    static_cast<SimState *>(ctx)->notifySettled();
}

void
SimState::finishObservers(uint64_t cycles)
{
    for (obs::SimObserver *o : observerList)
        o->finish(cycles);
}

void
SimState::ensureCompiled()
{
    if (compiledInst)
        return;
    // The thread count plays no part: the plain module's eval()
    // outruns the partitioned module's, serially and in parallel
    // (docs/simulation.md, "Partitioned execution").
    bool want_probe = !observerList.empty();
    compiledMod = prog->compiledModule(want_probe);
    compiledProbe = want_probe && compiledMod->hasProbe();

    // Bind the generated instance's register and memory state to the
    // PrimModel objects' own storage (model order on both sides), so
    // archState(), registerValue(), and harness memory pokes observe
    // the compiled run exactly as they observe an interpreted one.
    std::vector<uint64_t *> regStorage, memStorage;
    for (const auto &m : prog->models()) {
        if (uint64_t *r = m->registerStorage())
            regStorage.push_back(r);
        if (std::vector<uint64_t> *mem = m->memory())
            memStorage.push_back(mem->data());
    }
    if (regStorage.size() != compiledMod->numRegs() ||
        memStorage.size() != compiledMod->numMems()) {
        fatal("compiled engine: module state shape (",
              compiledMod->numRegs(), " regs, ", compiledMod->numMems(),
              " mems) does not match the program (", regStorage.size(),
              " regs, ", memStorage.size(), " mems)");
    }

    compiledInst = compiledMod->newInstance();
    compiledMod->bind(compiledInst, regStorage.data(), memStorage.data());
    if (compiledProbe)
        compiledMod->setProbe(compiledInst, &SimState::probeThunk, this);
    compiledMod->reset(compiledInst, vals.data());

    continuousCount = 0;
    prog->forEachAssignment([&](const SAssign &, bool continuous) {
        if (continuous)
            ++continuousCount;
    });
}

void
SimState::checkCompiledError()
{
    if (const char *err = compiledMod->error(compiledInst))
        fatal(err);
}

int
SimState::combCompiled()
{
    ensureCompiled();

    // The generated eval() hard-codes every continuous assignment as a
    // potential driver, so the cycle's activation set must be exactly
    // the full continuous set (what CycleSim activates). Anything else
    // (e.g. the interpreter's per-group sets) needs an interpreting
    // engine.
    size_t activated = 0;
    for (const std::vector<SAssign> *vec : activationCalls)
        activated += vec->size();
    if (activated != continuousCount) {
        fatal("compiled engine: cycle activated ", activated,
              " assignments but the program has ", continuousCount,
              " continuous ones; group-level activation requires "
              "--sim-engine=jacobi or levelized");
    }

    // Forces only exist for ports eval() does not compute (the cycle
    // driver's top-level go). A force that stops being applied reverts
    // to the undriven default of zero, matching evalPort().
    const unsigned char *driven = compiledMod->driven();
    for (const auto &[port, value] : prevForces) {
        if (!driven[port])
            vals[port] = 0;
    }
    for (const auto &[port, value] : forces) {
        if (driven[port]) {
            fatal("compiled engine: cannot force computed port ",
                  prog->portName(port));
        }
        vals[port] = value;
    }

    compiledMod->eval(compiledInst, vals.data());
    checkCompiledError();
    return 1;
}

int
SimState::combJacobi()
{
    for (int pass = 1; pass <= maxCombPasses; ++pass) {
        // Jacobi pass: compute tmp entirely from vals.
        std::fill(tmp.begin(), tmp.end(), 0);
        for (const auto &m : prog->models())
            m->evalComb(vals.data(), tmp.data());
        for (const auto &[port, value] : forces)
            tmp[port] = value;
        for (const SAssign *a : active) {
            if (a->guard->eval(vals.data()))
                tmp[a->dst] = a->srcConst ? a->srcValue : vals[a->srcPort];
        }
        if (tmp == vals) {
            // Converged: verify the unique-driver requirement (§3.2).
            std::fill(driver.begin(), driver.end(), -1);
            for (const SAssign *a : active) {
                if (!a->guard->eval(vals.data()))
                    continue;
                if (driver[a->dst] >= 0) {
                    fatal("multiple active drivers for port ",
                          prog->portName(a->dst), ":\n  ",
                          prog->assignDesc(driver[a->dst]), "\n  ",
                          prog->assignDesc(a->id));
                }
                driver[a->dst] = static_cast<int32_t>(a->id);
            }
            return pass;
        }
        std::swap(tmp, vals);
    }
    fatal("combinational evaluation did not converge after ",
          maxCombPasses, " passes (combinational loop?)");
}

void
SimState::markDirty(uint32_t port)
{
    dirty.mark(sched->nodeOf(port));
}

void
SimState::rebuildActiveByPort()
{
    std::swap(activeByPort, oldActiveByPort);
    std::swap(touched, oldTouched);
    // After the swap, activeByPort holds the lists from two rebuilds
    // ago; clear exactly the slots that were populated.
    for (uint32_t p : touched)
        activeByPort[p].clear();
    touched.clear();
    for (const std::vector<SAssign> *vec : activationCalls) {
        for (const SAssign &a : *vec) {
            if (activeByPort[a.dst].empty())
                touched.push_back(a.dst);
            activeByPort[a.dst].push_back(&a);
        }
    }
    // Dirty every port whose potential-driver list changed; ports in
    // oldTouched but not touched fell back to force/model/zero.
    for (uint32_t p : touched) {
        if (activeByPort[p] != oldActiveByPort[p])
            markDirty(p);
    }
    for (uint32_t p : oldTouched) {
        if (activeByPort[p] != oldActiveByPort[p])
            markDirty(p);
    }
}

void
SimState::diffForces()
{
    // Over-approximate: dirty everything forced in either cycle. Force
    // sets are tiny (top go + one hole per active group).
    for (const auto &[port, value] : forces)
        markDirty(port);
    for (const auto &[port, value] : prevForces)
        markDirty(port);
}

uint64_t
SimState::evalPort(uint32_t port, bool check_conflicts)
{
    return evalPort(port, check_conflicts, tmp.data());
}

uint64_t
SimState::evalPort(uint32_t port, bool check_conflicts,
                   uint64_t *scratch)
{
    // Driver priority mirrors the Jacobi pass order: active assignment
    // beats force beats model output beats the zero default.
    const SAssign *winner = nullptr;
    for (const SAssign *a : activeByPort[port]) {
        if (!a->guard->eval(vals.data()))
            continue;
        if (winner && check_conflicts) {
            fatal("multiple active drivers for port ",
                  prog->portName(port), ":\n  ",
                  prog->assignDesc(winner->id), "\n  ",
                  prog->assignDesc(a->id));
        }
        winner = a;
    }
    if (winner)
        return winner->srcConst ? winner->srcValue : vals[winner->srcPort];
    if (forcedStamp[port] == stamp)
        return forcedVal[port];
    if (PrimModel *m = sched->modelOf(port)) {
        // Concurrent partitioned workers each get their own scratch
        // plane (workerScratch) instead of sharing `tmp`.
        m->evalOutput(vals.data(), scratch, port);
        return scratch[port];
    }
    return 0;
}

void
SimState::evalNode(uint32_t node_index)
{
    const SimSchedule::Node &node = sched->nodes()[node_index];
    const uint32_t *mem = sched->memberPorts().data() + node.first;

    if (!node.cyclic) {
        uint32_t p = mem[0];
        uint64_t nv = evalPort(p, true);
        if (nv != vals[p]) {
            vals[p] = nv;
            for (const uint32_t *q = sched->fanoutBegin(p),
                                *e = sched->fanoutEnd(p);
                 q != e; ++q)
                markDirty(*q);
        }
        return;
    }

    // Non-trivial SCC: bounded local fixed point (Gauss-Seidel over the
    // members, which converges at least as fast as a Jacobi sweep).
    bool changed = true;
    int iter = 0;
    while (changed) {
        if (++iter > maxCombPasses) {
            std::string ports;
            for (uint32_t i = 0; i < node.count; ++i) {
                if (!ports.empty())
                    ports += ", ";
                ports += prog->portName(mem[i]);
            }
            fatal("combinational cycle did not settle after ",
                  maxCombPasses, " iterations; ports on the cycle: ",
                  ports);
        }
        changed = false;
        for (uint32_t i = 0; i < node.count; ++i) {
            uint32_t p = mem[i];
            uint64_t nv = evalPort(p, false);
            if (nv != vals[p]) {
                vals[p] = nv;
                portChanged[p] = 1;
                changed = true;
            }
        }
    }
    // Settled: re-check with conflict detection (values cannot change),
    // then wake external fanouts of members that moved.
    for (uint32_t i = 0; i < node.count; ++i)
        evalPort(mem[i], true);
    for (uint32_t i = 0; i < node.count; ++i) {
        uint32_t p = mem[i];
        if (!portChanged[p])
            continue;
        portChanged[p] = 0;
        for (const uint32_t *q = sched->fanoutBegin(p),
                            *e = sched->fanoutEnd(p);
             q != e; ++q) {
            if (sched->nodeOf(*q) != node_index)
                markDirty(*q);
        }
    }
}

void
SimState::bindSchedule()
{
    if (sched)
        return;
    // First evaluation: bind (and possibly build) the schedule and
    // size the engine's bookkeeping.
    sched = &prog->schedule();
    dirty.resize(static_cast<uint32_t>(sched->nodes().size()));
    portChanged.assign(prog->numPorts(), 0);
    forcedVal.assign(prog->numPorts(), 0);
    forcedStamp.assign(prog->numPorts(), 0);
    activeByPort.resize(prog->numPorts());
    oldActiveByPort.resize(prog->numPorts());
}

void
SimState::ensurePartitioned()
{
    if (partPlan)
        return;
    partPlan = std::make_unique<PartitionPlan>(buildPartitionPlan(
        *prog, *sched, partitionTarget(), threadsVal));
    partRunner = std::make_unique<PartitionRunner>(*partPlan);
    workerScratch.assign(partPlan->threads,
                         std::vector<uint64_t>(prog->numPorts(), 0));
}

/**
 * evalNode stripped of dirty-cone bookkeeping for the partitioned
 * full walk: every node runs every cycle, so fanout marking buys
 * nothing (and the shared dirty set would race across workers). The value
 * trajectory — including the SCC Gauss-Seidel iteration order and the
 * settled conflict re-check — is identical to evalNode's, which is
 * what makes partitioned results bit-identical to scalar ones.
 */
void
SimState::evalNodeFull(uint32_t node_index, uint64_t *scratch)
{
    const SimSchedule::Node &node = sched->nodes()[node_index];
    const uint32_t *mem = sched->memberPorts().data() + node.first;

    if (!node.cyclic) {
        uint32_t p = mem[0];
        vals[p] = evalPort(p, true, scratch);
        return;
    }

    bool changed = true;
    int iter = 0;
    while (changed) {
        if (++iter > maxCombPasses) {
            std::string ports;
            for (uint32_t i = 0; i < node.count; ++i) {
                if (!ports.empty())
                    ports += ", ";
                ports += prog->portName(mem[i]);
            }
            fatal("combinational cycle did not settle after ",
                  maxCombPasses, " iterations; ports on the cycle: ",
                  ports);
        }
        changed = false;
        for (uint32_t i = 0; i < node.count; ++i) {
            uint32_t p = mem[i];
            uint64_t nv = evalPort(p, false, scratch);
            if (nv != vals[p]) {
                vals[p] = nv;
                changed = true;
            }
        }
    }
    for (uint32_t i = 0; i < node.count; ++i)
        evalPort(mem[i], true, scratch);
}

bool
SimState::partitionedCycle()
{
    bindSchedule();
    ensurePartitioned();
    bool par = partRunner->beginCycle(crew);
    // The partitioned walk's clock edge does not seed the dirty set,
    // so a serial cycle after a parallel one walks everything.
    if (parallelCycle && !par)
        activationValid = false;
    parallelCycle = par;
    return par;
}

int
SimState::combPartitioned()
{
    ++stamp;
    for (const auto &[port, value] : forces) {
        forcedVal[port] = value;
        forcedStamp[port] = stamp;
    }

    // The partitioned walk evaluates the full schedule every cycle, so
    // only the per-port active-driver lists need maintaining — no
    // dirty diffing. rebuildActiveByPort still marks nodes dirty as a
    // side effect; clear those marks so a later scalar cycle (or
    // engine switch) starts clean.
    if (!activationValid || activationCalls != prevActivationCalls)
        rebuildActiveByPort();
    activationValid = true;
    dirty.clear();

    const PartitionPlan &p = *partPlan;
    partRunner->run(
        [&](uint32_t task, unsigned worker) {
            uint64_t *scratch = workerScratch[worker].data();
            for (uint32_t n : p.tasks[task].nodes)
                evalNodeFull(n, scratch);
        },
        crew);
    return static_cast<int>(sched->nodes().size());
}

int
SimState::combLevelized()
{
    bindSchedule();

    ++stamp;
    for (const auto &[port, value] : forces) {
        forcedVal[port] = value;
        forcedStamp[port] = stamp;
    }

    if (!activationValid) {
        dirty.markAll();
        rebuildActiveByPort();
    } else {
        if (activationCalls != prevActivationCalls)
            rebuildActiveByPort();
        if (forces != prevForces)
            diffForces();
    }
    activationValid = true;

    return dirty.drain([this](uint32_t node) { evalNode(node); });
}

void
SimState::clock()
{
    if (engineVal == Engine::Compiled) {
        // The generated clock code advances every stateful primitive
        // (registers and memories through the bound model storage);
        // calling the models' clock() too would double-advance them.
        ensureCompiled();
        compiledMod->clock(compiledInst, vals.data());
        checkCompiledError();
        return;
    }
    const auto &models = prog->models();
    if (engineVal == Engine::Levelized && parallelCycle) {
        // Clock edges are mutually independent: every model reads the
        // shared settled port values and writes only its own private
        // state, so a plain range split over the partition plan's
        // thread count is exact (no ownership or ordering needed).
        // The dirty seeding below is skipped: the next cycle either
        // walks the full partition or, switching to serial, the whole
        // schedule (see partitionedCycle()).
        auto edge = [&](size_t i) { models[i]->clock(vals.data()); };
        const unsigned w = partPlan->threads;
        if (crew && crew->hold(w)) {
            crew->run([&](unsigned part) {
                for (size_t i = models.size() * part / w,
                            e = models.size() * (part + 1) / w;
                     i < e; ++i)
                    edge(i);
            });
        } else {
            WorkPool::global().parallelFor(models.size(), w, edge);
        }
        return;
    }
    for (const auto &m : models)
        m->clock(vals.data());
    if (engineVal == Engine::Levelized && sched) {
        // Seed the next cycle's dirty set: outputs of stateful models
        // whose post-edge value differs from the settled one.
        const auto &stateful = sched->statefulModels();
        for (size_t i = 0; i < stateful.size(); ++i) {
            stateful[i]->evalComb(vals.data(), tmp.data());
            for (uint32_t o : sched->statefulOutputs(i)) {
                if (tmp[o] != vals[o])
                    markDirty(o);
            }
        }
    }
}

} // namespace calyx::sim

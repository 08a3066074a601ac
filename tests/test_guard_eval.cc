/**
 * Guard evaluation through SimProgram's guard pool: the evaluation
 * form (normalized, short-circuit, stack-free) against a recursive
 * evaluator over the IR tree, deep nesting, and interning.
 */
#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <random>
#include <set>

#include "frontends/systolic/systolic.h"
#include "passes/pipeline_spec.h"
#include "sim/env.h"

namespace calyx {
namespace {

using sim::SExpr;

/** The reference: the IR tree's meaning, evaluated recursively. */
bool
evalTree(const GuardPtr &g,
         const std::function<uint64_t(const PortRef &)> &value)
{
    switch (g->kind()) {
      case Guard::Kind::True:
        return true;
      case Guard::Kind::Port:
        return value(g->port()) & 1; // a port leaf reads bit 0 only
      case Guard::Kind::Not:
        return !evalTree(g->left(), value);
      case Guard::Kind::And:
        return evalTree(g->left(), value) && evalTree(g->right(), value);
      case Guard::Kind::Or:
        return evalTree(g->left(), value) || evalTree(g->right(), value);
      case Guard::Kind::Cmp: {
        uint64_t a = value(g->lhs()), b = value(g->rhs());
        switch (g->cmpOp()) {
          case Guard::CmpOp::Eq:
            return a == b;
          case Guard::CmpOp::Neq:
            return a != b;
          case Guard::CmpOp::Lt:
            return a < b;
          case Guard::CmpOp::Gt:
            return a > b;
          case Guard::CmpOp::Leq:
            return a <= b;
          case Guard::CmpOp::Geq:
            return a >= b;
        }
      }
    }
    ADD_FAILURE() << "bad guard kind";
    return false;
}

constexpr int kBitPorts = 3, kWidePorts = 3;

std::string
bitCell(int i)
{
    return "b" + std::to_string(i);
}

std::string
wideCell(int i)
{
    return "w" + std::to_string(i);
}

/** Random guard trees over 1-bit cells b*, 64-bit cells w* and
 * constants, biased toward the shapes normalization rewrites. */
class GuardGen
{
  public:
    explicit GuardGen(uint64_t seed) : rng(seed) {}

    uint64_t
    interesting()
    {
        static const uint64_t pool[] = {0,
                                        1,
                                        2,
                                        3,
                                        5,
                                        7,
                                        8,
                                        255,
                                        uint64_t(1) << 63,
                                        UINT64_MAX - 1,
                                        UINT64_MAX};
        uint64_t v = pick(4) == 0 ? rng()
                                  : pool[pick(std::size(pool))];
        switch (pick(4)) {
          case 0:
            return v - 1; // near a boundary (wraps at 0)
          case 1:
            return v + 1;
          default:
            return v;
        }
    }

    PortRef
    widePort()
    {
        return cellPort(wideCell(pick(kWidePorts)), "out");
    }

    PortRef
    operand()
    {
        return pick(3) == 0 ? constant(interesting(), 64) : widePort();
    }

    Guard::CmpOp
    cmpOp()
    {
        return static_cast<Guard::CmpOp>(pick(6));
    }

    /** `p op k` with the constant on either side, op from `ops`. */
    GuardPtr
    bound(const PortRef &p, uint64_t k,
          std::initializer_list<Guard::CmpOp> ops)
    {
        Guard::CmpOp op = *(ops.begin() + pick(ops.size()));
        if (pick(2))
            return Guard::cmp(op, p, constant(k, 64));
        static const Guard::CmpOp mirror[] = {
            Guard::CmpOp::Eq, Guard::CmpOp::Neq, Guard::CmpOp::Gt,
            Guard::CmpOp::Lt, Guard::CmpOp::Geq, Guard::CmpOp::Leq};
        return Guard::cmp(mirror[static_cast<int>(op)], constant(k, 64),
                          p);
    }

    /** A same-port range conjunction: lower bound (>= or >) and upper
     * bound (< or <=), in either order and either operand order;
     * sometimes empty or inverted. */
    GuardPtr
    range()
    {
        PortRef p = widePort();
        uint64_t lo = interesting(), hi = interesting();
        if (pick(3) && lo > hi)
            std::swap(lo, hi);
        GuardPtr low = bound(p, lo, {Guard::CmpOp::Geq, Guard::CmpOp::Gt});
        GuardPtr high = bound(p, hi, {Guard::CmpOp::Lt, Guard::CmpOp::Leq});
        return pick(2) ? Guard::conj(low, high) : Guard::conj(high, low);
    }

    GuardPtr
    leaf()
    {
        switch (pick(5)) {
          case 0:
            return Guard::trueGuard();
          case 1:
            return Guard::fromPort(
                pick(3) ? cellPort(bitCell(pick(kBitPorts)), "out")
                        : widePort());
          case 2:
            return range();
          default:
            return Guard::cmp(cmpOp(), operand(), operand());
        }
    }

    GuardPtr
    tree(int depth)
    {
        if (depth == 0 || pick(4) == 0)
            return leaf();
        switch (pick(5)) {
          case 0:
            return Guard::negate(tree(depth - 1));
          case 1:
          case 2:
            return Guard::conj(tree(depth - 1), tree(depth - 1));
          default:
            return Guard::disj(tree(depth - 1), tree(depth - 1));
        }
    }

    /** A port value: wide ports near the constants in play, 1-bit ports
     * often with upper bits set. */
    uint64_t
    value(bool one_bit)
    {
        if (one_bit)
            return pick(2) ? pick(2) : (rng() | 2);
        return interesting();
    }

    size_t pick(size_t n) { return rng() % n; }

  private:
    std::mt19937_64 rng;
};

TEST(GuardEval, PoolMatchesTreeOnRandomGuards)
{
    constexpr int kGuards = 4000, kVectors = 48;
    GuardGen gen(0x5eed);
    Context ctx;
    Component &comp = ctx.addComponent("main");
    for (int i = 0; i < kBitPorts; ++i)
        comp.addCell(bitCell(i), "std_reg", {1}, ctx);
    for (int i = 0; i < kWidePorts; ++i)
        comp.addCell(wideCell(i), "std_reg", {64}, ctx);
    comp.addCell("sink", "std_reg", {1}, ctx);
    std::vector<GuardPtr> trees;
    for (int i = 0; i < kGuards; ++i) {
        trees.push_back(gen.tree(1 + i % 6));
        comp.continuousAssignments().emplace_back(
            cellPort("sink", "in"), constant(1, 1), trees.back());
    }

    sim::SimProgram sp(ctx, "main");
    const auto &assigns = sp.root().continuous;
    ASSERT_EQ(assigns.size(), trees.size());
    std::vector<uint64_t> vals(sp.numPorts(), 0);
    auto value = [&](const PortRef &r) {
        return r.isConst() ? r.value
                           : vals[sp.portId(r.parent.str() + "." +
                                            r.port.str())];
    };
    size_t checked = 0, trues = 0;
    for (int v = 0; v < kVectors; ++v) {
        for (int i = 0; i < kBitPorts; ++i)
            vals[sp.portId(bitCell(i) + ".out")] = gen.value(true);
        for (int i = 0; i < kWidePorts; ++i)
            vals[sp.portId(wideCell(i) + ".out")] = gen.value(false);
        for (size_t i = 0; i < trees.size(); ++i) {
            bool want = evalTree(trees[i], value);
            ASSERT_EQ(assigns[i].guard->eval(vals.data()), want)
                << "guard " << trees[i]->str() << " vector " << v;
            ++checked;
            trues += want;
        }
    }
    // Both outcomes are well represented.
    EXPECT_GT(trues, checked / 5);
    EXPECT_LT(trues, checked * 4 / 5);
}

TEST(GuardEval, NormalFormRewrites)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("f", "std_reg", {4}, ctx);
    comp.addCell("g", "std_reg", {4}, ctx);
    comp.addCell("sink", "std_reg", {1}, ctx);
    PortRef f = cellPort("f", "out"), g = cellPort("g", "out");
    auto k = [](uint64_t v) { return constant(v, 4); };
    using Op = Guard::CmpOp;
    std::vector<GuardPtr> guards = {
        // [0] !(f == 3): one negated range test.
        Guard::negate(Guard::cmp(Op::Eq, f, k(3))),
        // [1] 2 <= f & f < 6: one fused range test.
        Guard::conj(Guard::cmp(Op::Leq, k(2), f), Guard::cmp(Op::Lt, f, k(6))),
        // [2] f >= 6 & f < 2: an empty range, constant false.
        Guard::conj(Guard::cmp(Op::Geq, f, k(6)), Guard::cmp(Op::Lt, f, k(2))),
        // [3] 1 < 2 | f == 1: constant true.
        Guard::disj(Guard::cmp(Op::Lt, k(1), k(2)),
                    Guard::cmp(Op::Eq, f, k(1))),
        // [4] ((a & b) & c) under one Not: a flat Or of three tests.
        Guard::negate(Guard::conj(
            Guard::conj(Guard::cmp(Op::Eq, f, g), Guard::cmp(Op::Lt, f, g)),
            Guard::cmp(Op::Gt, f, g))),
    };
    for (const GuardPtr &gd : guards)
        comp.continuousAssignments().emplace_back(cellPort("sink", "in"),
                                                  constant(1, 1), gd);
    sim::SimProgram sp(ctx, "main");
    auto code = [&](size_t i) { return sp.root().continuous[i].guard; };

    ASSERT_EQ(code(0)->code.size(), 1u);
    EXPECT_EQ(code(0)->code[0].op, SExpr::Test::Op::In);
    EXPECT_EQ(code(0)->code[0].next[1], SExpr::resultFalse);

    ASSERT_EQ(code(1)->code.size(), 1u);
    EXPECT_EQ(code(1)->code[0].op, SExpr::Test::Op::In);
    EXPECT_EQ(code(1)->code[0].lo, 2u);
    EXPECT_EQ(code(1)->code[0].span, 3u);

    EXPECT_TRUE(code(2)->code.empty());
    EXPECT_EQ(code(2)->start, SExpr::resultFalse);
    EXPECT_TRUE(code(3)->code.empty());
    EXPECT_EQ(code(3)->start, SExpr::resultTrue);

    ASSERT_EQ(code(4)->code.size(), 3u);
    for (uint32_t i = 0; i < 2; ++i) {
        // A failed conjunct makes the Or true; each test skips ahead.
        const SExpr::Test &t = code(4)->code[i];
        EXPECT_TRUE(t.next[0] == SExpr::resultTrue ||
                    t.next[1] == SExpr::resultTrue);
        EXPECT_TRUE(t.next[0] == i + 1 || t.next[1] == i + 1);
    }
}

/** Run `fn` on a thread with a `bytes` stack. */
void
onSmallStack(size_t bytes, const std::function<void()> &fn)
{
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, bytes);
    pthread_t th;
    auto call = [](void *arg) -> void * {
        (*static_cast<const std::function<void()> *>(arg))();
        return nullptr;
    };
    ASSERT_EQ(pthread_create(&th, &attr, call,
                             const_cast<std::function<void()> *>(&fn)),
              0);
    pthread_join(th, nullptr);
    pthread_attr_destroy(&attr);
}

TEST(GuardEval, HundredThousandLevelsOnSmallStack)
{
    // 100,000 levels alternating And / Or / Not, each And and Or adding
    // one leaf, as left-deep (deep operand first) and right-deep
    // postorder. The postorder form is written directly: the IR tree's
    // own recursive walks (printing, destruction) are not under test.
    // Interning and evaluation run on a 64 KiB stack, where recursion
    // per level would overflow many times over.
    constexpr uint32_t kLevels = 100000;
    using Node = SExpr::Node;
    auto leafAt = [](uint32_t level) {
        Node n;
        if (level % 2) {
            n.op = SExpr::Op::Port;
            n.a = level % 4; // ports 0..3, 1-bit reads
        } else {
            n.op = SExpr::Op::Geq;
            n.a = 4;
            n.bImm = true;
            n.immB = level % 7;
        }
        return n;
    };
    auto opAt = [](uint32_t level) {
        static const SExpr::Op ops[] = {SExpr::Op::And, SExpr::Op::Or,
                                        SExpr::Op::Not};
        Node n;
        n.op = ops[level % 3];
        return n;
    };
    auto leafValue = [&](uint32_t level, const std::vector<uint64_t> &v) {
        Node n = leafAt(level);
        return n.op == SExpr::Op::Port ? (v[n.a] & 1) != 0
                                       : v[n.a] >= n.immB;
    };

    std::vector<Node> leftDeep{leafAt(0)}, rightDeep;
    for (uint32_t level = 1; level <= kLevels; ++level) {
        if (opAt(level).op != SExpr::Op::Not)
            leftDeep.push_back(leafAt(level));
        leftDeep.push_back(opAt(level));
    }
    for (uint32_t level = kLevels; level >= 1; --level) {
        if (opAt(level).op != SExpr::Op::Not)
            rightDeep.push_back(leafAt(level));
    }
    rightDeep.push_back(leafAt(0));
    for (uint32_t level = 1; level <= kLevels; ++level)
        rightDeep.push_back(opAt(level));

    std::mt19937_64 rng(7);
    std::vector<std::vector<uint64_t>> vectors;
    for (int i = 0; i < 64; ++i) {
        std::vector<uint64_t> v(5);
        for (uint64_t &x : v)
            x = rng() % 9;
        vectors.push_back(v);
    }
    // The reference folds the levels inside out, iteratively. And and
    // Or are commutative, so both postorder forms mean the same.
    std::vector<bool> want;
    for (const auto &v : vectors) {
        bool acc = leafValue(0, v);
        for (uint32_t level = 1; level <= kLevels; ++level) {
            switch (opAt(level).op) {
              case SExpr::Op::And:
                acc = acc && leafValue(level, v);
                break;
              case SExpr::Op::Or:
                acc = acc || leafValue(level, v);
                break;
              default:
                acc = !acc;
                break;
            }
        }
        want.push_back(acc);
    }

    for (const std::vector<Node> *nodes : {&leftDeep, &rightDeep}) {
        std::vector<bool> got;
        onSmallStack(64 * 1024, [&] {
            sim::GuardPool pool;
            const SExpr *e = pool.intern(*nodes);
            for (const auto &v : vectors)
                got.push_back(e->eval(v.data()));
        });
        EXPECT_EQ(got, want);
    }
}

TEST(GuardEval, SystolicInternsOneEntryPerDistinctGuard)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = 8;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    const sim::GuardPool &pool = sp.guards();

    std::set<const SExpr *> entries, used;
    std::set<std::vector<uint64_t>> forms;
    for (size_t i = 0; i < pool.size(); ++i) {
        entries.insert(&pool[i]);
        std::vector<uint64_t> form;
        for (const SExpr::Node &n : pool[i].nodes) {
            form.insert(form.end(),
                        {uint64_t(n.op), n.a, n.b, n.immA, n.immB,
                         uint64_t(n.aImm) << 1 | n.bImm});
        }
        forms.insert(form);
    }
    size_t assignments = 0;
    sp.forEachAssignment([&](const sim::SAssign &a, bool) {
        ++assignments;
        EXPECT_TRUE(entries.count(a.guard));
        used.insert(a.guard);
    });
    EXPECT_EQ(forms.size(), pool.size()); // no two entries alike
    EXPECT_EQ(used.size(), pool.size());  // every entry in use
    EXPECT_LT(pool.size(), assignments);
}

} // namespace
} // namespace calyx

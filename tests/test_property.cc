#include <gtest/gtest.h>

#include <random>

#include "helpers.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace calyx {
namespace {

/**
 * Random well-formed Calyx programs: a pool of registers, adders and
 * comparators; random simple groups (register writes, increments); and
 * a random control tree of seq/par/if/while. Writes in parallel arms
 * use disjoint registers so programs stay conflict-free.
 */
class RandomProgram
{
  public:
    explicit RandomProgram(uint32_t seed) : rng(seed) {}

    Context
    build()
    {
        Context ctx;
        auto b = ComponentBuilder::create(ctx, "main");
        comp = &b.component();
        context_ = &ctx;

        num_regs = 2 + rng() % 4;
        for (int r = 0; r < num_regs; ++r) {
            b.reg(reg(r), 8);
            b.cell("add" + std::to_string(r), "std_add", {8});
        }
        // A bounded loop counter so while loops always terminate.
        b.reg("cnt", 8);
        b.cell("cnt_add", "std_add", {8});
        b.cell("cnt_lt", "std_lt", {8});
        Group &tick = comp->addGroup("tick");
        tick.add(cellPort("cnt_add", "left"), cellPort("cnt", "out"));
        tick.add(cellPort("cnt_add", "right"), constant(1, 8));
        tick.add(cellPort("cnt", "in"), cellPort("cnt_add", "out"));
        tick.add(cellPort("cnt", "write_en"), constant(1, 1));
        tick.add(tick.doneHole(), cellPort("cnt", "done"));
        Group &cond = comp->addGroup("loop_cond");
        cond.add(cellPort("cnt_lt", "left"), cellPort("cnt", "out"));
        cond.add(cellPort("cnt_lt", "right"),
                 constant(3 + rng() % 5, 8));
        cond.add(cond.doneHole(), constant(1, 1));

        ControlPtr ctrl = genControl(2, allRegs());
        comp->setControl(std::move(ctrl));
        return std::move(ctx);
    }

    static std::string
    reg(int r)
    {
        return "r" + std::to_string(r);
    }

  private:
    std::vector<int>
    allRegs() const
    {
        std::vector<int> v(num_regs);
        for (int i = 0; i < num_regs; ++i)
            v[i] = i;
        return v;
    }

    /** A group writing `value + r_src` into r_dst. */
    std::string
    genGroup(const std::vector<int> &allowed)
    {
        int dst = allowed[rng() % allowed.size()];
        int src = static_cast<int>(rng() % num_regs);
        std::string name = "g" + std::to_string(group_count++);
        Group &g = comp->addGroup(name);
        std::string adder = "add" + std::to_string(dst);
        g.add(cellPort(adder, "left"),
              cellPort(reg(src), "out"));
        g.add(cellPort(adder, "right"),
              constant(rng() % 16, 8));
        g.add(cellPort(reg(dst), "in"), cellPort(adder, "out"));
        g.add(cellPort(reg(dst), "write_en"), constant(1, 1));
        g.add(g.doneHole(), cellPort(reg(dst), "done"));
        return name;
    }

    ControlPtr
    genControl(int depth, const std::vector<int> &allowed)
    {
        int kind = depth == 0 ? 0 : static_cast<int>(rng() % 10);
        if (kind < 4 || allowed.empty()) {
            return std::make_unique<Enable>(genGroup(
                allowed.empty() ? allRegs() : allowed));
        }
        if (kind < 6) { // seq
            size_t n = 2 + rng() % 3;
            auto seq = std::make_unique<Seq>();
            for (size_t i = 0; i < n; ++i)
                seq->add(genControl(depth - 1, allowed));
            return seq;
        }
        if (kind < 8 && allowed.size() >= 2) { // par, disjoint registers
            size_t split = 1 + rng() % (allowed.size() - 1);
            std::vector<int> left(allowed.begin(),
                                  allowed.begin() + split);
            std::vector<int> right(allowed.begin() + split,
                                   allowed.end());
            auto par = std::make_unique<Par>();
            par->add(genControl(depth - 1, left));
            par->add(genControl(depth - 1, right));
            return par;
        }
        if (kind < 9) { // if on a register's low bit
            int r = static_cast<int>(rng() % num_regs);
            std::string cname =
                "ifc" + std::to_string(group_count++);
            Group &cond = comp->addGroup(cname);
            std::string eq = "eq" + cname;
            comp->addCell(eq, "std_eq", {8}, *context_);
            cond.add(cellPort(eq, "left"), cellPort(reg(r), "out"));
            cond.add(cellPort(eq, "right"), constant(0, 8));
            cond.add(cond.doneHole(), constant(1, 1));
            return std::make_unique<If>(
                cellPort(eq, "out"), cname,
                genControl(depth - 1, allowed),
                genControl(depth - 1, allowed));
        }
        // Bounded while: reset cnt, loop while cnt < limit,
        // incrementing cnt once per iteration.
        std::string init = "wi" + std::to_string(group_count++);
        Group &gi = comp->addGroup(init);
        gi.add(cellPort("cnt", "in"), constant(0, 8));
        gi.add(cellPort("cnt", "write_en"), constant(1, 1));
        gi.add(gi.doneHole(), cellPort("cnt", "done"));
        auto body = std::make_unique<Seq>();
        body->add(genControl(depth - 1, allowed));
        body->add(std::make_unique<Enable>("tick"));
        auto seq = std::make_unique<Seq>();
        seq->add(std::make_unique<Enable>(init));
        seq->add(std::make_unique<While>(cellPort("cnt_lt", "out"),
                                         "loop_cond", std::move(body)));
        return seq;
    }

    std::mt19937 rng;
    Component *comp = nullptr;
    Context *context_ = nullptr;
    int num_regs = 0;
    int group_count = 0;
};

class PropertySeed : public ::testing::TestWithParam<uint32_t>
{};

/** Printer output parses back to an identical program. */
TEST_P(PropertySeed, PrinterParserRoundTrip)
{
    RandomProgram gen(GetParam());
    Context ctx = gen.build();
    std::string once = Printer::toString(ctx);
    Context reparsed = Parser::parseProgram(once);
    EXPECT_EQ(Printer::toString(reparsed), once);
}

/** Compiled designs end in the same architectural state as the
 *  interpreter, in every optimization configuration. */
TEST_P(PropertySeed, CompilationPreservesSemantics)
{
    uint32_t seed = GetParam();
    // Interpreter oracle.
    RandomProgram gen(seed);
    Context source = gen.build();
    sim::SimProgram sp(source, "main");
    sim::Interp interp(sp);
    interp.run(2'000'000);
    std::vector<uint64_t> expect;
    for (const auto &cell : source.component("main").cells()) {
        if (cell->type() == "std_reg" && cell->name() != "cnt")
            expect.push_back(
                *sp.findModel(cell->name())->registerValue());
    }

    // Resource sharing and the static pass on and off; dead-cell
    // removal off so every register can be compared.
    const char *specs[] = {
        "all,-resource-sharing,-register-sharing,-static,-dead-cell-removal",
        "all,-register-sharing,-static,-dead-cell-removal",
        "all,-resource-sharing,-register-sharing,-dead-cell-removal",
        "all,-register-sharing,-dead-cell-removal",
    };
    for (const char *spec : specs) {
        RandomProgram gen2(seed);
        Context ctx = gen2.build();
        passes::RunOptions opts;
        opts.verify = true;
        passes::runPipeline(ctx, spec, opts);
        sim::SimProgram sp2(ctx, "main");
        sim::CycleSim cs(sp2);
        cs.run(2'000'000);
        std::vector<uint64_t> got;
        for (const auto &cell : source.component("main").cells()) {
            if (cell->type() == "std_reg" && cell->name() != "cnt")
                got.push_back(
                    *sp2.findModel(cell->name())->registerValue());
        }
        EXPECT_EQ(got, expect)
            << "seed " << seed << " pipeline " << spec;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed,
                         ::testing::Range(0u, 40u));

} // namespace
} // namespace calyx

/**
 * @file
 * Quickstart: the paper's running example (§2) — a parallel reduction
 * tree summing four memory elements — built with the public builder
 * API, interpreted, compiled, simulated, and emitted as SystemVerilog.
 *
 * Demonstrates the split representation: groups define the data path,
 * the control program (while/seq/par) defines the execution schedule.
 */
#include <iostream>

#include "emit/verilog.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"
#include "support/text.h"

using namespace calyx;

namespace {

/**
 * Reduction tree over four 4-element memories (Figure 1): every step
 * adds m1[i]+m2[i] and m3[i]+m4[i] in parallel (layer 1), then combines
 * the two partial sums (layer 2), accumulating into r2.
 */
Context
buildReductionTree()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");

    for (int m = 1; m <= 4; ++m)
        b.mem1d("m" + std::to_string(m), 32, 4);
    b.reg("r0", 32);
    b.reg("r1", 32);
    b.reg("r2", 32);
    b.reg("i", 3);
    b.add("a0", 32);
    b.add("a1", 32);
    b.add("a2", 32);
    b.add("acc", 32);
    b.add("incr", 3);
    b.cell("cmp", "std_lt", {3});
    // The 3-bit counter (counts to 4) narrows to the 2-bit address.
    b.cell("iaddr", "std_slice", {3, 2});
    Component &comp = b.component();
    comp.continuousAssignments().emplace_back(cellPort("iaddr", "in"),
                                              cellPort("i", "out"));

    // Layer 1: r0 = m1[i] + m2[i], r1 = m3[i] + m4[i].
    Group &add0 = b.group("add0");
    add0.add(cellPort("m1", "addr0"), cellPort("iaddr", "out"));
    add0.add(cellPort("m2", "addr0"), cellPort("iaddr", "out"));
    add0.add(cellPort("a0", "left"), cellPort("m1", "read_data"));
    add0.add(cellPort("a0", "right"), cellPort("m2", "read_data"));
    add0.add(cellPort("r0", "in"), cellPort("a0", "out"));
    add0.add(cellPort("r0", "write_en"), constant(1, 1));
    add0.add(add0.doneHole(), cellPort("r0", "done"));

    Group &add1 = b.group("add1");
    add1.add(cellPort("m3", "addr0"), cellPort("iaddr", "out"));
    add1.add(cellPort("m4", "addr0"), cellPort("iaddr", "out"));
    add1.add(cellPort("a1", "left"), cellPort("m3", "read_data"));
    add1.add(cellPort("a1", "right"), cellPort("m4", "read_data"));
    add1.add(cellPort("r1", "in"), cellPort("a1", "out"));
    add1.add(cellPort("r1", "write_en"), constant(1, 1));
    add1.add(add1.doneHole(), cellPort("r1", "done"));

    // Layer 2: r2 += r0 + r1.
    Group &add2 = b.group("add2");
    add2.add(cellPort("a2", "left"), cellPort("r0", "out"));
    add2.add(cellPort("a2", "right"), cellPort("r1", "out"));
    add2.add(cellPort("acc", "left"), cellPort("r2", "out"));
    add2.add(cellPort("acc", "right"), cellPort("a2", "out"));
    add2.add(cellPort("r2", "in"), cellPort("acc", "out"));
    add2.add(cellPort("r2", "write_en"), constant(1, 1));
    add2.add(add2.doneHole(), cellPort("r2", "done"));

    Group &incr_idx = b.group("incr_idx");
    incr_idx.add(cellPort("incr", "left"), cellPort("i", "out"));
    incr_idx.add(cellPort("incr", "right"), constant(1, 3));
    incr_idx.add(cellPort("i", "in"), cellPort("incr", "out"));
    incr_idx.add(cellPort("i", "write_en"), constant(1, 1));
    incr_idx.add(incr_idx.doneHole(), cellPort("i", "done"));

    Group &cond = b.group("cond");
    cond.add(cellPort("cmp", "left"), cellPort("i", "out"));
    cond.add(cellPort("cmp", "right"), constant(4, 3));
    cond.add(cond.doneHole(), constant(1, 1));

    // Schedule (Figure 1a): while i < 4: par{add0, add1}; add2; i++.
    std::vector<ControlPtr> layer1;
    layer1.push_back(ComponentBuilder::enable("add0"));
    layer1.push_back(ComponentBuilder::enable("add1"));
    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::par(std::move(layer1)));
    body.push_back(ComponentBuilder::enable("add2"));
    body.push_back(ComponentBuilder::enable("incr_idx"));
    b.component().setControl(ComponentBuilder::whileStmt(
        cellPort("cmp", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    return ctx;
}

void
fillInputs(sim::SimProgram &sp)
{
    for (int m = 1; m <= 4; ++m) {
        auto *mem = sp.findModel("m" + std::to_string(m))->memory();
        for (int i = 0; i < 4; ++i)
            (*mem)[i] = m * 10 + i; // m1 = {10,11,12,13}, ...
    }
}

} // namespace

int
main()
{
    // 1. Build and pretty-print the source program.
    Context source = buildReductionTree();
    std::cout << "==== Calyx source ====\n"
              << Printer::toString(source) << "\n";

    // 2. Execute with the reference interpreter.
    {
        sim::SimProgram sp(source, "main");
        fillInputs(sp);
        sim::Interp interp(sp);
        uint64_t cycles = interp.run();
        std::cout << "interpreter: sum = "
                  << *sp.findModel("r2")->registerValue() << " in "
                  << cycles << " cycles\n";
    }

    // 3. Compile to structural form and simulate (Verilator stand-in).
    for (bool sensitive : {false, true}) {
        Context ctx = buildReductionTree();
        passes::runPipeline(ctx, sensitive
                                     ? "all,-resource-sharing,-register-sharing"
                                     : "default");
        sim::SimProgram sp(ctx, "main");
        fillInputs(sp);
        sim::CycleSim cs(sp);
        uint64_t cycles = cs.run();
        std::cout << (sensitive ? "latency-sensitive  "
                                : "latency-insensitive")
                  << ": sum = " << *sp.findModel("r2")->registerValue()
                  << " in " << cycles << " cycles\n";
    }

    // 4. Emit SystemVerilog.
    Context ctx = buildReductionTree();
    passes::runPipeline(ctx, "default");
    std::string sv = emit::VerilogBackend().emitString(ctx);
    std::cout << "emitted " << countLines(sv)
              << " lines of SystemVerilog\n";
    return 0;
}

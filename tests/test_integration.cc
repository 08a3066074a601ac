#include <gtest/gtest.h>

#include "emit/verilog.h"
#include "estimate/area.h"
#include "helpers.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/collapse_control.h"
#include "passes/infer_latency.h"
#include "passes/resource_sharing.h"
#include "support/error.h"

namespace calyx {
namespace {

/**
 * End-to-end flows over textual IL programs, the way the futil driver
 * consumes them: parse -> pipeline -> simulate / emit.
 */
uint64_t
runText(const std::string &source, const std::string &reg,
        const std::string &spec = "default", uint64_t *cycles = nullptr)
{
    Context ctx = Parser::parseProgram(source);
    passes::runPipeline(ctx, spec);
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::CycleSim cs(sp);
    uint64_t c = cs.run();
    if (cycles)
        *cycles = c;
    return *sp.findModel(reg)->registerValue();
}

const char *fig2_program = R"(
component main() -> () {
  cells { x = std_reg(32); }
  wires {
    group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
    group two { x.in = 32'd2; x.write_en = 1'd1; two[done] = x.done; }
  }
  control { seq { one; two } }
}
)";

TEST(Integration, PaperFigure2)
{
    EXPECT_EQ(runText(fig2_program, "x"), 2u);
}

TEST(Integration, TextualWhileLoop)
{
    const char *src = R"(
component main() -> () {
  cells {
    acc = std_reg(16);
    i = std_reg(8);
    lt = std_lt(8);
    add_acc = std_add(16);
    add_i = std_add(8);
  }
  wires {
    group init { i.in = 8'd0; i.write_en = 1'd1; init[done] = i.done; }
    group cond {
      lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1;
    }
    group work {
      add_acc.left = acc.out; add_acc.right = 16'd7;
      acc.in = add_acc.out; acc.write_en = 1'd1;
      work[done] = acc.done;
    }
    group step {
      add_i.left = i.out; add_i.right = 8'd1;
      i.in = add_i.out; i.write_en = 1'd1;
      step[done] = i.done;
    }
  }
  control {
    seq { init; while lt.out with cond { seq { work; step } } }
  }
}
)";
    for (const char *spec :
         {"default", "all,-resource-sharing,-register-sharing"})
        EXPECT_EQ(runText(src, "acc", spec), 70u) << spec;
}

TEST(Integration, MultiComponentProgram)
{
    // A two-level hierarchy defined textually: main invokes a counter
    // component three times.
    const char *src = R"(
component bump3() -> () {
  cells { r = std_reg(8); a = std_add(8); }
  wires {
    group add3 {
      a.left = r.out; a.right = 8'd3;
      r.in = a.out; r.write_en = 1'd1;
      add3[done] = r.done;
    }
  }
  control { add3; }
}
component main() -> () {
  cells { b = bump3(); t = std_reg(8); }
  wires {
    group call { b.go = 1'd1; call[done] = b.done; }
    group grab {
      t.in = 8'd1; t.write_en = 1'd1; grab[done] = t.done;
    }
  }
  control { seq { call; call; grab; call } }
}
)";
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, "default");
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    cs.run();
    EXPECT_EQ(*sp.findModel("b/r")->registerValue(), 9u);
}

TEST(Integration, VerifyModeCatchesNothingOnGoodPrograms)
{
    Context ctx = Parser::parseProgram(fig2_program);
    passes::RunOptions options;
    options.verify = true;
    EXPECT_NO_THROW(passes::runPipeline(ctx, "all", options));
}

TEST(Integration, VerilogForTextProgram)
{
    Context ctx = Parser::parseProgram(fig2_program);
    passes::runPipeline(ctx, "default");
    std::string sv = emit::VerilogBackend().emitString(ctx);
    EXPECT_NE(sv.find("module main("), std::string::npos);
    // The two constants survive into the mux chain.
    EXPECT_NE(sv.find("32'd1"), std::string::npos);
    EXPECT_NE(sv.find("32'd2"), std::string::npos);
}

TEST(Integration, AreaForTextProgram)
{
    Context ctx = Parser::parseProgram(fig2_program);
    passes::runPipeline(ctx, "default");
    estimate::AreaEstimator est(ctx);
    auto area = est.estimateProgram();
    EXPECT_GT(area.luts, 0.0);
    EXPECT_GE(area.registers, 2); // x + the seq FSM
}

TEST(Integration, ExternPrimitiveEndToEnd)
{
    // Declare an extern alias of the sqrt interface; the simulator has
    // no model for it, so simulation must fail cleanly while printing
    // and compilation succeed (black-box RTL flow, §6.2).
    const char *src = R"(
extern "mysqrt.sv" {
  primitive my_sqrt[WIDTH](in: WIDTH, @go go: 1) ->
      (out: WIDTH, @done done: 1);
}
component main() -> () {
  cells { s = my_sqrt(32); r = std_reg(32); }
  wires {
    group run {
      s.in = 32'd49;
      s.go = !s.done ? 1'd1;
      r.in = s.done ? s.out;
      r.write_en = s.done ? 1'd1;
      run[done] = r.done;
    }
  }
  control { run; }
}
)";
    Context ctx = Parser::parseProgram(src);
    EXPECT_NO_THROW(passes::runPipeline(ctx, "default"));
    std::string sv = emit::VerilogBackend().emitString(ctx);
    EXPECT_NE(sv.find("my_sqrt"), std::string::npos);
    EXPECT_NE(sv.find("mysqrt.sv"), std::string::npos);
    // No simulation model exists for unknown externs.
    EXPECT_THROW(sim::SimProgram(ctx, "main"), Error);
}

TEST(Integration, RuntimeConflictDetectedAfterCompilation)
{
    // Two groups racing in par on the same register: the source program
    // passes static well-formedness (drivers are in different groups)
    // but the compiled design has two simultaneously active drivers,
    // which the simulator reports as the paper's undefined behaviour.
    const char *src = R"(
component main() -> () {
  cells { x = std_reg(8); }
  wires {
    group a { x.in = 8'd1; x.write_en = 1'd1; a[done] = x.done; }
    group b { x.in = 8'd2; x.write_en = 1'd1; b[done] = x.done; }
  }
  control { par { a; b } }
}
)";
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, "default");
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    EXPECT_THROW(cs.run(), Error);
}

TEST(Integration, CompiledCyclesDominateInterpreter)
{
    // The interpreter models ideal zero-overhead scheduling; real FSMs
    // can only be slower or equal.
    for (uint64_t trips : {1, 3, 6}) {
        Context a = testing::counterProgram(trips, 2);
        uint64_t interp_cycles = 0;
        testing::interpReg(a, "x", &interp_cycles);
        Context b = testing::counterProgram(trips, 2);
        uint64_t compiled_cycles = 0;
        testing::compiledReg(b, "x", "default", &compiled_cycles);
        EXPECT_GE(compiled_cycles, interp_cycles) << trips;
    }
}

TEST(Integration, SensitiveNeverSlowerOnStaticPrograms)
{
    // For fully static programs the static schedule is optimal up to
    // the final handshake.
    for (int n : {2, 5, 9}) {
        Context ctx;
        auto b = ComponentBuilder::create(ctx, "main");
        b.reg("x", 32);
        std::vector<ControlPtr> s;
        for (int k = 0; k < n; ++k) {
            b.regWriteGroup("w" + std::to_string(k), "x",
                            constant(k + 1, 32));
            s.push_back(
                ComponentBuilder::enable("w" + std::to_string(k)));
        }
        b.component().setControl(ComponentBuilder::seq(std::move(s)));

        uint64_t insensitive = 0, sensitive = 0;
        Context c1 = Parser::parseProgram(Printer::toString(ctx));
        testing::compiledReg(c1, "x", "default", &insensitive);
        Context c2 = Parser::parseProgram(Printer::toString(ctx));
        testing::compiledReg(c2, "x",
                             "all,-resource-sharing,-register-sharing",
                             &sensitive);
        EXPECT_LE(sensitive, insensitive) << n;
        // Static seq of n one-cycle writes runs in n cycles + handshake.
        EXPECT_LE(sensitive, static_cast<uint64_t>(n) + 3) << n;
    }
}

TEST(Integration, PrinterStableUnderPasses)
{
    // print(parse(print(x))) == print(x) even after optimization
    // passes rewrite the program.
    Context ctx = testing::counterProgram(4, 3);
    passes::PassManager pm;
    pm.add<passes::CollapseControl>();
    pm.add<passes::InferLatency>();
    pm.add<passes::ResourceSharing>();
    pm.run(ctx);
    std::string once = Printer::toString(ctx);
    Context re = Parser::parseProgram(once);
    EXPECT_EQ(Printer::toString(re), once);
}

} // namespace
} // namespace calyx

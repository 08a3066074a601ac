/**
 * @file
 * Tests of the benchmark's own helpers: the tail-percentile rule, the
 * geometric mean, span self time, and the seeded request generators.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "frontends/dahlia/parser.h"
#include "gen.h"
#include "stats.h"
#include "trace.h"
#include "workloads/polybench.h"

using namespace perfbench;

TEST(Tail, KeepsTenSamplesBeyond)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    Tail t = tail(xs);
    // 100 samples: index 89 (value 90) has exactly 10 above it.
    EXPECT_EQ(t.value, 90);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_DOUBLE_EQ(t.percentile, 90);
}

TEST(Tail, IgnoresInputOrder)
{
    std::vector<double> xs;
    for (int i = 0; i < 40; ++i)
        xs.push_back((i * 17) % 40); // 0..39, shuffled
    Tail t = tail(xs);
    EXPECT_EQ(t.value, 29);
    EXPECT_DOUBLE_EQ(t.percentile, 75);
}

TEST(Tail, SmallestSampleWithATail)
{
    std::vector<double> xs = {5, 1, 4, 2, 3, 9, 8, 7, 6, 11, 10};
    Tail t = tail(xs);
    EXPECT_EQ(t.value, 1); // the minimum is the only one with 10 above
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, TooFewSamplesReportsTheMaximum)
{
    Tail t = tail({3, 1, 2});
    EXPECT_EQ(t.value, 3);
    EXPECT_EQ(t.beyond, 0u);
    EXPECT_EQ(t.samples, 3u);
    EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(BlockRate, MedianOverBlocks)
{
    // Blocks of two: rates 2/1 = 2, 2/0.5 = 4, 2/4 = 0.5; the partial
    // block at the end is dropped.
    std::vector<double> lat = {0.5, 0.5, 0.25, 0.25, 2, 2, 100};
    EXPECT_DOUBLE_EQ(blockRate(lat, 2), 2);
    EXPECT_DOUBLE_EQ(blockRate({1, 1}, 4), 1); // short: plain rate
    EXPECT_EQ(blockRate({}, 4), 0);
}

TEST(Geomean, Values)
{
    EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
    EXPECT_NEAR(geomean({1, 10, 100}), 10, 1e-12);
    EXPECT_NEAR(geomean({7}), 7, 1e-12);
    // Large values must not overflow a running product.
    EXPECT_NEAR(geomean({1e300, 1e300, 1e-300}), 1e100, 1e88);
}

TEST(Geomean, UndefinedInputsGiveZero)
{
    EXPECT_EQ(geomean({}), 0);
    EXPECT_EQ(geomean({1, 0, 4}), 0);
    EXPECT_EQ(geomean({1, -2}), 0);
}

Span
span(const char *name, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

TEST(SelfTime, SubtractsChildren)
{
    std::vector<Span> spans = {
        span("op", 0, 10, -1),
        span("ir", 1, 3, 0),
        span("passes", 4, 9, 0),
        span("passes.inner", 5, 6, 2),
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 3); // 10 - 2 - 5
    EXPECT_DOUBLE_EQ(self[1], 2);
    EXPECT_DOUBLE_EQ(self[2], 4); // 5 - 1, grandchild not subtracted twice
    EXPECT_DOUBLE_EQ(self[3], 1);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce)
{
    std::vector<Span> spans = {
        span("op", 0, 10, -1),
        span("a", 2, 6, 0),
        span("b", 4, 8, 0),  // overlaps a: union is [2, 8]
        span("c", 9, 12, 0), // overhangs the parent: only [9, 10] counts
    };
    EXPECT_DOUBLE_EQ(selfTimes(spans)[0], 3); // 10 - 6 - 1
}

TEST(SelfTime, TracerAggregatesByName)
{
    Tracer t;
    {
        Tracer::Scope outer(t, "op");
        { Tracer::Scope a(t, "ir"); }
        { Tracer::Scope b(t, "ir"); }
    }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, 0);
    auto self = t.selfTimes();
    double wall = t.spans()[0].end - t.spans()[0].start;
    EXPECT_NEAR(self["op"] + self["ir"], wall, 1e-9);
    EXPECT_NE(chromeTrace(t.spans()).find("\"traceEvents\""),
              std::string::npos);
}

TEST(Generators, CompileStreamIsReproducible)
{
    auto a = compileStream(7, 60);
    auto b = compileStream(7, 60);
    auto c = compileStream(8, 60);
    ASSERT_EQ(a.size(), 60u);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].source, b[i].source) << "request " << i;
        EXPECT_EQ(compilePayload(a[i].source), compilePayload(b[i].source));
        differs = differs || a[i].source != c[i].source;
    }
    EXPECT_TRUE(differs);
}

TEST(Generators, CompileStreamMix)
{
    auto ops = compileStream(3, 200);
    size_t count[4] = {0, 0, 0, 0};
    for (const auto &op : ops)
        ++count[op.kind];
    // 8/6/3/3 per block of 20, except that the opening request must
    // be first-seen.
    EXPECT_GE(count[CompileOp::FirstSeen], 80u);
    EXPECT_LE(count[CompileOp::FirstSeen], 81u);
    EXPECT_GE(count[CompileOp::Repeat] + 1, 60u);
    EXPECT_GE(count[CompileOp::Reformat] + 1, 30u);
    EXPECT_GE(count[CompileOp::Edit] + 1, 30u);
    size_t systolicFirst = 0;
    for (const auto &op : ops) {
        // Family labels follow the program: only systolic arrays
        // instantiate the generator's processing element.
        EXPECT_EQ(op.systolic, op.source.find("mac_pe") != std::string::npos);
        systolicFirst += op.kind == CompileOp::FirstSeen && op.systolic;
    }
    EXPECT_NEAR(static_cast<double>(systolicFirst),
                count[CompileOp::FirstSeen] / 2.0, 1);
    for (size_t i = 0; i < ops.size(); ++i) {
        bool seen = false;
        for (size_t j = 0; j < i && !seen; ++j)
            seen = ops[j].source == ops[i].source;
        EXPECT_EQ(seen, ops[i].kind == CompileOp::Repeat) << "request " << i;
    }
}

TEST(Generators, StimulusStreamIsReproducible)
{
    auto program =
        calyx::dahlia::parse(calyx::workloads::kernel("gemm").source);
    auto a = stimulusStream(program, 11, 12);
    auto b = stimulusStream(program, 11, 12);
    auto c = stimulusStream(program, 12, 12);
    ASSERT_EQ(a.size(), 12u);
    size_t sizes[3] = {0, 0, 0};
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].payload, b[i].payload) << "request " << i;
        differs = differs || a[i].payload != c[i].payload;
        size_t n = a[i].inputs.size();
        sizes[n == 1 ? 0 : n == 16 ? 1 : 2]++;
    }
    EXPECT_TRUE(differs);
    EXPECT_EQ(sizes[0], 4u);
    EXPECT_EQ(sizes[1], 4u);
    EXPECT_EQ(sizes[2], 4u);
}

TEST(Generators, MatmulReference)
{
    SystolicInputs in;
    in.rows = 2;
    in.cols = 2;
    in.inner = 3;
    in.a = {1, 2, 3, 4, 5, 6};
    in.b = {7, 8, 9, 10, 11, 12};
    std::vector<uint64_t> want = {58, 64, 139, 154};
    EXPECT_EQ(matmul(in), want);
}

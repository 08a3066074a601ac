/**
 * @file
 * The four workloads. Each one runs in one of two modes:
 *
 *  - untraced (--trace 0): the end-to-end measurement. Serve workloads
 *    drive a real `serve::serve` session as a closed-loop client; the
 *    sweeps call the library from Calyx text to a checked result.
 *  - traced (--trace 1): the same operations replayed through each
 *    layer's public entry point, with a span around every call, once
 *    without spans and once with them. The spans give the per-layer
 *    numbers; the difference between the two replays is the tracing
 *    overhead.
 *
 * Every output is checked against a reference computed outside the
 * timed region; mismatches count as failed operations.
 */
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <sys/resource.h>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "emit/cppsim.h"
#include "estimate/area.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "gen.h"
#include "ir/parser.h"
#include "passes/pipeline_spec.h"
#include "serve/protocol.h"
#include "session.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/partition.h"
#include "sim/schedule.h"
#include "stats.h"
#include "support/json.h"
#include "support/time.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace perfbench {

using namespace calyx;

namespace {

/** Peak resident set of this process, in MB. */
double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

constexpr const char *kPipeline = "all";
/// Set-ups per run; setup_s is their median. Set-up is milliseconds
/// everywhere but stimulus_stream, whose cold starts (two lane-module
/// JITs each) are fewer.
constexpr int kSetups = 9;
constexpr int kColdStarts = 5;

/** A span when tracing, nothing otherwise. */
class MaybeSpan
{
  public:
    MaybeSpan(Tracer *t, const char *name)
    {
        if (t)
            scope.emplace(*t, name);
    }

  private:
    std::optional<Tracer::Scope> scope;
};

void
emptyDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

/** Record a failed operation, keeping the first few descriptions. */
void
fail(Outcome &out, const std::string &what)
{
    ++out.failed;
    if (out.notes.size() < 10)
        out.notes.push_back(what);
}

/** Uncached reference compile: a fresh parse, the pipeline on one
 * thread, and the verilog backend. */
std::string
referenceVerilog(const std::string &src)
{
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, kPipeline);
    return emit::BackendRegistry::instance().create("verilog")->emitString(
        ctx);
}

double
lutsOf(const std::string &src)
{
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, kPipeline);
    return estimate::AreaEstimator(ctx).estimateProgram().luts;
}

/** Per-operation latencies in operation order, each with its class:
 * request kind, batch size, or design. */
struct Latencies
{
    std::vector<double> all;
    std::vector<std::string> cls;

    void
    add(double seconds, std::string c)
    {
        all.push_back(seconds);
        cls.push_back(std::move(c));
    }

    std::map<std::string, std::vector<double>>
    byClass() const
    {
        std::map<std::string, std::vector<double>> m;
        for (size_t i = 0; i < all.size(); ++i)
            m[cls[i]].push_back(all[i]);
        return m;
    }
};

/**
 * The end-to-end metrics from per-operation latencies (`block`
 * operations make one period of the mix). The p50 is the geometric
 * mean of the per-class medians: the classes' latencies differ by up
 * to 30x, so a pooled median sits on the edge between two classes and
 * jumps between them from run to run. The pooled median is reported
 * too. The tail is pooled, as the tail rule defines it.
 */
void
endToEnd(Outcome &out, double setup, const Latencies &l, size_t block,
         double ttr, double warmTtr, double luts)
{
    const std::vector<double> &lat = l.all;
    Tail t = tail(lat);
    out.tailPercentile = t.percentile;
    out.latencies = lat;
    std::vector<double> p50s;
    for (const auto &[c, v] : l.byClass()) {
        out.extra.push_back({"latency_p50_ms_" + c, median(v) * 1e3, "ms"});
        p50s.push_back(median(v));
    }
    out.extra.push_back({"latency_p50_ms_pooled", median(lat) * 1e3, "ms"});
    out.metrics = {
        {"setup_s", setup, "s"},
        {"requests_per_s", blockRate(lat, block), "1/s"},
        {"latency_p50_ms", geomean(p50s) * 1e3, "ms"},
        {"latency_tail_ms", t.value * 1e3, "ms"},
        {"time_to_result_s", ttr, "s"},
        {"warm_time_to_result_s", warmTtr, "s"},
        {"area_luts_geomean", luts, "LUT"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    out.extra.push_back(
        {"error_rate",
         out.attempted ? static_cast<double>(out.failed) / out.attempted : 1,
         "ratio"});
}

// --- Per-layer metrics ---------------------------------------------

const char *const kPasses[] = {
    "well-formed",      "collapse-control", "infer-latency",
    "resource-sharing", "register-sharing", "static",
    "go-insertion",     "compile-control",  "remove-groups",
    "dead-cell-removal"};

/** Every per-layer metric, in BENCHMARK.json order. A layer a
 * workload does not exercise reads 0. */
std::vector<std::pair<std::string, std::string>>
layerMetricNames()
{
    std::vector<std::pair<std::string, std::string>> m = {
        {"ir.parse_s", "s"},
        {"ir.parse_mb_per_s", "MB/s"},
        {"passes.total_s", "s"},
    };
    for (const char *p : kPasses)
        m.push_back({std::string("passes.") + p + "_s", "s"});
    std::vector<std::pair<std::string, std::string>> rest = {
        {"passes.speedup_vs_1t", "x"},
        {"passes.cells_after", "count"},
        {"passes.assigns_after", "count"},
        {"sim.flatten_s", "s"},
        {"sim.schedule_s", "s"},
        {"sim.schedule_nodes", "count"},
        {"sim.partition_plan_s", "s"},
        {"sim.partition_tasks", "count"},
        {"sim.run_s", "s"},
        {"sim.host_cycles_per_s", "cycles/s"},
        {"sim.run_speedup_vs_1t", "x"},
        {"sim.cycles", "cycles"},
        {"emit.cppsim_s", "s"},
        {"emit.cppsim_bytes", "B"},
        {"sim.jit_cold_s", "s"},
        {"sim.jit_host_compile_s", "s"},
        {"sim.jit_warm_s", "s"},
        {"batch.setup_s", "s"},
        {"batch.run_s_b1", "s"},
        {"batch.run_s_b16", "s"},
        {"batch.run_s_b256", "s"},
        {"batch.lane_occupancy", "ratio"},
        {"batch.speedup_vs_1t", "x"},
        {"serve.decode_s", "s"},
        {"serve.encode_s", "s"},
        {"serve.frame_s", "s"},
        {"serve.frame_bytes", "B"},
        {"cache.raw_hit_ratio", "ratio"},
        {"cache.artifact_hit_ratio", "ratio"},
        {"cache.component_hit_ratio", "ratio"},
        {"cache.hit_s", "s"},
        {"cache.miss_s", "s"},
        {"cache.bytes", "B"},
        {"emit.verilog_s", "s"},
        {"emit.verilog_bytes", "B"},
        {"estimate.area_s", "s"},
        {"trace.unattributed_share", "ratio"},
        {"trace.overhead", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/** Span names that only structure the timeline (a whole phase, one
 * operation); time in them outside any child is unattributed. */
bool
structural(const std::string &name)
{
    return name == "phase" || name == "op";
}

struct Layers;

struct Replays
{
    double overhead = 0; ///< Traced over untraced time, minus 1.
    double wall = 0;     ///< Wall time of the recorded replay.
};

/**
 * The traced run's four replays of one operation list: untraced,
 * traced, untraced, traced. Only the last replay keeps its spans and
 * layer counters; the first pair pays the first-use costs (symbol
 * interning, page faults, pool start-up), so the second pair compares
 * like with like. `replay(tracer, layers)` runs the list once and
 * returns the time to compare.
 */
Replays
tracePasses(const RunConfig &cfg, Outcome &out, Layers &layers,
            const std::function<double(Tracer *, Layers *)> &replay)
{
    Tracer &keep = out.tracer;
    Replays r;
    double t[2] = {0, 0};
    bool skipped = false;
    for (int pass = 0; pass < 4; ++pass) {
        if (pass == 2 && cfg.late()) {
            // Go straight to the recorded replay; the overhead then
            // comes from the first pair.
            out.truncated = skipped = true;
            pass = 3;
        }
        bool traced = pass % 2;
        Tracer scratch;
        Tracer *tr = traced ? (pass == 3 ? &keep : &scratch) : nullptr;
        double w0 = nowSeconds();
        double dt = replay(tr, pass == 3 ? &layers : nullptr);
        r.wall = nowSeconds() - w0;
        if (pass == 0 || pass == 2)
            t[0] = dt;
        else if (pass == 1 || !skipped)
            t[1] = dt;
    }
    r.overhead = t[0] > 0 ? t[1] / t[0] - 1 : 0;
    return r;
}

/** Accumulates per-layer values for one traced run. */
struct Layers
{
    std::map<std::string, double> v;
    uint64_t parsedBytes = 0;
    uint64_t passRuns = 0;
    double cellsAfter = 0, assignsAfter = 0;

    /** Sum of span durations named `name` whose operation satisfies
     * `keep` (all of them when empty). */
    static double
    spanSum(const Tracer &t, const std::string &name,
            const std::function<bool(uint64_t)> &keep = {})
    {
        double s = 0;
        for (const Span &sp : t.spans()) {
            if (sp.name == name && (!keep || keep(sp.request)))
                s += sp.end - sp.start;
        }
        return s;
    }

    void
    addPasses(const std::vector<passes::PassRunInfo> &infos,
              const Context &ctx)
    {
        for (const passes::PassRunInfo &i : infos)
            v["passes." + i.pass + "_s"] += i.seconds;
        ++passRuns;
        for (const auto &comp : ctx.components()) {
            cellsAfter += comp->cells().size();
            assignsAfter += comp->continuousAssignments().size();
            for (const auto &g : comp->groups())
                assignsAfter += g->assignments().size();
        }
    }

    /** Fill the outcome with every layer metric, from the spans of the
     * recorded replay and the counters gathered here. */
    void
    finish(Outcome &out, const Replays &replays)
    {
        const Tracer &t = out.tracer;
        v["ir.parse_s"] = spanSum(t, "ir");
        if (v["ir.parse_s"] > 0)
            v["ir.parse_mb_per_s"] = parsedBytes / 1e6 / v["ir.parse_s"];
        double passTotal = 0;
        for (const char *p : kPasses)
            passTotal += v[std::string("passes.") + p + "_s"];
        v["passes.total_s"] = passTotal;
        if (passRuns) {
            v["passes.cells_after"] = cellsAfter / passRuns;
            v["passes.assigns_after"] = assignsAfter / passRuns;
        }
        v["sim.flatten_s"] = spanSum(t, "sim.flatten");
        v["sim.schedule_s"] = spanSum(t, "sim.schedule");
        v["sim.partition_plan_s"] = spanSum(t, "sim.partition");
        v["sim.run_s"] = spanSum(t, "sim.run");
        if (v["sim.run_s"] > 0)
            v["sim.host_cycles_per_s"] = v["sim.cycles"] / v["sim.run_s"];
        v["emit.cppsim_s"] = spanSum(t, "emit.cppsim");
        v["emit.verilog_s"] = spanSum(t, "emit.verilog");
        v["serve.decode_s"] = spanSum(t, "serve.decode");
        v["serve.encode_s"] = spanSum(t, "serve.encode");
        v["serve.frame_s"] = spanSum(t, "serve.frame");
        v["estimate.area_s"] = spanSum(t, "estimate");

        // Unattributed: replay time outside every span, plus time in
        // structural spans that no layer span covers.
        double uncovered = replays.wall;
        std::vector<double> self = selfTimes(t.spans());
        for (size_t i = 0; i < t.spans().size(); ++i) {
            const Span &sp = t.spans()[i];
            if (sp.parent < 0)
                uncovered -= sp.end - sp.start;
            if (structural(sp.name))
                uncovered += self[i];
        }
        v["trace.unattributed_share"] =
            replays.wall > 0 ? std::max(0.0, uncovered) / replays.wall : 0;
        v["trace.overhead"] = replays.overhead;

        for (const auto &[name, unit] : layerMetricNames())
            out.metrics.push_back({name, v.count(name) ? v[name] : 0, unit});
    }
};

// --- Designs for the sweeps ------------------------------------------

/** One design of a sweep: Calyx text plus its seeded inputs and the
 * independent reference result. */
struct Design
{
    std::string name;
    std::string text;
    int dim = 0;        ///< Systolic square dimension; 0 for a kernel.
    std::string kernel; ///< PolyBench name when dim == 0.
    dahlia::Program program;
    MemState inputs, expected;
    SystolicInputs sys;
    std::vector<uint64_t> expectedOut;
    double luts = 0;
};

/** A sweep's design list: "sys<N>" or a PolyBench kernel name. */
std::vector<Design>
makeDesigns(const std::vector<std::string> &names)
{
    std::vector<Design> ds(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        Design &d = ds[i];
        d.name = names[i];
        if (d.name.rfind("sys", 0) == 0) {
            d.dim = std::stoi(d.name.substr(3));
            d.text = systolicCalyx(d.dim, d.dim, d.dim);
        } else {
            d.kernel = d.name;
            d.text = kernelCalyx(d.kernel, false);
        }
    }
    return ds;
}

/** Set-up of a sweep: produce every design's Calyx text with the
 * repository's generators (the sweep's input). Median of kSetups. */
double
sweepSetup(const std::vector<std::string> &names, std::vector<Design> &out)
{
    std::vector<double> times;
    for (int i = 0; i < kSetups; ++i) {
        double t0 = nowSeconds();
        out = makeDesigns(names);
        times.push_back(nowSeconds() - t0);
    }
    return median(times);
}

void
seedDesigns(std::vector<Design> &ds, uint64_t seed)
{
    Rng rng(seed);
    for (Design &d : ds) {
        uint64_t s = rng.next();
        if (d.dim) {
            d.sys = randomSystolic(d.dim, d.dim, d.dim, s);
            d.expectedOut = matmul(d.sys);
        } else {
            d.program = dahlia::parse(workloads::kernel(d.kernel).source);
            d.inputs = randomInputs(d.program, s);
            d.expected = workloads::runOnInterp(d.program, d.inputs);
        }
        d.luts = lutsOf(d.text);
    }
}

struct DesignRun
{
    double seconds = 0;
    double passSeconds = 0; ///< runPipeline alone.
    double simSeconds = 0;  ///< CycleSim::run alone.
    uint64_t cycles = 0;
    bool ok = false;
    bool jitFromCache = false;
};

/** What a traced replay adds around a design run. */
struct Probe
{
    Tracer *tracer = nullptr; ///< Spans, when tracing.
    Layers *layers = nullptr; ///< Counters, on the recorded replay.
    /** Also call the layers the flow reaches only from inside another
     * (cppsim codegen, partition planning, area), so they get spans. */
    bool calls = false;
};

/**
 * Calyx text to a settled, checked result: parse, pipeline, flatten,
 * schedule, (compiled) JIT load, simulate, read back and compare.
 */
DesignRun
runDesign(const Design &d, sim::Engine engine, unsigned threads,
          const Probe &probe)
{
    Tracer *tr = probe.tracer;
    Layers *ly = probe.layers;
    DesignRun r;
    double t0 = nowSeconds();
    std::optional<Context> ctx;
    {
        MaybeSpan s(tr, "ir");
        ctx.emplace(Parser::parseProgram(d.text));
    }
    passes::RunOptions ro;
    ro.threads = threads;
    {
        MaybeSpan s(tr, "passes");
        double p0 = nowSeconds();
        auto infos = passes::runPipeline(*ctx, kPipeline, ro);
        r.passSeconds = nowSeconds() - p0;
        if (ly)
            ly->addPasses(infos, *ctx);
    }
    std::optional<sim::SimProgram> sp;
    {
        MaybeSpan s(tr, "sim.flatten");
        sp.emplace(*ctx, "main");
    }
    {
        MaybeSpan s(tr, "sim.schedule");
        sp->schedule();
    }
    if (ly)
        ly->v["sim.schedule_nodes"] += sp->schedule().nodes().size();
    if (probe.calls && threads > 1) {
        MaybeSpan s(tr, "sim.partition");
        sim::PartitionPlan plan = sim::buildPartitionPlan(
            *sp, sp->schedule(), sim::partitionTarget(), threads);
        if (ly)
            ly->v["sim.partition_tasks"] += plan.tasks.size();
    }
    {
        MaybeSpan s(tr, "bench.io");
        if (d.dim) {
            for (int i = 0; i < d.dim; ++i) {
                auto *l = sp->findModel(systolic::leftMemName(i))->memory();
                auto *t = sp->findModel(systolic::topMemName(i))->memory();
                for (int k = 0; k < d.dim; ++k) {
                    (*l)[k] = d.sys.a[i * d.dim + k];
                    (*t)[k] = d.sys.b[k * d.dim + i];
                }
            }
        } else {
            workloads::pokeInputs(*sp, d.program, d.inputs);
        }
    }
    if (engine == sim::Engine::Compiled) {
        if (probe.calls) {
            MaybeSpan s(tr, "emit.cppsim");
            std::ostringstream os;
            emit::emitCppSim(*sp, os);
            if (ly)
                ly->v["emit.cppsim_bytes"] += os.str().size();
        }
        MaybeSpan s(tr, "sim.compiled");
        r.jitFromCache = sp->compiledModule()->fromCache();
    }
    {
        MaybeSpan s(tr, "sim.run");
        sim::CycleSim cs(*sp, engine);
        cs.state().setThreads(threads);
        double s0 = nowSeconds();
        r.cycles = cs.run();
        r.simSeconds = nowSeconds() - s0;
    }
    {
        MaybeSpan s(tr, "bench.check");
        if (d.dim) {
            r.ok = *sp->findModel(systolic::outMemName)->memory() ==
                   d.expectedOut;
        } else {
            r.ok = workloads::readMemories(*sp, d.program) == d.expected;
        }
    }
    r.seconds = nowSeconds() - t0;
    if (ly) {
        ly->parsedBytes += d.text.size();
        ly->v["sim.cycles"] += r.cycles;
    }
    if (probe.calls) {
        MaybeSpan s(tr, "estimate");
        estimate::AreaEstimator(*ctx).estimateProgram();
    }
    return r;
}

std::vector<double>
lutsOfDesigns(const std::vector<Design> &ds)
{
    std::vector<double> l;
    for (const Design &d : ds)
        l.push_back(d.luts);
    return l;
}

// --- compiled_sweep ------------------------------------------------

const std::vector<std::string> kCompiledDesigns = {"sys4", "sys8", "gemm",
                                                   "2mm", "gramschmidt"};
/// Warm runs per design per round: enough that the pooled tail (10
/// samples beyond it) falls well inside the slowest design's runs.
constexpr int kWarmRuns = 20;

/** One round: every design cold (empty module cache), then kWarmRuns
 * times warm, each in a fresh SimProgram after the last one's module
 * was released. `op` numbers the runs for trace request ids. */
template <typename Fn>
void
compiledRound(const RunConfig &cfg, std::vector<Design> &ds, Outcome &out,
              Fn &&each)
{
    for (size_t i = 0; i < ds.size(); ++i) {
        emptyDir(cfg.cacheDir);
        each(ds[i], i, true);
        for (int w = 0; w < kWarmRuns; ++w) {
            if (w > 0 && cfg.late()) {
                out.truncated = true;
                break;
            }
            each(ds[i], i, false);
        }
    }
}

void
runCompiledSweep(const RunConfig &cfg, Outcome &out)
{
    out.threadsUsed = 1;
    std::vector<Design> ds;
    double setup = sweepSetup(kCompiledDesigns, ds);
    seedDesigns(ds, cfg.seed);
    const sim::Engine eng = sim::Engine::Compiled;

    if (cfg.trace) {
        Layers ly;
        Replays replays = tracePasses(cfg, out, ly, [&](Tracer *tr,
                                                          Layers *l) {
            uint64_t req = 0;
            double t0 = nowSeconds();
            compiledRound(cfg, ds, out, [&](Design &d, size_t, bool cold) {
                if (tr)
                    tr->setRequest(req++);
                MaybeSpan op(tr, "op");
                DesignRun r = runDesign(d, eng, 1, {tr, l, true});
                ++out.attempted;
                if (!r.ok)
                    fail(out, d.name + ": outputs differ from reference");
                if (cold == r.jitFromCache)
                    fail(out, d.name + ": unexpected module cache state");
            });
            return nowSeconds() - t0;
        });
        // Cold vs warm JIT loads, told apart by the op's position.
        std::vector<bool> coldOp;
        for (size_t i = 0; i < ds.size(); ++i) {
            coldOp.push_back(true);
            coldOp.insert(coldOp.end(), kWarmRuns, false);
        }
        auto cold = [&](uint64_t r) { return r < coldOp.size() && coldOp[r]; };
        auto warm = [&](uint64_t r) { return r < coldOp.size() && !coldOp[r]; };
        ly.v["sim.jit_cold_s"] = Layers::spanSum(out.tracer, "sim.compiled", cold);
        ly.v["sim.jit_warm_s"] = Layers::spanSum(out.tracer, "sim.compiled", warm);
        ly.v["sim.jit_host_compile_s"] =
            ly.v["sim.jit_cold_s"] -
            Layers::spanSum(out.tracer, "emit.cppsim", cold);
        ly.finish(out, replays);
        return;
    }

    int rounds = std::max(2, static_cast<int>(std::lround(cfg.seconds / 5)));
    Latencies lat; ///< Warm runs; the cold ones are time_to_result_s.
    std::vector<std::vector<double>> coldT(ds.size()), warmT(ds.size());
    std::vector<double> cycles(ds.size());
    for (int round = 0; round < rounds; ++round) {
        if (round > 0 && cfg.late()) {
            out.truncated = true;
            break;
        }
        compiledRound(cfg, ds, out, [&](Design &d, size_t i, bool cold) {
            DesignRun r = runDesign(d, eng, 1, {});
            ++out.attempted;
            if (!r.ok)
                fail(out, d.name + ": outputs differ from reference");
            if (cold == r.jitFromCache)
                fail(out, d.name + ": unexpected module cache state");
            if (!cold)
                lat.add(r.seconds, d.name);
            (cold ? coldT : warmT)[i].push_back(r.seconds);
            cycles[i] = static_cast<double>(r.cycles);
        });
    }
    std::vector<double> cold, warm;
    for (size_t i = 0; i < ds.size(); ++i) {
        cold.push_back(median(coldT[i]));
        warm.push_back(median(warmT[i]));
    }
    endToEnd(out, setup, lat, ds.size() * kWarmRuns, geomean(cold),
             geomean(warm), geomean(lutsOfDesigns(ds)));
    out.extra.push_back({"sim_cycles_geomean", geomean(cycles), "cycles"});
    out.extra.push_back(
        {"stimuli_per_s", out.metrics[1].value, "1/s"});
}

// --- levelized_mt --------------------------------------------------

const std::vector<std::string> kLevelizedDesigns = {"sys16", "2mm", "3mm",
                                                    "syr2k"};

void
runLevelizedMt(const RunConfig &cfg, Outcome &out)
{
    out.threadsUsed = cfg.threads;
    std::vector<Design> ds;
    double setup = sweepSetup(kLevelizedDesigns, ds);
    seedDesigns(ds, cfg.seed);
    const sim::Engine eng = sim::Engine::Levelized;

    if (cfg.trace) {
        Layers ly;
        Replays replays = tracePasses(cfg, out, ly, [&](Tracer *tr,
                                                          Layers *l) {
            uint64_t req = 0;
            double t0 = nowSeconds();
            for (const Design &d : ds) {
                if (tr)
                    tr->setRequest(req++);
                MaybeSpan op(tr, "op");
                DesignRun r = runDesign(d, eng, cfg.threads, {tr, l, true});
                ++out.attempted;
                if (!r.ok)
                    fail(out, d.name + ": outputs differ from reference");
            }
            return nowSeconds() - t0;
        });
        // The same designs on one thread, for the pool's share of the
        // pipeline and of the simulation.
        double pass[2] = {0, 0}, run[2] = {0, 0};
        for (const Design &d : ds) {
            if (cfg.late()) {
                out.truncated = true;
                break;
            }
            for (int multi = 0; multi < 2; ++multi) {
                DesignRun r = runDesign(d, eng, multi ? cfg.threads : 1, {});
                pass[multi] += r.passSeconds;
                run[multi] += r.simSeconds;
            }
        }
        ly.v["passes.speedup_vs_1t"] = pass[1] > 0 ? pass[0] / pass[1] : 0;
        ly.v["sim.run_speedup_vs_1t"] = run[1] > 0 ? run[0] / run[1] : 0;
        ly.finish(out, replays);
        return;
    }

    // Six rounds at 10 s: a 4-thread run loses 2-5x whenever the host
    // deschedules one of its spinning workers, so each design needs
    // enough runs for its median to step over two such outliers.
    int rounds = std::max(3, static_cast<int>(std::lround(cfg.seconds * 0.6)));
    Latencies lat;
    std::vector<double> cycles(ds.size());
    std::vector<std::vector<double>> times(ds.size());
    for (int round = 0; round < rounds; ++round) {
        if (round >= 2 && cfg.late()) {
            out.truncated = true;
            break;
        }
        for (size_t i = 0; i < ds.size(); ++i) {
            DesignRun r = runDesign(ds[i], eng, cfg.threads, {});
            ++out.attempted;
            if (!r.ok)
                fail(out, ds[i].name + ": outputs differ from reference");
            lat.add(r.seconds, ds[i].name);
            times[i].push_back(r.seconds);
            cycles[i] = static_cast<double>(r.cycles);
        }
    }
    std::vector<double> all, later;
    for (auto &t : times) {
        all.push_back(median(t));
        later.push_back(median(std::vector<double>(t.begin() + 1, t.end())));
    }
    endToEnd(out, setup, lat, ds.size(), geomean(all), geomean(later),
             geomean(lutsOfDesigns(ds)));
    out.extra.push_back({"sim_cycles_geomean", geomean(cycles), "cycles"});
    out.extra.push_back({"stimuli_per_s", out.metrics[1].value, "1/s"});
}

// --- compile_stream --------------------------------------------------

/** Requests per second of the nominal stream, used to size a run to
 * about --seconds of measured work (a multiple of the 20-request mix
 * block keeps the class shares exact). */
constexpr double kCompileRate = 60;

size_t
blocks(double seconds, double rate, size_t block)
{
    size_t n = static_cast<size_t>(std::ceil(seconds * rate / block));
    return std::max<size_t>(2, n) * block;
}

/** Resident design every serve session is bound to (runs are never
 * sent in compile_stream; the session still loads one design). */
struct Resident
{
    std::string text;
    std::optional<Context> ctx;
    std::optional<sim::SimProgram> sp;

    explicit Resident(std::string calyx) : text(std::move(calyx))
    {
        ctx.emplace(Parser::parseProgram(text));
        passes::runPipeline(*ctx, kPipeline);
        sp.emplace(*ctx, "main");
    }
};

/** Digests of reference artifacts by source digest, filled on first
 * sight; the first artifact for a source is compared byte for byte. */
struct CompileRefs
{
    std::map<Digest, Digest> byDigest;

    /** Compute the reference for `src` ahead of time. */
    void
    add(const std::string &src)
    {
        Digest key = digest(src);
        if (!byDigest.count(key))
            byDigest[key] = digest(referenceVerilog(src));
    }

    bool
    check(const std::string &src, const std::string &artifact)
    {
        Digest key = digest(src);
        auto it = byDigest.find(key);
        if (it != byDigest.end())
            return it->second == digest(artifact);
        std::string ref = referenceVerilog(src);
        byDigest[key] = digest(ref);
        return ref == artifact;
    }
};

double
corpusLuts()
{
    std::vector<double> luts;
    for (const workloads::Kernel &k : workloads::kernels()) {
        luts.push_back(lutsOf(kernelCalyx(k.name, false)));
        if (!k.unrolledSource.empty())
            luts.push_back(lutsOf(kernelCalyx(k.name, true)));
    }
    for (int d = 2; d <= 12; d += 2)
        luts.push_back(lutsOf(systolicCalyx(d, d, d)));
    return geomean(luts);
}

void
compileStreamTraced(const RunConfig &cfg, const std::vector<CompileOp> &ops,
                    Outcome &out)
{
    CompileRefs refs;
    for (const CompileOp &op : ops)
        refs.add(op.source);

    Layers ly;
    std::vector<bool> hit(ops.size());
    std::vector<std::string> missSources;
    cache::CompileService::Counters counters;
    uint64_t cacheBytes = 0;
    Replays replays = tracePasses(cfg, out, ly, [&](Tracer *tr, Layers *l) {
        bool traced = l != nullptr;
        cache::CompileService svc{cache::CompileCache::Config{}};
        double t0 = nowSeconds();
        for (size_t i = 0; i < ops.size(); ++i) {
            if (i >= 20 && cfg.late()) {
                out.truncated = true;
                break;
            }
            if (tr)
                tr->setRequest(i);
            MaybeSpan opSpan(tr, "op");
            std::string payload = compilePayload(ops[i].source);
            std::string frame, err;
            {
                MaybeSpan s(tr, "serve.frame");
                std::stringstream wire;
                serve::writeFrame(wire, payload);
                serve::readFrame(wire, frame, err);
            }
            cache::CompileRequest creq;
            {
                MaybeSpan s(tr, "serve.decode");
                json::Value req = json::parse(frame);
                creq.source = req.at("source").asStr();
                creq.pipeline = req.at("pipeline").asStr();
                creq.backend = req.at("backend").asStr();
                creq.threads = cfg.threads;
            }
            cache::CompileResult res;
            {
                MaybeSpan s(tr, "cache");
                res = svc.compile(creq);
            }
            bool isHit = res.rawTextHit || res.artifactFromCache;
            if (!isHit) {
                // The miss again, layer by layer.
                std::optional<Context> ctx;
                {
                    MaybeSpan s(tr, "ir");
                    ctx.emplace(Parser::parseProgram(creq.source));
                }
                passes::RunOptions ro;
                ro.threads = cfg.threads;
                {
                    MaybeSpan s(tr, "passes");
                    auto infos = passes::runPipeline(*ctx, creq.pipeline, ro);
                    if (traced)
                        l->addPasses(infos, *ctx);
                }
                MaybeSpan s(tr, "emit.verilog");
                std::string v = emit::BackendRegistry::instance()
                                    .create(creq.backend)
                                    ->emitString(*ctx);
                if (traced) {
                    l->parsedBytes += creq.source.size();
                    l->v["emit.verilog_bytes"] += v.size();
                    missSources.push_back(creq.source);
                }
            }
            std::string resp;
            {
                MaybeSpan s(tr, "serve.encode");
                json::Value r = json::Value::object();
                r.set("artifact", json::Value::str(res.artifact));
                r.set("pipeline", json::Value::str(res.pipeline));
                resp = serve::okResponse("compile", std::move(r));
            }
            {
                MaybeSpan s(tr, "serve.frame");
                std::stringstream wire;
                serve::writeFrame(wire, resp);
                serve::readFrame(wire, frame, err);
                if (traced)
                    l->v["serve.frame_bytes"] +=
                        payload.size() + resp.size();
            }
            {
                MaybeSpan s(tr, "bench.check");
                ++out.attempted;
                if (!refs.check(ops[i].source, res.artifact))
                    fail(out, std::string(kindName(ops[i].kind)) +
                                  " request " + std::to_string(i) +
                                  ": artifact differs from uncached compile");
            }
            hit[i] = isHit;
        }
        double dt = nowSeconds() - t0;
        counters = svc.counters();
        cacheBytes = svc.cacheStats().bytes;
        return dt;
    });

    // Pass-manager wavefronts on one thread, for the pool's share.
    double t1 = 0, tn = 0;
    for (size_t i = 0; i < missSources.size() && i < 40 && !cfg.late(); ++i) {
        for (unsigned th : {1u, cfg.threads}) {
            Context ctx = Parser::parseProgram(missSources[i]);
            passes::RunOptions ro;
            ro.threads = th;
            double t0 = nowSeconds();
            passes::runPipeline(ctx, kPipeline, ro);
            (th == 1 ? t1 : tn) += nowSeconds() - t0;
        }
    }
    ly.v["passes.speedup_vs_1t"] = tn > 0 ? t1 / tn : 0;

    double n = static_cast<double>(counters.requests);
    ly.v["cache.raw_hit_ratio"] = n > 0 ? counters.rawHits / n : 0;
    ly.v["cache.artifact_hit_ratio"] = n > 0 ? counters.artifactHits / n : 0;
    double comps = counters.componentHits + counters.componentMisses;
    ly.v["cache.component_hit_ratio"] =
        comps > 0 ? counters.componentHits / comps : 0;
    ly.v["cache.bytes"] = static_cast<double>(cacheBytes);
    size_t hits = std::count(hit.begin(), hit.end(), true);
    auto isHit = [&](uint64_t r) { return r < hit.size() && hit[r]; };
    auto isMiss = [&](uint64_t r) { return r < hit.size() && !hit[r]; };
    if (hits)
        ly.v["cache.hit_s"] =
            Layers::spanSum(out.tracer, "cache", isHit) / hits;
    if (hits < hit.size())
        ly.v["cache.miss_s"] = Layers::spanSum(out.tracer, "cache", isMiss) /
                               (hit.size() - hits);
    ly.finish(out, replays);
}

void
runCompileStream(const RunConfig &cfg, Outcome &out)
{
    out.threadsUsed = cfg.threads;
    size_t count = blocks(cfg.seconds, kCompileRate, 20);
    std::vector<CompileOp> ops = compileStream(cfg.seed, count);
    if (cfg.trace) {
        ops.resize(ops.size() / 2);
        compileStreamTraced(cfg, ops, out);
        return;
    }

    // Set-up: load the session's resident design from Calyx text and
    // start the session, until it answers a ping.
    serve::ServeOptions so;
    so.engine = sim::Engine::Levelized;
    so.threads = cfg.threads;
    const std::string residentText = kernelCalyx("gemm", false);
    std::vector<double> setups;
    std::unique_ptr<Resident> res;
    std::unique_ptr<Session> s;
    for (int i = 0; i < kSetups; ++i) {
        s.reset();
        double t0 = nowSeconds();
        res = std::make_unique<Resident>(residentText);
        s = std::make_unique<Session>(*res->sp, so);
        s->roundTrip("{\"type\": \"ping\"}");
        setups.push_back(nowSeconds() - t0);
    }

    CompileRefs refs;
    Latencies lat;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (i >= 20 && cfg.late()) {
            out.truncated = true;
            break;
        }
        std::string payload = compilePayload(ops[i].source);
        double t0 = nowSeconds();
        std::string resp = s->roundTrip(payload);
        double dt = nowSeconds() - t0;
        // Kernels and systolic arrays differ 10x in size: separate
        // classes, so no class median sits between the two.
        lat.add(dt, std::string(kindName(ops[i].kind)) +
                        (ops[i].systolic ? "_systolic" : "_kernel"));
        ++out.attempted;
        json::Value r = json::parse(resp);
        if (!r.at("ok").asBool()) {
            fail(out, "request " + std::to_string(i) + ": " +
                          r.at("error").asStr());
            continue;
        }
        if (!refs.check(ops[i].source,
                        r.at("result").at("artifact").asStr()))
            fail(out, std::string(kindName(ops[i].kind)) + " request " +
                          std::to_string(i) +
                          ": artifact differs from uncached compile");
    }
    s.reset();
    // Time to result per program family: the median first-seen (cold)
    // and exact-repeat (warm) request, as a geometric mean over
    // kernels and systolic arrays. Repeats take 2 ms, so a mean over
    // them would follow every host hiccup.
    auto byClass = lat.byClass();
    auto familyMedians = [&](const char *kind) {
        return geomean({median(byClass[std::string(kind) + "_kernel"]),
                        median(byClass[std::string(kind) + "_systolic"])});
    };
    // One rate over the whole stream: its program sizes follow the
    // shuffled decks, so only the whole run has a seed-independent mix.
    endToEnd(out, median(setups), lat, ops.size(), familyMedians("first_seen"),
             familyMedians("repeat"), corpusLuts());
}

// --- stimulus_stream -------------------------------------------------

/** Nominal run requests per second at 4 threads; sizes the run. */
constexpr double kRunRate = 5;

/** The batch-1 and batch-32 priming requests force both lane modules a
 * session loads lazily: the partitioned one (single-tile batches with
 * threads > 1) and the plain one (multi-tile batches). */
std::vector<std::vector<MemState>>
primingBatches(const dahlia::Program &program, uint64_t seed)
{
    Rng rng(seed ^ 0x5eed);
    std::vector<std::vector<MemState>> b(2);
    b[0].push_back(randomInputs(program, rng.next()));
    for (int i = 0; i < 32; ++i)
        b[1].push_back(randomInputs(program, rng.next()));
    return b;
}

/** Expected banked memory images per stimulus, from the AST
 * interpreter. */
std::vector<sim::Stimulus>
expectedLanes(const dahlia::Program &program,
              const std::vector<MemState> &inputs)
{
    std::vector<sim::Stimulus> e;
    for (const MemState &in : inputs)
        e.push_back(workloads::makeStimulus(
            program, workloads::runOnInterp(program, in)));
    return e;
}

/** Compare a run response's lanes with the expected images. */
bool
checkRunResponse(const std::string &resp,
                 const std::vector<sim::Stimulus> &expected)
{
    json::Value r = json::parse(resp);
    if (!r.at("ok").asBool())
        return false;
    const auto &lanes = r.at("result").at("lanes").items();
    if (lanes.size() != expected.size())
        return false;
    for (size_t i = 0; i < lanes.size(); ++i) {
        const json::Value &mems = lanes[i].at("mems");
        for (const auto &[cell, words] : expected[i].mems) {
            const auto &got = mems.at(cell).items();
            if (got.size() != words.size())
                return false;
            for (size_t w = 0; w < words.size(); ++w) {
                if (got[w].asNum() != words[w])
                    return false;
            }
        }
    }
    return true;
}

/** Same comparison on in-process lane results (traced replay). */
bool
checkLanes(const std::vector<sim::LaneResult> &lanes,
           const std::vector<std::string> &memPaths,
           const std::vector<sim::Stimulus> &expected)
{
    if (lanes.size() != expected.size())
        return false;
    for (size_t i = 0; i < lanes.size(); ++i) {
        for (const auto &[cell, words] : expected[i].mems) {
            auto it = std::find(memPaths.begin(), memPaths.end(), cell);
            if (it == memPaths.end() ||
                lanes[i].mems[it - memPaths.begin()] != words)
                return false;
        }
    }
    return true;
}

void
stimulusStreamTraced(const RunConfig &cfg, const Resident &gemm,
                     const std::vector<RunOp> &ops,
                     const std::vector<std::vector<sim::Stimulus>> &expected,
                     Outcome &out)
{
    Layers ly;
    std::vector<uint32_t> batchOf(ops.size());
    std::vector<std::vector<sim::Stimulus>> decoded(ops.size());
    Replays replays = tracePasses(cfg, out, ly, [&](Tracer *tr, Layers *l) {
        // Only the recorded replay starts from an empty module cache;
        // the others reuse what the first one built.
        if (l)
            emptyDir(cfg.cacheDir);
        std::optional<Context> ctx;
        std::optional<sim::SimProgram> sp;
        std::optional<sim::BatchRunner> runner;
        sim::BatchOptions bo;
        bo.threads = cfg.threads;
        std::vector<std::shared_ptr<sim::CompiledModule>> mods;
        {
            // The session's resident set-up, layer by layer.
            if (tr)
                tr->setRequest(UINT64_MAX);
            MaybeSpan phase(tr, "phase");
            {
                MaybeSpan s(tr, "ir");
                ctx.emplace(Parser::parseProgram(gemm.text));
            }
            {
                MaybeSpan s(tr, "passes");
                auto infos = passes::runPipeline(*ctx, kPipeline);
                if (l) {
                    l->addPasses(infos, *ctx);
                    l->parsedBytes += gemm.text.size();
                }
            }
            {
                MaybeSpan s(tr, "sim.flatten");
                sp.emplace(*ctx, "main");
            }
            {
                MaybeSpan s(tr, "sim.schedule");
                sp->schedule();
            }
            {
                MaybeSpan s(tr, "sim.partition");
                sim::PartitionPlan plan = sim::buildPartitionPlan(
                    *sp, sp->schedule(), sim::partitionTarget(), cfg.threads);
                if (l) {
                    l->v["sim.partition_tasks"] = plan.tasks.size();
                    l->v["sim.schedule_nodes"] = sp->schedule().nodes().size();
                }
            }
            // Both lane modules a session loads: plain (multi-tile
            // batches) and partitioned (single-tile batches).
            double codegen = 0, load = 0;
            for (uint32_t parts : {0u, sim::partitionTarget()}) {
                double c0 = nowSeconds();
                {
                    MaybeSpan s(tr, "emit.cppsim");
                    emit::CppSimOptions co;
                    co.lanes = bo.laneTile;
                    co.partitions = parts;
                    std::ostringstream os;
                    emit::emitCppSim(*sp, os, co);
                    if (l)
                        l->v["emit.cppsim_bytes"] += os.str().size();
                }
                double c1 = nowSeconds();
                {
                    MaybeSpan s(tr, "sim.compiled");
                    mods.push_back(sim::CompiledModule::load(
                        *sp, false, bo.laneTile, parts));
                }
                codegen += c1 - c0;
                load += nowSeconds() - c1;
            }
            if (l) {
                l->v["sim.jit_cold_s"] = load;
                l->v["sim.jit_host_compile_s"] = load - codegen;
                // Warm: the same loads once released, from disk.
                mods.clear();
                double w0 = nowSeconds();
                for (uint32_t parts : {0u, sim::partitionTarget()}) {
                    MaybeSpan s(tr, "sim.compiled");
                    mods.push_back(sim::CompiledModule::load(
                        *sp, false, bo.laneTile, parts));
                }
                l->v["sim.jit_warm_s"] = nowSeconds() - w0;
            }
            {
                MaybeSpan s(tr, "sim.batch");
                double b0 = nowSeconds();
                runner.emplace(*sp, bo);
                if (l)
                    l->v["batch.setup_s"] = nowSeconds() - b0;
            }
            MaybeSpan s(tr, "estimate");
            estimate::AreaEstimator(*ctx).estimateProgram();
        }

        double t0 = nowSeconds();
        for (size_t i = 0; i < ops.size(); ++i) {
            if (i >= 6 && cfg.late()) {
                out.truncated = true;
                break;
            }
            if (tr)
                tr->setRequest(i);
            MaybeSpan opSpan(tr, "op");
            std::string frame, err;
            {
                MaybeSpan s(tr, "serve.frame");
                std::stringstream wire;
                serve::writeFrame(wire, ops[i].payload);
                serve::readFrame(wire, frame, err);
            }
            std::vector<sim::Stimulus> batch;
            {
                MaybeSpan s(tr, "serve.decode");
                batch = serve::parseStimuli(json::parse(frame).at("batch"));
            }
            std::vector<sim::LaneResult> lanes;
            {
                MaybeSpan s(tr, "sim.batch");
                lanes = runner->run(batch);
            }
            std::string resp;
            {
                MaybeSpan s(tr, "serve.encode");
                resp = serve::okResponse(
                    "run", serve::lanesJson(lanes, runner->regPaths(),
                                            runner->memPaths()));
            }
            {
                MaybeSpan s(tr, "serve.frame");
                std::stringstream wire;
                serve::writeFrame(wire, resp);
                serve::readFrame(wire, frame, err);
                if (l)
                    l->v["serve.frame_bytes"] +=
                        ops[i].payload.size() + resp.size();
            }
            {
                MaybeSpan s(tr, "bench.check");
                ++out.attempted;
                if (!checkLanes(lanes, runner->memPaths(), expected[i]))
                    fail(out, "run request " + std::to_string(i) +
                                  ": lanes differ from interpreter");
            }
            if (l) {
                batchOf[i] = static_cast<uint32_t>(batch.size());
                decoded[i] = std::move(batch);
            }
        }
        return nowSeconds() - t0;
    });

    // Lane occupancy (live lanes over lane slots evaluated) and the
    // per-class batch time.
    const uint32_t tile = sim::BatchOptions{}.laneTile;
    double live = 0, slots = 0;
    for (uint32_t b : batchOf) {
        live += b;
        slots += static_cast<double>((b + tile - 1) / tile) * tile;
    }
    ly.v["batch.lane_occupancy"] = slots > 0 ? live / slots : 0;
    for (uint32_t cls : {1u, 16u, 256u}) {
        size_t n = std::count(batchOf.begin(), batchOf.end(), cls);
        auto in = [&](uint64_t r) {
            return r < batchOf.size() && batchOf[r] == cls;
        };
        if (n)
            ly.v["batch.run_s_b" + std::to_string(cls)] =
                Layers::spanSum(out.tracer, "sim.batch", in) / n;
    }

    // The same batches on a one-thread runner against the configured
    // thread count (both lane modules are in the cache by now).
    sim::SimProgram sp(*gemm.ctx, "main");
    double t[2] = {0, 0};
    for (int multi = 0; multi < 2 && !cfg.late(); ++multi) {
        sim::BatchOptions bo;
        bo.threads = multi ? cfg.threads : 1;
        sim::BatchRunner runner(sp, bo);
        runner.run({decoded[0][0]});
        double t0 = nowSeconds();
        for (const auto &b : decoded)
            runner.run(b);
        t[multi] = nowSeconds() - t0;
    }
    ly.v["batch.speedup_vs_1t"] = t[1] > 0 ? t[0] / t[1] : 0;
    ly.finish(out, replays);
}

void
runStimulusStream(const RunConfig &cfg, Outcome &out)
{
    out.threadsUsed = cfg.threads;
    dahlia::Program program =
        dahlia::parse(workloads::kernel("gemm").source);
    size_t count = blocks(cfg.seconds, kRunRate, 6);
    std::vector<RunOp> ops = stimulusStream(program, cfg.seed, count);
    if (cfg.trace)
        ops.resize(ops.size() / 2);
    std::vector<std::vector<sim::Stimulus>> expected;
    for (const RunOp &op : ops)
        expected.push_back(expectedLanes(program, op.inputs));
    Resident gemm(kernelCalyx("gemm", false));
    if (cfg.trace) {
        stimulusStreamTraced(cfg, gemm, ops, expected, out);
        return;
    }
    auto priming = primingBatches(program, cfg.seed);

    serve::ServeOptions so;
    so.engine = sim::Engine::Compiled;
    so.threads = cfg.threads;
    std::vector<std::string> primeReq;
    std::vector<std::vector<sim::Stimulus>> primeExp;
    for (const auto &b : priming) {
        primeReq.push_back(runPayload(program, b));
        primeExp.push_back(expectedLanes(program, b));
    }

    // Calyx text in, first checked result out: parse, pipeline,
    // flatten, session start, the batch-1 priming request. Set-up runs
    // on through the batch-32 one, when the session has both lane
    // modules and is ready for the stream. `cold` empties the module
    // cache first.
    struct Start
    {
        double setup = 0, toResult = 0;
    };
    std::unique_ptr<Session> s;
    std::optional<Context> ctx;
    std::optional<sim::SimProgram> sp;
    auto start = [&](bool cold) {
        s.reset();
        sp.reset();
        ctx.reset();
        if (cold)
            emptyDir(cfg.cacheDir);
        Start st;
        double t0 = nowSeconds();
        ctx.emplace(Parser::parseProgram(gemm.text));
        passes::runPipeline(*ctx, kPipeline);
        sp.emplace(*ctx, "main");
        s = std::make_unique<Session>(*sp, so);
        std::string first = s->roundTrip(primeReq[0]);
        double t2 = nowSeconds();
        ++out.attempted;
        if (!checkRunResponse(first, primeExp[0]))
            fail(out, "priming batch-1 differs from interpreter");
        st.toResult = nowSeconds() - t0;
        double t3 = nowSeconds();
        std::string second = s->roundTrip(primeReq[1]);
        st.setup = (t2 - t0) + (nowSeconds() - t3);
        ++out.attempted;
        if (!checkRunResponse(second, primeExp[1]))
            fail(out, "priming batch-32 differs from interpreter");
        return st;
    };
    std::vector<double> setups, coldTtr, warmTtr;
    for (int i = 0; i < kColdStarts; ++i) {
        if (i > 0 && cfg.late()) {
            out.truncated = true;
            break;
        }
        Start st = start(true);
        setups.push_back(st.setup);
        coldTtr.push_back(st.toResult);
    }
    for (int i = 0; i < kColdStarts; ++i) {
        if (i > 0 && cfg.late()) {
            out.truncated = true;
            break;
        }
        warmTtr.push_back(start(false).toResult);
    }

    Latencies lat;
    double stimuli = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (i >= 6 && cfg.late()) {
            out.truncated = true;
            break;
        }
        double t0 = nowSeconds();
        std::string resp = s->roundTrip(ops[i].payload);
        lat.add(nowSeconds() - t0,
                "batch" + std::to_string(ops[i].inputs.size()));
        stimuli += ops[i].inputs.size();
        ++out.attempted;
        if (!checkRunResponse(resp, expected[i]))
            fail(out, "run request " + std::to_string(i) +
                          ": lanes differ from interpreter");
    }
    s.reset();
    double busy = 0;
    for (double l : lat.all)
        busy += l;
    endToEnd(out, median(setups), lat, 6, median(coldTtr), median(warmTtr),
             estimate::AreaEstimator(*gemm.ctx).estimateProgram().luts);
    out.extra.push_back({"stimuli_per_s", busy > 0 ? stimuli / busy : 0,
                         "1/s"});
}

} // namespace

const std::map<std::string, WorkloadFn> &
workloadTable()
{
    static const std::map<std::string, WorkloadFn> w = {
        {"compile_stream", runCompileStream},
        {"stimulus_stream", runStimulusStream},
        {"compiled_sweep", runCompiledSweep},
        {"levelized_mt", runLevelizedMt},
    };
    return w;
}

} // namespace perfbench

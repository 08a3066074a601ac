/**
 * @file
 * Compile-service benchmark: requests/sec through the
 * content-addressed compile cache on a mutated PolyBench stream, and
 * parallel per-component pass execution against serial. The workload
 * is one multi-component program — several PolyBench kernels compiled
 * from Dahlia, renamed, and invoked from a fresh `main` — mutated per
 * request by editing one kernel's constant, the request shape of
 * generated frontends and compile-in-the-loop tooling.
 *
 * Sections written to BENCH_service.json:
 *   cold         every request compiles from scratch (cache disabled)
 *   warm         the same variant set revisited: raw-text tier hits
 *   incremental  never-seen single-kernel edits through a warm
 *                service: every request misses both tiers and
 *                compiles the whole program once
 *   parallel     `-p all` wall time, 1 thread vs all hardware threads,
 *                through the pass manager's wavefront dispatch
 *
 * Usage:
 *   bench_service [--small] [--check] [--reps N] [--out FILE]
 *                 [--threads N]
 *     --small    CI smoke configuration (2 kernels, short streams)
 *     --check    exit non-zero unless warm rps >= cold rps, warm is
 *                >= 5x cold, every warm, incremental and parallel
 *                artifact is byte-identical to a cold serial compile,
 *                and (on hosts with >= 2 cores) parallel `-p all` is
 *                >= 1.5x serial on the multi-component workload — the
 *                parallel speedup gate auto-skips on 1-core hosts
 *     --reps N   stream length multiplier (default 3)
 *     --threads  worker threads for the parallel section (default:
 *                hardware concurrency)
 *     --out      output path (default BENCH_service.json)
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "frontends/dahlia/checker.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "support/error.h"
#include "support/json.h"
#include "support/pool.h"
#include "support/time.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

constexpr const char *kPipeline = "all";

/** One PolyBench kernel as a renamed Calyx component text. */
struct KernelText
{
    std::string name;
    std::string text;      ///< `component <name>() -> () { ... }`
    size_t constPos = 0;   ///< Offset of a mutable `32'd` constant.
    size_t constLen = 0;   ///< Digit count at constPos (0 = none).
};

KernelText
kernelText(const workloads::Kernel &k)
{
    dahlia::Program program = dahlia::parse(k.source);
    dahlia::check(program);
    Context ctx = dahlia::compileDahlia(program);
    KernelText kt;
    kt.name = "poly_" + k.name;
    kt.text = Printer::toString(ctx.main());
    const std::string from = "component main";
    size_t at = kt.text.find(from);
    if (at == std::string::npos)
        fatal("kernel ", k.name, ": no 'component main' to rename");
    kt.text.replace(at, from.size(), "component " + kt.name);
    // A mutable constant: the digits of the first `32'd<n>` literal.
    size_t c = kt.text.find("32'd");
    if (c != std::string::npos) {
        kt.constPos = c + 4;
        size_t end = kt.constPos;
        while (end < kt.text.size() && isdigit(kt.text[end]))
            ++end;
        kt.constLen = end - kt.constPos;
    }
    return kt;
}

/** The kernel text with its constant replaced by `value`; the base
 * text when the kernel has no constant to edit. */
std::string
mutated(const KernelText &kt, uint64_t value)
{
    if (kt.constLen == 0)
        return kt.text;
    std::string t = kt.text;
    t.replace(kt.constPos, kt.constLen, std::to_string(value));
    return t;
}

/** Whole-program source: every kernel component plus a main that
 * invokes each one in sequence. `edit` (when >= 0) selects the kernel
 * whose constant becomes `value`. */
std::string
assembleProgram(const std::vector<KernelText> &kernels, int edit,
                uint64_t value)
{
    std::string src;
    for (size_t i = 0; i < kernels.size(); ++i)
        src += (static_cast<int>(i) == edit ? mutated(kernels[i], value)
                                            : kernels[i].text) +
               "\n";
    std::string cells, wires, control;
    for (size_t i = 0; i < kernels.size(); ++i) {
        std::string cell = "k" + std::to_string(i);
        cells += "    " + cell + " = " + kernels[i].name + "();\n";
        wires += "    group call" + std::to_string(i) + " { " + cell +
                 ".go = 1'd1; call" + std::to_string(i) + "[done] = " +
                 cell + ".done; }\n";
        control += " call" + std::to_string(i) + ";";
    }
    src += "component main() -> () {\n  cells {\n" + cells +
           "  }\n  wires {\n" + wires + "  }\n  control { seq {" +
           control + " } }\n}\n";
    return src;
}

/** Cold reference: fresh pipeline + calyx emit, no cache anywhere. */
std::string
coldArtifact(const std::string &src)
{
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, kPipeline);
    return emit::BackendRegistry::instance().create("calyx")->emitString(
        ctx);
}

struct StreamResult
{
    uint64_t requests = 0;
    double seconds = 0;
    uint64_t rawHits = 0;
    bool artifactsIdentical = true;

    double rps() const { return seconds > 0 ? requests / seconds : 0; }
};

/** Run `sources` through one service, checking every artifact against
 * the cold reference in `expected` (same indexing). */
StreamResult
runStream(cache::CompileService &svc,
          const std::vector<const std::string *> &sources,
          const std::vector<const std::string *> &expected)
{
    StreamResult r;
    for (size_t i = 0; i < sources.size(); ++i) {
        cache::CompileRequest req;
        req.source = *sources[i];
        req.pipeline = kPipeline;
        double t0 = nowSeconds();
        cache::CompileResult res = svc.compile(req);
        r.seconds += nowSeconds() - t0;
        ++r.requests;
        r.rawHits += res.rawTextHit ? 1 : 0;
        if (res.artifact != *expected[i])
            r.artifactsIdentical = false;
    }
    return r;
}

json::Value
streamJson(const char *name, const StreamResult &r)
{
    json::Value s = json::Value::object();
    s.set("name", json::Value::str(name));
    s.set("requests", json::Value::number(r.requests));
    s.set("micros", json::Value::number(
                        static_cast<uint64_t>(r.seconds * 1e6 + 0.5)));
    s.set("requests_per_sec",
          json::Value::number(static_cast<uint64_t>(r.rps() + 0.5)));
    s.set("raw_text_hits", json::Value::number(r.rawHits));
    s.set("artifacts_identical",
          json::Value::boolean(r.artifactsIdentical));
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false, check = false;
    int reps = 3;
    std::string out_path = "BENCH_service.json";
    unsigned threads = WorkPool::defaultThreads();
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--small")) {
            small = true;
        } else if (!std::strcmp(argv[i], "--check")) {
            check = true;
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_service [--small] [--check] "
                         "[--reps N] [--threads N] [--out FILE]\n");
            return 2;
        }
    }
    if (reps < 1)
        reps = 1;

    bool ok = true;
    json::Value doc = json::Value::object();
    try {
        // The workload: kernels with a mutable constant, so every
        // variant is a real source edit.
        std::vector<KernelText> kernels;
        for (const auto &k : workloads::kernels()) {
            if (small && k.name != "gemm" && k.name != "atax")
                continue;
            KernelText kt = kernelText(k);
            if (kt.constLen)
                kernels.push_back(std::move(kt));
            if (kernels.size() == (small ? 2u : 6u))
                break;
        }
        if (kernels.size() < 2)
            fatal("need at least two mutable PolyBench kernels");

        // Variant set: variant v edits kernel (v mod K). Cold
        // references are computed once, outside every timed region.
        const size_t variants = kernels.size() * 2;
        std::vector<std::string> sources;
        std::vector<std::string> references;
        for (size_t v = 0; v < variants; ++v) {
            sources.push_back(assembleProgram(
                kernels, static_cast<int>(v % kernels.size()), 100 + v));
            references.push_back(coldArtifact(sources.back()));
        }
        std::vector<const std::string *> stream, expected;
        for (int r = 0; r < reps; ++r) {
            for (size_t v = 0; v < variants; ++v) {
                stream.push_back(&sources[v]);
                expected.push_back(&references[v]);
            }
        }

        // Cold: the cache is disabled, every request runs the whole
        // pipeline. This is the baseline a non-resident compiler pays.
        cache::CompileCache::Config cold_cfg;
        cold_cfg.enabled = false;
        cache::CompileService cold_svc(cold_cfg);
        StreamResult cold = runStream(cold_svc, stream, expected);

        // Warm: same stream against a primed cache — one untimed lap
        // fills it, then every timed request is a raw-text hit. This
        // is the steady state a resident service reaches after first
        // contact with a variant set.
        cache::CompileService warm_svc((cache::CompileCache::Config()));
        for (size_t v = 0; v < variants; ++v) {
            cache::CompileRequest req;
            req.source = sources[v];
            req.pipeline = kPipeline;
            warm_svc.compile(req);
        }
        StreamResult warm = runStream(warm_svc, stream, expected);

        // Incremental: never-seen single-kernel edits through a warm
        // service. Each misses both tiers (the edit changes main's
        // transitive digest), so this is the cost of a miss.
        std::vector<std::string> inc_sources;
        std::vector<std::string> inc_refs;
        const size_t inc_n = variants;
        for (size_t v = 0; v < inc_n; ++v) {
            inc_sources.push_back(assembleProgram(
                kernels, static_cast<int>(v % kernels.size()),
                1000 + v));
            inc_refs.push_back(coldArtifact(inc_sources.back()));
        }
        std::vector<const std::string *> inc_stream, inc_expected;
        for (size_t v = 0; v < inc_n; ++v) {
            inc_stream.push_back(&inc_sources[v]);
            inc_expected.push_back(&inc_refs[v]);
        }
        StreamResult inc = runStream(warm_svc, inc_stream, inc_expected);

        // Parallel: `-p all` through the wavefront dispatcher, serial
        // vs `threads` workers, on the same multi-component program.
        const std::string &par_src = sources[0];
        double serial_s = 0, parallel_s = 0;
        std::string serial_text, parallel_text;
        for (int r = 0; r < reps; ++r) {
            {
                Context ctx = Parser::parseProgram(par_src);
                double t0 = nowSeconds();
                passes::runPipeline(ctx, kPipeline);
                serial_s += nowSeconds() - t0;
                serial_text = Printer::toString(ctx);
            }
            {
                Context ctx = Parser::parseProgram(par_src);
                passes::RunOptions opts;
                opts.threads = threads;
                double t0 = nowSeconds();
                passes::runPipeline(ctx, kPipeline, opts);
                parallel_s += nowSeconds() - t0;
                parallel_text = Printer::toString(ctx);
            }
        }
        bool parallel_identical = serial_text == parallel_text;
        double parallel_speedup =
            parallel_s > 0 ? serial_s / parallel_s : 0;
        unsigned hw = WorkPool::defaultThreads();

        std::fprintf(stderr,
                     "bench_service: cold %.0f rps, warm %.0f rps "
                     "(%.1fx), incremental %.0f rps, parallel %ut "
                     "%.2fx\n",
                     cold.rps(), warm.rps(),
                     cold.rps() > 0 ? warm.rps() / cold.rps() : 0,
                     inc.rps(), threads, parallel_speedup);

        doc.set("version", json::Value::number(1u));
        doc.set("pipeline", json::Value::str(
                                cache::normalizePipelineSpec(kPipeline)));
        doc.set("kernels",
                json::Value::number(
                    static_cast<uint64_t>(kernels.size())));
        doc.set("variants",
                json::Value::number(static_cast<uint64_t>(variants)));
        json::Value streams = json::Value::array();
        streams.push(streamJson("cold", cold));
        streams.push(streamJson("warm", warm));
        streams.push(streamJson("incremental", inc));
        doc.set("streams", std::move(streams));
        json::Value par = json::Value::object();
        par.set("threads", json::Value::number(threads));
        par.set("hardware_threads", json::Value::number(hw));
        par.set("serial_micros",
                json::Value::number(
                    static_cast<uint64_t>(serial_s * 1e6 + 0.5)));
        par.set("parallel_micros",
                json::Value::number(
                    static_cast<uint64_t>(parallel_s * 1e6 + 0.5)));
        par.set("speedup_x100",
                json::Value::number(static_cast<uint64_t>(
                    parallel_speedup * 100 + 0.5)));
        par.set("artifacts_identical",
                json::Value::boolean(parallel_identical));
        doc.set("parallel", std::move(par));

        if (check) {
            auto gate = [&ok](bool cond, const char *what) {
                if (!cond) {
                    std::fprintf(stderr, "bench_service: CHECK FAILED: %s\n",
                                 what);
                    ok = false;
                }
            };
            gate(cold.artifactsIdentical && warm.artifactsIdentical &&
                     inc.artifactsIdentical,
                 "cached artifacts byte-identical to cold compiles");
            gate(parallel_identical,
                 "parallel -p all byte-identical to serial");
            gate(warm.rps() >= cold.rps(),
                 "warm throughput >= cold throughput");
            gate(warm.rps() >= 5 * cold.rps(),
                 "warm throughput >= 5x cold throughput");
            if (hw >= 2 && threads >= 2) {
                gate(parallel_speedup >= 1.5,
                     "parallel -p all >= 1.5x serial");
            } else {
                std::fprintf(stderr,
                             "bench_service: %u hardware thread(s); "
                             "skipping the parallel speedup gate\n",
                             hw);
            }
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "bench_service: %s\n", e.what());
        return 1;
    }

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "bench_service: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    doc.write(out);
    out << "\n";
    std::fprintf(stderr, "bench_service: wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}

#include "serve/server.h"

#include <vector>

#include "obs/report.h"
#include "serve/protocol.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/text.h"

namespace calyx::serve {

namespace {

json::Value
statsJson(const ServeOptions &opts, const ServeStats &stats,
          const sim::BatchRunner &runner,
          const cache::CompileService &compiler)
{
    json::Value env = obs::reportEnvelope(opts.file);
    json::Value s = json::Value::object();
    s.set("engine",
          json::Value::str(sim::engineName(runner.options().engine)));
    s.set("lane_tile", json::Value::number(runner.options().laneTile));
    s.set("threads", json::Value::number(runner.options().threads));
    s.set("requests", json::Value::number(stats.requests));
    s.set("runs", json::Value::number(stats.runs));
    s.set("stimuli", json::Value::number(stats.stimuli));
    s.set("compiles", json::Value::number(stats.compiles));
    s.set("errors", json::Value::number(stats.errors));
    s.set("module_loads", json::Value::number(runner.moduleLoads()));
    s.set("modules_from_cache",
          json::Value::boolean(runner.modulesFromCache()));
    // Compile-cache counters, mirroring the module_loads/
    // modules_from_cache proof for the simulation side: a warm stream
    // shows artifacts_from_cache climbing while passes_run stays put.
    const cache::CompileService::Counters &c = compiler.counters();
    cache::CompileCache::Stats cs = compiler.cacheStats();
    json::Value cj = json::Value::object();
    cj.set("requests", json::Value::number(c.requests));
    cj.set("artifacts_from_raw_text", json::Value::number(c.rawHits));
    cj.set("artifacts_from_cache",
           json::Value::number(c.rawHits + c.artifactHits));
    cj.set("cache_entries", json::Value::number(cs.entries));
    cj.set("cache_bytes", json::Value::number(cs.bytes));
    cj.set("cache_evictions", json::Value::number(cs.evictions));
    cj.set("disk_hits", json::Value::number(cs.diskHits));
    cj.set("disk_rejects", json::Value::number(cs.diskRejects));
    s.set("compile", std::move(cj));
    env.set("serve", std::move(s));
    return env;
}

json::Value
compileJson(const cache::CompileResult &res, const std::string &backend)
{
    json::Value r = json::Value::object();
    r.set("artifact", json::Value::str(res.artifact));
    r.set("backend", json::Value::str(backend));
    r.set("pipeline", json::Value::str(res.pipeline));
    r.set("components", json::Value::number(res.components));
    r.set("artifact_from_cache",
          json::Value::boolean(res.artifactFromCache));
    r.set("raw_text_hit", json::Value::boolean(res.rawTextHit));
    r.set("compile_ms", json::Value::real(res.seconds * 1e3));
    r.set("passes_run", json::Value::number(res.passInfos.size()));
    return r;
}

} // namespace

ServeStats
serve(const sim::SimProgram &prog, std::istream &in, std::ostream &out,
      const ServeOptions &opts)
{
    sim::BatchOptions bo;
    bo.engine = opts.engine;
    bo.threads = opts.threads;
    if (opts.laneTile)
        bo.laneTile = opts.laneTile;
    bo.maxCycles = opts.maxCycles;
    // Resident runner: schedule walk tables and the JIT module are
    // built here, once, before the first request is even read.
    sim::BatchRunner runner(prog, bo);
    // Resident compiler: the compile cache lives for the session, so a
    // program seen before (byte for byte or modulo formatting) skips
    // the pass pipeline.
    cache::CompileService compiler(opts.compileCache);

    ServeStats stats;
    std::string payload, frameErr;
    for (;;) {
        FrameStatus fs = readFrame(in, payload, frameErr);
        if (fs == FrameStatus::Eof)
            break;
        if (fs == FrameStatus::Bad) {
            ++stats.errors;
            writeFrame(out, errorResponse("bad frame: " + frameErr));
            break; // Frame boundaries are gone; session over.
        }
        ++stats.requests;
        try {
            json::Value req = json::parse(payload);
            if (req.kind() != json::Value::Kind::Obj)
                fatal("request must be a JSON object");
            const json::Value *type = req.find("type");
            if (!type)
                fatal("request has no 'type'");
            const std::string &t = type->asStr();
            if (t == "ping") {
                writeFrame(out,
                           okResponse("ping", json::Value::str("pong")));
            } else if (t == "run") {
                const json::Value *batch = req.find("batch");
                if (!batch)
                    fatal("run request has no 'batch'");
                std::vector<sim::Stimulus> stimuli =
                    parseStimuli(*batch);
                if (stimuli.empty())
                    fatal("run request batch is empty");
                std::vector<sim::LaneResult> lanes = runner.run(stimuli);
                ++stats.runs;
                stats.stimuli += stimuli.size();
                writeFrame(out, okResponse(
                                    "run", lanesJson(lanes,
                                                     runner.regPaths(),
                                                     runner.memPaths())));
            } else if (t == "compile") {
                const json::Value *src = req.find("source");
                if (!src)
                    fatal("compile request has no 'source'");
                cache::CompileRequest creq;
                creq.source = src->asStr();
                if (const json::Value *p = req.find("pipeline"))
                    creq.pipeline = p->asStr();
                if (const json::Value *b = req.find("backend"))
                    creq.backend = b->asStr();
                creq.threads = opts.threads;
                cache::CompileResult cres = compiler.compile(creq);
                ++stats.compiles;
                writeFrame(out, okResponse(
                                    "compile",
                                    compileJson(cres, creq.backend)));
            } else if (t == "stats") {
                writeFrame(out,
                           okResponse("stats", statsJson(opts, stats,
                                                         runner,
                                                         compiler)));
            } else if (t == "shutdown") {
                writeFrame(out, okResponse("shutdown",
                                           json::Value::str("bye")));
                break;
            } else {
                // Mirror the pass/backend registry UX: name the
                // closest known request type when this looks like a
                // typo.
                static const std::vector<std::string> known = {
                    "ping", "run", "compile", "stats", "shutdown"};
                std::string hint = suggestClosest(t, known);
                fatal("unknown request type '", t, "'",
                      hint.empty() ? ""
                                   : " (did you mean '" + hint + "'?)",
                      "; want ping, run, compile, stats, or shutdown");
            }
        } catch (const Error &e) {
            // Bad request, good framing: reject and keep serving.
            ++stats.errors;
            writeFrame(out, errorResponse(e.what()));
        }
    }
    return stats;
}

void
rejectObserverFlag(const std::string &observer_flag,
                   const std::string &mode_flag)
{
    fatal(observer_flag, " cannot be combined with ", mode_flag, ": ",
          observer_flag == "--trace" ? "a VCD trace observes one scalar "
                                       "stimulus trajectory"
                                     : "the profiler observes one scalar "
                                       "stimulus trajectory",
          ", but ", mode_flag,
          " advances many lanes per pass and has no per-lane probe "
          "hookup (docs/observability.md). Drop ", observer_flag,
          " or run a scalar --sim instead.");
}

} // namespace calyx::serve

#include "cache/compile_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "emit/backend.h"
#include "ir/context.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "support/error.h"
#include "support/hash.h"

namespace calyx::cache {

namespace {

bool
makeDirs(const std::string &path)
{
    std::string prefix;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!prefix.empty() && prefix != "/") {
                if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
                    return false;
            }
        }
        if (i < path.size())
            prefix += path[i];
    }
    return true;
}

std::optional<std::string>
readFileIfExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Write-to-temp + rename, same discipline as the cppsim JIT cache:
 * a concurrent reader sees either nothing or the whole entry. A failed
 * or short write is never renamed into place. */
void
writeFileAtomic(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp" + std::to_string(::getpid());
    std::ofstream out(tmp, std::ios::binary);
    if (!out)
        return; // Disk tier is best-effort; memory tier still holds it.
    out << text;
    out.close();
    if (!out || ::rename(tmp.c_str(), path.c_str()) != 0)
        ::remove(tmp.c_str());
}

/** First line of every disk entry: the key it was written under, the
 * payload byte count, and the payload digest. */
std::string
entryHeader(const std::string &key, const std::string &payload)
{
    return "calyx-compile-cache " + key + " " +
           std::to_string(payload.size()) + " " + contentDigest(payload) +
           "\n";
}

/** The payload of a disk entry read back for `key`, or nullopt when
 * the header does not vouch for it: garbage, truncation, or a file
 * copied or renamed from another key. */
std::optional<std::string>
verifiedPayload(const std::string &key, const std::string &file)
{
    size_t nl = file.find('\n');
    if (nl == std::string::npos)
        return std::nullopt;
    std::string payload = file.substr(nl + 1);
    if (file.compare(0, nl + 1, entryHeader(key, payload)) != 0)
        return std::nullopt;
    return payload;
}

} // namespace

std::string
normalizePipelineSpec(const std::string &spec)
{
    passes::PipelineSpec parsed = passes::parsePipelineSpec(spec);
    for (passes::PassInvocation &inv : parsed.passes) {
        // Order-independent across distinct keys; for a duplicated key
        // the last occurrence wins (matching Pass::option application
        // order), then the stable sort keeps that survivor.
        for (size_t i = 0; i < inv.options.size(); ++i) {
            for (size_t j = inv.options.size(); j-- > i + 1;) {
                if (inv.options[j].first == inv.options[i].first) {
                    inv.options[i].second = inv.options[j].second;
                    inv.options.erase(inv.options.begin() + j);
                }
            }
        }
        std::stable_sort(inv.options.begin(), inv.options.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
    }
    return parsed.str();
}

ProgramDigests
digestProgram(const Context &ctx)
{
    // The extern declarations fold into every component's own digest:
    // changing a black-box primitive's interface changes what every
    // component compiles against.
    std::ostringstream ex;
    Printer::printExterns(ctx, ex);
    const std::string externs_digest = contentDigest(ex.str());

    std::unordered_map<Symbol, std::string> own;
    for (const auto &comp : ctx.components()) {
        own[comp->name()] =
            contentDigest(externs_digest + "\n" +
                          Printer::toString(*comp));
    }

    // Transitive digests, memoized over the instantiation DAG (the
    // parser requires components to be defined before use, so the
    // relation cannot cycle).
    std::unordered_map<Symbol, std::string> trans;
    std::function<const std::string &(const Component &)> rec =
        [&](const Component &comp) -> const std::string & {
        auto it = trans.find(comp.name());
        if (it != trans.end())
            return it->second;
        std::set<Symbol> deps;
        for (const auto &cell : comp.cells()) {
            if (!cell->isPrimitive())
                deps.insert(cell->type());
        }
        std::string acc = own[comp.name()];
        for (Symbol dep : deps) {
            const Component *def = ctx.findComponent(dep);
            if (def)
                acc += "\n" + dep.str() + "=" + rec(*def);
        }
        return trans.emplace(comp.name(), contentDigest(acc))
            .first->second;
    };

    ProgramDigests d;
    std::string acc = "entry=" + ctx.entrypoint().str();
    for (const auto &comp : ctx.components()) {
        const std::string &t = rec(*comp);
        d.transitive.emplace_back(comp->name(), t);
        acc += "\n" + comp->name().str() + "=" + t;
    }
    d.program = contentDigest(acc);
    return d;
}

std::string
compileCacheDir()
{
    if (const char *dir = std::getenv("CALYX_COMPILE_CACHE"); dir && *dir)
        return dir;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return std::string(xdg) + "/calyx-compile";
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.cache/calyx-compile";
    return "/tmp/calyx-compile";
}

std::optional<std::string>
CompileCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!cfg.enabled) {
        ++st.misses;
        return std::nullopt;
    }
    auto it = index.find(key);
    if (it != index.end()) {
        lru.splice(lru.begin(), lru, it->second);
        ++st.hits;
        return it->second->second;
    }
    if (!cfg.diskDir.empty()) {
        const std::string path = cfg.diskDir + "/" + key + ".txt";
        if (auto file = readFileIfExists(path)) {
            if (auto text = verifiedPayload(key, *file)) {
                ++st.diskHits;
                lru.emplace_front(key, *text);
                index[key] = lru.begin();
                st.bytes += text->size();
                ++st.entries;
                evictOver();
                return text;
            }
            // Untrusted bytes: drop them; the recompile rewrites the
            // entry.
            ++st.diskRejects;
            ::remove(path.c_str());
        }
    }
    ++st.misses;
    return std::nullopt;
}

void
CompileCache::put(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!cfg.enabled)
        return;
    auto it = index.find(key);
    if (it != index.end()) {
        st.bytes += value.size();
        st.bytes -= it->second->second.size();
        it->second->second = value;
        lru.splice(lru.begin(), lru, it->second);
    } else {
        lru.emplace_front(key, value);
        index[key] = lru.begin();
        st.bytes += value.size();
        ++st.entries;
        evictOver();
    }
    if (!cfg.diskDir.empty() && makeDirs(cfg.diskDir))
        writeFileAtomic(cfg.diskDir + "/" + key + ".txt",
                        entryHeader(key, value) + value);
}

void
CompileCache::evictOver()
{
    while (!lru.empty() && (st.entries > cfg.maxEntries ||
                            st.bytes > cfg.maxBytes)) {
        auto &back = lru.back();
        st.bytes -= back.second.size();
        --st.entries;
        ++st.evictions;
        index.erase(back.first);
        lru.pop_back();
    }
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

namespace {

CompileCache::Config
envCacheConfig()
{
    CompileCache::Config cfg;
    if (const char *dir = std::getenv("CALYX_COMPILE_CACHE"); dir && *dir)
        cfg.diskDir = compileCacheDir();
    return cfg;
}

} // namespace

CompileService::CompileService() : store(envCacheConfig()) {}

CompileResult
CompileService::compile(const CompileRequest &req)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };
    ++counts.requests;

    CompileResult res;
    res.pipeline = normalizePipelineSpec(req.pipeline);
    // Resolve the backend up front: an unknown name is a hard error
    // (with a did-you-mean suggestion) before any cache state changes.
    std::unique_ptr<emit::Backend> backend =
        emit::BackendRegistry::instance().create(req.backend);

    // Tier 1: exact request bytes -> artifact. No parse.
    const std::string raw_key = contentDigest(
        "raw\n" + req.backend + "\n" + res.pipeline + "\n" + req.source);
    if (auto hit = store.get(raw_key)) {
        ++counts.rawHits;
        res.artifact = std::move(*hit);
        res.artifactFromCache = res.rawTextHit = true;
        res.seconds = elapsed();
        return res;
    }

    // Tier 2: canonical program digest -> artifact. Catches requests
    // that differ only in formatting.
    Context ctx = Parser::parseProgram(req.source);
    ProgramDigests digests = digestProgram(ctx);
    res.components = digests.transitive.size();
    const std::string art_key =
        contentDigest("artifact\n" + req.backend + "\n" + res.pipeline +
                      "\n" + digests.program);
    if (auto hit = store.get(art_key)) {
        ++counts.artifactHits;
        res.artifact = std::move(*hit);
        res.artifactFromCache = true;
        store.put(raw_key, res.artifact);
        res.seconds = elapsed();
        return res;
    }

    // Miss: run the pipeline on the program just parsed and emit from
    // that same Context. There is no per-component reuse to attempt:
    // the entrypoint's transitive digest changes whenever anything it
    // reaches changes, so any edit reruns the whole reachable program
    // (docs/service.md, "Two tiers").
    passes::RunOptions run_opts;
    run_opts.threads = req.threads;
    run_opts.verify = req.verify;
    res.passInfos = passes::runPipeline(ctx, res.pipeline, run_opts);
    res.artifact = backend->emitString(ctx);

    store.put(art_key, res.artifact);
    store.put(raw_key, res.artifact);
    res.seconds = elapsed();
    return res;
}

} // namespace calyx::cache

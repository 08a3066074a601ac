#ifndef CALYX_CACHE_COMPILE_CACHE_H
#define CALYX_CACHE_COMPILE_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "passes/pass_manager.h"
#include "support/symbol.h"

namespace calyx {
class Context;
}

namespace calyx::cache {

/**
 * Content-addressed compile cache (docs/service.md): the compiler-side
 * analogue of the compiled-simulation module cache. A resident
 * `CompileService` answers a stream of compile requests — repeats and
 * reformatted variants of programs it has seen, the workload shape of
 * generated frontends and compile-in-the-loop tooling — from memory
 * instead of re-running the pass pipeline.
 *
 * Cache keys are derived from three ingredients and nothing else:
 *
 *   1. each component's *canonical source* (its printed text, so
 *      formatting differences between requests do not split the key),
 *   2. the *normalized pipeline spec* (aliases expanded, exclusions
 *      applied, per-pass options sorted by key), and
 *   3. the transitive digests of every component it instantiates,
 *      so editing a dependency changes the digest of every dependent.
 *
 * Two tiers, cheapest first: a raw-text tier (exact request bytes →
 * emitted artifact, no parse at all) and a canonical artifact tier
 * (parsed program digest → artifact, immune to whitespace). A miss in
 * both compiles the parsed program once, in place. There is no
 * per-component tier: the entrypoint reaches every component it can
 * be affected by, so any edit reruns the whole reachable program.
 */

/**
 * Canonical form of a pipeline-spec string: aliases expanded,
 * `-pass` exclusions applied, and each invocation's `[k=v]` options
 * sorted by key (option application is order-independent across
 * distinct keys; for duplicate keys the last wins before sorting).
 * Two spec strings requesting the same pass sequence normalize — and
 * therefore hash — identically: "all" equals its expanded list,
 * "all,-collapse-control" equals the expansion with the member
 * removed, and "p[a=1,b=2]" equals "p[b=2,a=1]". Unknown pass names
 * are fatal errors with the registry's did-you-mean suggestion.
 */
std::string normalizePipelineSpec(const std::string &spec);

/** Per-component content digests for a parsed program. */
struct ProgramDigests
{
    /**
     * (component, transitive digest) in source order. The transitive
     * digest folds the component's own printed text, the extern
     * primitive declarations, and the transitive digests of every
     * component it instantiates (sorted by name), so it changes iff
     * the component or anything in its dependency cone changes.
     */
    std::vector<std::pair<Symbol, std::string>> transitive;
    /** Whole-program digest: entrypoint + every transitive digest. */
    std::string program;
};

ProgramDigests digestProgram(const Context &ctx);

/**
 * Default on-disk tier location, resolved like the cppsim JIT cache:
 * $CALYX_COMPILE_CACHE, else $XDG_CACHE_HOME/calyx-compile, else
 * ~/.cache/calyx-compile, else /tmp/calyx-compile.
 */
std::string compileCacheDir();

/**
 * In-memory LRU over digest-keyed artifacts with an optional on-disk
 * tier. The key already encodes everything that determines the value,
 * so entries never need invalidation — only eviction. Disk entries are
 * untrusted: each `<key>.txt` starts with a header line naming its key,
 * payload byte count and payload digest, and get() deletes and misses
 * on any entry whose header does not match. Thread-safe (one mutex;
 * the serve loop and tests share instances).
 */
class CompileCache
{
  public:
    struct Config
    {
        /** False disables the cache entirely (every get misses, every
         * put is dropped) — the bench's cold configuration. */
        bool enabled = true;
        size_t maxEntries = 512;
        size_t maxBytes = 256u << 20;
        /** On-disk tier directory; empty keeps the cache memory-only.
         * Entries are written atomically (temp + rename) and survive
         * the process, so a restarted service warms from disk. */
        std::string diskDir;
    };

    struct Stats
    {
        uint64_t hits = 0;     ///< In-memory tier hits.
        uint64_t diskHits = 0; ///< Disk tier hits (promoted to memory).
        /** Disk entries whose header failed to verify (deleted). */
        uint64_t diskRejects = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0; ///< Current in-memory entries.
        uint64_t bytes = 0;   ///< Current in-memory value bytes.
    };

    CompileCache() = default;
    explicit CompileCache(Config cfg) : cfg(std::move(cfg)) {}

    std::optional<std::string> get(const std::string &key);
    void put(const std::string &key, const std::string &value);

    Stats stats() const;
    const Config &config() const { return cfg; }

  private:
    void evictOver();

    Config cfg;
    mutable std::mutex mu;
    /** Front = most recently used. */
    std::list<std::pair<std::string, std::string>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, std::string>>::
                           iterator>
        index;
    Stats st;
};

/** One compile request: source + pipeline spec + backend in. */
struct CompileRequest
{
    std::string source;
    std::string pipeline = "default";
    std::string backend = "calyx";
    /** Worker threads for per-component pass execution
     * (passes/pass_manager.h wavefront dispatch). */
    unsigned threads = 1;
    /** Run the well-formed checker between passes. */
    bool verify = false;
};

/** Emitted artifact + provenance for one request. */
struct CompileResult
{
    std::string artifact;
    /** Normalized pipeline spec actually keyed on. */
    std::string pipeline;
    uint64_t components = 0; ///< 0 on a raw-text hit (nothing parsed).
    bool artifactFromCache = false;
    /** The cheapest tier hit: exact request bytes, no parse. */
    bool rawTextHit = false;
    double seconds = 0;
    /** Per-pass instrumentation; empty when no pass ran. */
    std::vector<passes::PassRunInfo> passInfos;
};

/**
 * A resident compiler: CompileCache + the compile pipeline behind one
 * call. A request that misses both tiers is parsed once, run through
 * the pipeline, and emitted from that same Context, so a miss costs
 * what an uncached compile costs (docs/service.md has the contract).
 */
class CompileService
{
  public:
    struct Counters
    {
        uint64_t requests = 0;
        uint64_t rawHits = 0;      ///< Raw-text artifact hits.
        uint64_t artifactHits = 0; ///< Canonical artifact hits.
        /** Always 0: there is no per-component tier. Kept so existing
         * readers of these counters still compile. */
        uint64_t componentHits = 0;
        uint64_t componentMisses = 0; ///< Always 0, as componentHits.
    };

    /** Memory-only by default; $CALYX_COMPILE_CACHE (when set) enables
     * the disk tier at that path. */
    CompileService();
    explicit CompileService(CompileCache::Config cfg)
        : store(std::move(cfg))
    {}

    /** Compile one request. fatal()s (throws Error) on parse errors,
     * unknown passes/backends (with did-you-mean), or verify failures;
     * the cache is left consistent either way. */
    CompileResult compile(const CompileRequest &req);

    const Counters &counters() const { return counts; }
    CompileCache::Stats cacheStats() const { return store.stats(); }
    const CompileCache &cache() const { return store; }

  private:
    CompileCache store;
    Counters counts;
};

} // namespace calyx::cache

#endif // CALYX_CACHE_COMPILE_CACHE_H

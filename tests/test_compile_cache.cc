/**
 * The content-addressed compile cache and CompileService:
 * pipeline-spec normalization (alias vs expansion, exclusions, option
 * order) hashing equal; transitive digests changing exactly for an
 * edited component and its dependents; a mutated request stream whose
 * cached (and parallel-pass) artifacts are byte-identical to cold
 * serial compiles for both the calyx and verilog backends. Plus the
 * LRU and disk-tier mechanics of CompileCache itself, including disk
 * entries that are garbage, truncated, or filed under the wrong key.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "support/error.h"
#include "support/hash.h"

namespace calyx {
namespace {

/** A three-level dependency chain (main -> mid -> leaf) plus a
 * component only main depends on, so a leaf edit must change the
 * digests of exactly {leaf, mid, main} and spare `island`. The
 * constants let tests mint mutated variants of individual components. */
std::string
chainProgram(const std::string &leaf_const,
             const std::string &island_const)
{
    return R"(
component leaf() -> () {
  cells { r = std_reg(8); a = std_add(8); }
  wires {
    group bump {
      a.left = r.out; a.right = 8'd)" +
           leaf_const + R"(;
      r.in = a.out; r.write_en = 1'd1;
      bump[done] = r.done;
    }
  }
  control { bump; }
}
component mid() -> () {
  cells { l = leaf(); t = std_reg(8); }
  wires {
    group call_leaf { l.go = 1'd1; call_leaf[done] = l.done; }
    group grab {
      t.in = 8'd2; t.write_en = 1'd1; grab[done] = t.done;
    }
  }
  control { seq { call_leaf; grab; } }
}
component island() -> () {
  cells { r = std_reg(8); a = std_add(8); }
  wires {
    group bump {
      a.left = r.out; a.right = 8'd)" +
           island_const + R"(;
      r.in = a.out; r.write_en = 1'd1;
      bump[done] = r.done;
    }
  }
  control { bump; }
}
component main() -> () {
  cells { m = mid(); o = island(); }
  wires {
    group call_mid { m.go = 1'd1; call_mid[done] = m.done; }
    group call_island { o.go = 1'd1; call_island[done] = o.done; }
  }
  control { seq { call_mid; call_island; } }
}
)";
}

/** Cold reference: a fresh pipeline + emit with no cache involved. */
std::string
coldCompile(const std::string &src, const std::string &spec,
            const std::string &backend)
{
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, spec);
    return emit::BackendRegistry::instance().create(backend)->emitString(
        ctx);
}

/** A fresh temporary directory, removed with its contents. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() /
             "calyx-compile-test-XXXXXX")
                .string();
        if (::mkdtemp(tmpl.data()))
            path = tmpl;
    }
    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }
};

/** Every file in `dir`, sorted. */
std::vector<std::string>
filesIn(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary) << text;
}

TEST(PipelineSpecNormalization, AliasEqualsExpansion)
{
    // "all" and its hand-expanded member list normalize to the same
    // string, so both hash to the same cache key.
    std::string expansion = passes::parsePipelineSpec("all").str();
    EXPECT_EQ(cache::normalizePipelineSpec("all"),
              cache::normalizePipelineSpec(expansion));
    // Aliases really expand: the normalized form names passes, not
    // the alias.
    EXPECT_EQ(cache::normalizePipelineSpec("all").find("all,"),
              std::string::npos);
}

TEST(PipelineSpecNormalization, ExclusionsApply)
{
    std::string with = cache::normalizePipelineSpec("all");
    std::string without =
        cache::normalizePipelineSpec("all,-collapse-control");
    EXPECT_NE(with, without);
    EXPECT_EQ(without.find("collapse-control"), std::string::npos);
    // Excluding then re-adding at the end is a *different* pipeline
    // (position matters) — but excluding twice is idempotent.
    EXPECT_EQ(without, cache::normalizePipelineSpec(
                           "all,-collapse-control,-collapse-control"));
}

TEST(PipelineSpecNormalization, OptionOrderIsCanonical)
{
    // Same options in any order: same normal form, same digest.
    std::string a = cache::normalizePipelineSpec(
        "compile-control[encoding=one-hot,optimize=false]");
    std::string b = cache::normalizePipelineSpec(
        "compile-control[optimize=false,encoding=one-hot]");
    EXPECT_EQ(a, b);
    EXPECT_EQ(contentDigest(a), contentDigest(b));
    // Any option *value* change changes the key.
    std::string c = cache::normalizePipelineSpec(
        "compile-control[optimize=true,encoding=one-hot]");
    EXPECT_NE(a, c);
    // Duplicate keys: the last occurrence wins, matching the order
    // Pass::option calls are applied.
    EXPECT_EQ(cache::normalizePipelineSpec(
                  "compile-control[encoding=binary,encoding=one-hot]"),
              cache::normalizePipelineSpec(
                  "compile-control[encoding=one-hot]"));
    // Unknown pass names still fail loudly with the registry's
    // did-you-mean.
    try {
        cache::normalizePipelineSpec("colapse-control");
        FAIL() << "expected Error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("collapse-control"),
                  std::string::npos)
            << e.what();
    }
}

/** The components whose transitive digest differs between two
 * sources, in source order. */
std::vector<std::string>
changedDigests(const std::string &before, const std::string &after)
{
    Context a = Parser::parseProgram(before);
    Context b = Parser::parseProgram(after);
    cache::ProgramDigests da = cache::digestProgram(a);
    cache::ProgramDigests db = cache::digestProgram(b);
    EXPECT_EQ(da.transitive.size(), db.transitive.size());
    std::vector<std::string> changed;
    for (size_t i = 0; i < da.transitive.size(); ++i) {
        EXPECT_EQ(da.transitive[i].first.str(), db.transitive[i].first.str());
        if (da.transitive[i].second != db.transitive[i].second)
            changed.push_back(da.transitive[i].first.str());
    }
    EXPECT_NE(da.program, db.program);
    return changed;
}

TEST(ProgramDigests, TransitiveInvalidation)
{
    // Editing the leaf changes leaf, and mid and main through the
    // dependency chain; the island is untouched.
    EXPECT_EQ(changedDigests(chainProgram("3", "7"), chainProgram("4", "7")),
              (std::vector<std::string>{"leaf", "mid", "main"}));
    // Editing the island changes it and main, which instantiates it.
    EXPECT_EQ(changedDigests(chainProgram("3", "7"), chainProgram("3", "9")),
              (std::vector<std::string>{"island", "main"}));
}

TEST(ProgramDigests, WhitespaceInsensitive)
{
    // Digests come from the *printed* canonical text, so reformatting
    // the source does not split cache keys.
    std::string src = chainProgram("3", "7");
    std::string squeezed;
    for (char c : src) // Collapse the indentation runs.
        if (c != ' ' || (squeezed.size() && squeezed.back() != ' '))
            squeezed += c;
    Context a = Parser::parseProgram(src);
    Context b = Parser::parseProgram(squeezed);
    EXPECT_EQ(cache::digestProgram(a).program,
              cache::digestProgram(b).program);
}

TEST(CompileCache, LruEvictionAndDisable)
{
    cache::CompileCache::Config cfg;
    cfg.maxEntries = 2;
    cache::CompileCache cc(cfg);
    cc.put("a", "1");
    cc.put("b", "2");
    cc.put("c", "3"); // Evicts "a", the least recently used.
    EXPECT_FALSE(cc.get("a").has_value());
    EXPECT_EQ(cc.get("b").value_or(""), "2");
    EXPECT_EQ(cc.get("c").value_or(""), "3");
    cache::CompileCache::Stats st = cc.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.entries, 2u);
    // get() refreshes recency: touch "b", insert "d", "c" goes.
    cc.get("b");
    cc.put("d", "4");
    EXPECT_TRUE(cc.get("b").has_value());
    EXPECT_FALSE(cc.get("c").has_value());

    cache::CompileCache::Config off;
    off.enabled = false;
    cache::CompileCache disabled(off);
    disabled.put("k", "v");
    EXPECT_FALSE(disabled.get("k").has_value());
}

TEST(CompileService, RawTextFastPath)
{
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileRequest req;
    req.source = chainProgram("3", "7");
    req.pipeline = "all";
    cache::CompileResult first = svc.compile(req);
    EXPECT_FALSE(first.artifactFromCache);
    EXPECT_FALSE(first.passInfos.empty());
    cache::CompileResult second = svc.compile(req);
    EXPECT_TRUE(second.rawTextHit);
    EXPECT_TRUE(second.artifactFromCache);
    EXPECT_TRUE(second.passInfos.empty()); // No parse, no passes.
    EXPECT_EQ(second.artifact, first.artifact);
    EXPECT_EQ(svc.counters().rawHits, 1u);

    // Reformatted source misses tier 1 but hits the canonical
    // artifact tier: same digests, same artifact, still no passes.
    cache::CompileRequest spaced = req;
    spaced.source = "\n\n" + req.source + "\n";
    cache::CompileResult third = svc.compile(spaced);
    EXPECT_FALSE(third.rawTextHit);
    EXPECT_TRUE(third.artifactFromCache);
    EXPECT_TRUE(third.passInfos.empty());
    EXPECT_EQ(third.artifact, first.artifact);
    EXPECT_EQ(svc.counters().artifactHits, 1u);
}

TEST(CompileService, MutatedStreamByteIdenticalBothBackends)
{
    // The acceptance gate: a warm service answering a stream of
    // mutated programs emits byte-identical artifacts to a cold serial
    // compile of each variant — for the calyx form *and* the verilog
    // backend.
    for (const std::string backend : {"calyx", "verilog"}) {
        const std::string spec =
            backend == "verilog" ? "all" : "default";
        cache::CompileService svc((cache::CompileCache::Config()));
        for (int v = 0; v < 6; ++v) {
            std::string src = chainProgram(
                std::to_string(3 + (v % 3)), std::to_string(7 + v / 3));
            cache::CompileRequest req;
            req.source = src;
            req.pipeline = spec;
            req.backend = backend;
            cache::CompileResult res = svc.compile(req);
            EXPECT_EQ(res.artifact, coldCompile(src, spec, backend))
                << backend << " variant " << v;
        }
    }
}

TEST(CompileService, EditIsAMissEqualToColdCompile)
{
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileRequest req;
    req.pipeline = "all";
    req.source = chainProgram("3", "7");
    svc.compile(req);

    // A one-component edit of a program the service has seen misses
    // both tiers and runs the pipeline on the whole program.
    req.source = chainProgram("4", "7");
    cache::CompileResult res = svc.compile(req);
    EXPECT_FALSE(res.artifactFromCache);
    EXPECT_FALSE(res.passInfos.empty());
    EXPECT_EQ(res.components, 4u);
    EXPECT_EQ(res.artifact, coldCompile(req.source, "all", "calyx"));
    EXPECT_EQ(svc.counters().artifactHits + svc.counters().rawHits, 0u);
    EXPECT_EQ(svc.counters().componentHits, 0u);
}

TEST(CompileService, ParallelPassesByteIdentical)
{
    // Wavefront-parallel pass execution (threads > 1) must produce the
    // same artifact as a serial compile, byte for byte.
    std::string src = chainProgram("3", "7");
    cache::CompileRequest req;
    req.source = src;
    req.pipeline = "all";
    req.threads = 4;
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileResult res = svc.compile(req);
    EXPECT_EQ(res.artifact, coldCompile(src, "all", "calyx"));

    // And directly through the pass manager, without the cache.
    Context serial = Parser::parseProgram(src);
    passes::runPipeline(serial, "all");
    Context parallel = Parser::parseProgram(src);
    passes::RunOptions opts;
    opts.threads = 4;
    passes::runPipeline(parallel, "all", opts);
    EXPECT_EQ(Printer::toString(parallel), Printer::toString(serial));
}

TEST(CompileService, ParallelRunInfoAggregatesDeterministically)
{
    // PassRunInfo must not depend on the dispatch interleaving: same
    // pass sequence, and per-pass stats deltas equal to a serial run.
    std::string src = chainProgram("3", "7");
    Context a = Parser::parseProgram(src);
    passes::RunOptions sa;
    sa.collectStats = true;
    std::vector<passes::PassRunInfo> serial =
        passes::runPipeline(a, "all", sa);
    Context b = Parser::parseProgram(src);
    passes::RunOptions pa;
    pa.collectStats = true;
    pa.threads = 4;
    std::vector<passes::PassRunInfo> parallel =
        passes::runPipeline(b, "all", pa);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].pass, parallel[i].pass);
        EXPECT_EQ(serial[i].after.cells, parallel[i].after.cells);
        EXPECT_EQ(serial[i].after.groups, parallel[i].after.groups);
        EXPECT_EQ(serial[i].after.controlStatements,
                  parallel[i].after.controlStatements);
    }
}

TEST(CompileService, DiskTierSurvivesRestart)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    cache::CompileCache::Config cfg;
    cfg.diskDir = dir.path;
    cache::CompileRequest req;
    req.source = chainProgram("3", "7");
    req.pipeline = "all";
    std::string artifact = cache::CompileService(cfg).compile(req).artifact;

    // A fresh service — a "restarted" process — warms from disk: the
    // artifact comes back without running any pass.
    cache::CompileService svc(cfg);
    cache::CompileResult res = svc.compile(req);
    EXPECT_TRUE(res.artifactFromCache);
    EXPECT_TRUE(res.passInfos.empty());
    EXPECT_EQ(res.artifact, artifact);
    EXPECT_GT(svc.cacheStats().diskHits, 0u);
}

/**
 * Fill a disk tier with the chain program's entries, overwrite each
 * entry file with `damage(its contents)`, and check that a restarted
 * service rejects every one, recompiles cold, and writes valid entries
 * back in their place.
 */
void
expectDamagedEntriesRecompile(
    const std::function<std::string(const std::string &)> &damage)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    cache::CompileCache::Config cfg;
    cfg.diskDir = dir.path;
    cache::CompileRequest req;
    req.source = chainProgram("3", "7");
    req.pipeline = "all";
    cache::CompileService(cfg).compile(req);
    const std::vector<std::string> files = filesIn(dir.path);
    EXPECT_EQ(files.size(), 2u); // The raw-text and canonical entries.
    for (const std::string &f : files)
        writeFile(f, damage(readFile(f)));

    const std::string cold = coldCompile(req.source, "all", "calyx");
    cache::CompileService restarted(cfg);
    cache::CompileResult res = restarted.compile(req);
    EXPECT_FALSE(res.artifactFromCache);
    EXPECT_EQ(res.artifact, cold);
    EXPECT_EQ(restarted.cacheStats().diskHits, 0u);
    EXPECT_EQ(restarted.cacheStats().diskRejects, 2u);

    // Both entries were rewritten, and a second restart trusts them.
    EXPECT_EQ(filesIn(dir.path), files);
    cache::CompileService again(cfg);
    res = again.compile(req);
    EXPECT_TRUE(res.rawTextHit);
    EXPECT_EQ(res.artifact, cold);
    EXPECT_EQ(again.cacheStats().diskHits, 1u);
    EXPECT_EQ(again.cacheStats().diskRejects, 0u);
}

TEST(CompileCache, GarbageDiskEntryIsRejected)
{
    expectDamagedEntriesRecompile(
        [](const std::string &) { return std::string("\x7f garbage"); });
}

TEST(CompileCache, TruncatedDiskEntryIsRejected)
{
    expectDamagedEntriesRecompile([](const std::string &text) {
        return text.substr(0, text.size() / 2);
    });
}

TEST(CompileCache, DiskEntryFromAnotherKeyIsRejected)
{
    // A valid entry of a different program, renamed under this
    // program's keys.
    TempDir other;
    ASSERT_FALSE(other.path.empty());
    cache::CompileCache::Config cfg;
    cfg.diskDir = other.path;
    cache::CompileRequest req;
    req.source = chainProgram("4", "9");
    req.pipeline = "all";
    cache::CompileService(cfg).compile(req);
    const std::string foreign = readFile(filesIn(other.path).front());
    expectDamagedEntriesRecompile(
        [&foreign](const std::string &) { return foreign; });
}

TEST(CompileCache, FailedDiskWriteIsNotCommitted)
{
    // A write cut short (here by the file-size limit) must leave no
    // entry behind, not a truncated one renamed into place.
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    cache::CompileCache::Config cfg;
    cfg.diskDir = dir.path;
    const std::string value(64 << 10, 'x');

    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit small = saved;
    small.rlim_cur = 4096;
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
    cache::CompileCache(cfg).put("big", value);
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_TRUE(filesIn(dir.path).empty());
    EXPECT_FALSE(cache::CompileCache(cfg).get("big").has_value());

    // Without the limit the same put commits an entry that reads back.
    cache::CompileCache(cfg).put("big", value);
    EXPECT_EQ(cache::CompileCache(cfg).get("big").value_or(""), value);
}

TEST(CompileService, ErrorsDoNotPoisonTheCache)
{
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileRequest bad;
    bad.source = "component main() -> () {"; // Truncated program.
    EXPECT_THROW(svc.compile(bad), Error);
    cache::CompileRequest worse;
    worse.source = chainProgram("3", "7");
    worse.backend = "verilgo"; // Unknown backend, did-you-mean.
    try {
        svc.compile(worse);
        FAIL() << "expected Error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("verilog"),
                  std::string::npos)
            << e.what();
    }
    // The failed requests left nothing behind; a good compile still
    // runs cold.
    cache::CompileRequest good;
    good.source = chainProgram("3", "7");
    cache::CompileResult res = svc.compile(good);
    EXPECT_FALSE(res.artifactFromCache);
    EXPECT_EQ(res.artifact,
              coldCompile(good.source, "default", "calyx"));
}

} // namespace
} // namespace calyx

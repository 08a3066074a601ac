/**
 * @file
 * The benchmark binary: runs one workload once and prints its result.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --cache-dir <dir> --out-dir <dir> [--host key=value]...
 *
 * Standard output ends with one JSON line:
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). The lines before it are a report: the host block,
 * metrics not defined on every workload, the tail percentile used, and
 * any mismatch. A traced run also writes a Chrome trace-event file and
 * a per-layer self-time table to --out-dir. Exits 1 when an output
 * differs from its reference, 2 on a usage or run error.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "support/json.h"
#include "workloads.h"

using namespace perfbench;
using calyx::json::Value;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> --cache-dir <dir> "
                 "--out-dir <dir> [--host key=value]...\n",
                 why.c_str());
    std::exit(2);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Steal time of all CPUs so far (Linux /proc/stat), 0 elsewhere. */
double
stolenSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t field[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0;
    for (uint64_t &f : field)
        in >> f;
    long hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? static_cast<double>(field[7]) / hz : 0;
}

Value
hostBlock(const RunConfig &cfg, unsigned threadsUsed,
          const std::vector<std::pair<std::string, std::string>> &extra)
{
    Value h = Value::object();
    h.set("nproc", Value::number(std::thread::hardware_concurrency()));
    h.set("compiler", Value::str(PERFBENCH_COMPILER));
    h.set("compiler_version", Value::str(__VERSION__));
    h.set("build_type", Value::str(PERFBENCH_BUILD_TYPE));
    h.set("cxx_flags", Value::str(PERFBENCH_CXX_FLAGS));
    for (const auto &[k, v] : extra)
        h.set(k, Value::str(v));
    Value threads = Value::object();
    threads.set(cfg.workload, Value::number(threadsUsed));
    h.set("threads", std::move(threads));
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string outDir, trace;
    std::vector<std::pair<std::string, std::string>> host;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            trace = v;
        else if (a == "--cache-dir")
            cfg.cacheDir = v;
        else if (a == "--out-dir")
            outDir = v;
        else if (a == "--host" && v.find('=') != std::string::npos)
            host.emplace_back(v.substr(0, v.find('=')),
                              v.substr(v.find('=') + 1));
        else
            usage("unknown argument " + a);
    }
    auto it = workloadTable().find(cfg.workload);
    if (it == workloadTable().end())
        usage("unknown workload '" + cfg.workload + "'");
    if (trace != "0" && trace != "1")
        usage("--trace must be 0 or 1");
    if (cfg.cacheDir.empty() || outDir.empty())
        usage("--cache-dir and --out-dir are required");
    if (!(cfg.seconds > 0))
        usage("--seconds must be positive");
    cfg.trace = trace == "1";
    cfg.stopAt = calyx::nowSeconds() + 11 * cfg.seconds;
    cfg.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    // The compiled engine's module cache: this run's own directory,
    // which cold runs empty.
    setenv("CALYX_CPPSIM_CACHE", cfg.cacheDir.c_str(), 1);
    unsetenv("CALYX_COMPILE_CACHE");
    std::filesystem::create_directories(outDir);

    Outcome out;
    double steal0 = stolenSeconds();
    try {
        it->second(cfg, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                     e.what());
        return 2;
    }

    std::string stem = outDir + "/" + cfg.workload + "-seed" +
                       std::to_string(cfg.seed) + "-trace" + trace;
    Value report = Value::object();
    report.set("workload", Value::str(cfg.workload));
    report.set("seed", Value::number(cfg.seed));
    Value hostInfo = hostBlock(cfg, out.threadsUsed, host);
    // CPU time the hypervisor gave to other guests while this run
    // wanted it: the main source of run-to-run noise on shared hosts.
    hostInfo.set("steal_s", Value::real(stolenSeconds() - steal0));
    report.set("host", std::move(hostInfo));
    Value extra = Value::object();
    for (const Metric &m : out.extra)
        extra.set(m.name, Value::real(m.value));
    report.set("extra_metrics", std::move(extra));
    report.set("truncated", Value::boolean(out.truncated));
    if (!cfg.trace) {
        Value tailInfo = Value::object();
        tailInfo.set("percentile", Value::real(out.tailPercentile));
        tailInfo.set("samples", Value::number(out.latencies.size()));
        report.set("latency_tail", std::move(tailInfo));
    }
    Value notes = Value::array();
    for (const std::string &n : out.notes)
        notes.push(Value::str(n));
    report.set("mismatches", std::move(notes));

    if (cfg.trace) {
        std::ofstream(stem + ".trace.json")
            << chromeTrace(out.tracer.spans()) << "\n";
        auto self = out.tracer.selfTimes();
        double total = 0;
        for (const auto &[name, s] : self)
            total += s;
        std::vector<std::pair<double, std::string>> rows;
        for (const auto &[name, s] : self)
            rows.emplace_back(s, name);
        std::sort(rows.rbegin(), rows.rend());
        std::string table = "layer                      self_s      share\n";
        for (const auto &[s, name] : rows) {
            char line[128];
            std::snprintf(line, sizeof line, "%-24s %10.4f %9.2f%%\n",
                          name.c_str(), s, total > 0 ? 100 * s / total : 0);
            table += line;
        }
        std::ofstream(stem + ".selftime.txt") << table;
        std::printf("%s", table.c_str());
        report.set("trace_file", Value::str(stem + ".trace.json"));
    }
    std::printf("%s\n", report.str().c_str());
    // The file also keeps every operation's latency, in order.
    Value lat = Value::array();
    for (double l : out.latencies)
        lat.push(Value::real(l * 1e3));
    report.set("latencies_ms", std::move(lat));
    std::ofstream(stem + ".report.json") << report.str() << "\n";

    std::string line = "{\"correct\": ";
    line += out.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
}

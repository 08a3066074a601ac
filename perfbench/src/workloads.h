#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/time.h"
#include "trace.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 1;   ///< min(4, nproc); each workload records its own.
    std::string cacheDir;   ///< $CALYX_CPPSIM_CACHE, emptied for cold runs.
    /**
     * Steady-clock time after which loops start no new operation past
     * their minimum. A starved host can slow the spin-waiting
     * multi-threaded runs tenfold; this keeps such a run inside the
     * time limit, and the report says it was cut short.
     */
    double stopAt = 0;

    bool late() const { return calyx::nowSeconds() > stopAt; }
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    /** End-to-end metrics (untraced) or per-layer metrics (traced), in
     * the order BENCHMARK.json lists them. */
    std::vector<Metric> metrics;
    /** Metrics only the report block carries (not defined on every
     * workload, or exact by construction). */
    std::vector<Metric> extra;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    unsigned threadsUsed = 1;
    bool truncated = false; ///< Some loop stopped at RunConfig::stopAt.
    double tailPercentile = 0;
    std::vector<double> latencies; ///< Seconds, in operation order.
    std::vector<std::string> notes; ///< Mismatch descriptions.
    Tracer tracer;                  ///< Spans of the traced run.
};

using WorkloadFn = void (*)(const RunConfig &, Outcome &);

/** Name -> entry point for the four workloads. */
const std::map<std::string, WorkloadFn> &workloadTable();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Median of `xs` (mean of the two middle values for even sizes);
 * 0 for an empty vector. */
double median(std::vector<double> xs);

/**
 * Operations per second of a closed-loop sequence of per-operation
 * latencies, as the median over consecutive blocks of `block`
 * operations of each block's rate (a trailing partial block is
 * dropped). A block is one period of the workload's operation mix, so
 * every block does the same kind of work and one slow stretch of the
 * host moves one block, not the result. Fewer than `block` samples
 * give the plain rate.
 */
double blockRate(const std::vector<double> &latencies, size_t block);

/** Geometric mean of strictly positive values; 0 when `xs` is empty
 * or holds a non-positive value. */
double geomean(const std::vector<double> &xs);

/**
 * The tail of a latency sample: the highest percentile that still has
 * at least `minBeyond` samples strictly above it in sorted order. With
 * n samples that is the order statistic at 0-based index
 * n - 1 - minBeyond, reported as percentile 100 * (n - minBeyond) / n.
 * Fewer than minBeyond + 1 samples have no such percentile; the
 * maximum is reported then, with `beyond` = 0 so the shortfall shows.
 */
struct Tail
{
    double value = 0;
    double percentile = 0; ///< In [0, 100].
    size_t beyond = 0;     ///< Samples above the reported one.
    size_t samples = 0;
};

Tail tail(std::vector<double> xs, size_t minBeyond = 10);

/** 128-bit content digest (two FNV-1a variants): the benchmark's own,
 * so reference comparisons never lean on the library's hashing. */
struct Digest
{
    uint64_t a = 0, b = 0;
    auto operator<=>(const Digest &) const = default;
};
Digest digest(const std::string &bytes);

/** splitmix64: the benchmark's only source of randomness, so a seed
 * maps to the same inputs on every platform and standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state(seed) {}

    uint64_t next();
    /** Uniform in [0, n); n must be > 0. */
    uint64_t below(uint64_t n);
    /** Uniform in [lo, hi]. */
    uint64_t range(uint64_t lo, uint64_t hi) { return lo + below(hi - lo + 1); }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H

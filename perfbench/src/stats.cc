#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double
blockRate(const std::vector<double> &latencies, size_t block)
{
    auto rate = [](auto begin, auto end) {
        double busy = 0;
        for (auto it = begin; it != end; ++it)
            busy += *it;
        return busy > 0 ? static_cast<double>(end - begin) / busy : 0.0;
    };
    if (block == 0 || latencies.size() < block)
        return rate(latencies.begin(), latencies.end());
    std::vector<double> rates;
    for (size_t at = 0; at + block <= latencies.size(); at += block)
        rates.push_back(rate(latencies.begin() + at,
                             latencies.begin() + at + block));
    return median(rates);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0;
    double logSum = 0;
    for (double x : xs) {
        if (!(x > 0))
            return 0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

Tail
tail(std::vector<double> xs, size_t minBeyond)
{
    Tail t;
    t.samples = xs.size();
    if (xs.empty())
        return t;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    if (n <= minBeyond) {
        t.value = xs.back();
        t.percentile = 100;
        return t;
    }
    size_t at = n - 1 - minBeyond;
    t.value = xs[at];
    t.beyond = minBeyond;
    t.percentile = 100.0 * static_cast<double>(n - minBeyond) /
                   static_cast<double>(n);
    return t;
}

Digest
digest(const std::string &bytes)
{
    Digest d{1469598103934665603ull, 0x84222325cbf29ce4ull};
    for (unsigned char c : bytes) {
        d.a = (d.a ^ c) * 1099511628211ull;
        d.b = (d.b ^ c) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
    }
    return d;
}

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
Rng::below(uint64_t n)
{
    // Rejection sampling keeps the draw unbiased for any n.
    uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

} // namespace perfbench

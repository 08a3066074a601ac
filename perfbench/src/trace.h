#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span: a call into a layer, timed from outside it. */
struct Span
{
    std::string name;
    double start = 0; ///< Seconds, steady clock.
    double end = 0;
    int parent = -1;      ///< Index into the span list, -1 for a root.
    uint64_t request = 0; ///< Operation the span belongs to.
};

/**
 * In-memory span recorder for the traced run. Spans nest strictly
 * (one thread records them: the benchmark's own calls into each
 * layer), so the open spans form a stack and each new span's parent
 * is the innermost open one. Nothing is written until the run ends.
 */
class Tracer
{
  public:
    /** RAII span; closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int id;
    };

    /** Request id stamped on spans opened from now on. */
    void setRequest(uint64_t id) { request = id; }

    const std::vector<Span> &spans() const { return list; }

    /** Total self time per span name. */
    std::map<std::string, double> selfTimes() const;

  private:
    int open(const char *name);
    void close(int id);

    std::vector<Span> list;
    std::vector<int> stack;
    uint64_t request = 0;
};

/**
 * Self time per span: its duration minus the part of its interval
 * that its direct children cover (the union of the children's
 * intervals clipped to the parent, so overlapping or out-of-range
 * children are never subtracted twice).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Chrome trace-event JSON (complete "X" events, microseconds), which
 * Perfetto and chrome://tracing open. */
std::string chromeTrace(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "support/json.h"
#include "support/time.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer &t, const char *name)
    : tracer(t), id(t.open(name))
{
}

Tracer::Scope::~Scope() { tracer.close(id); }

int
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.request = request;
    s.start = calyx::nowSeconds();
    list.push_back(std::move(s));
    int id = static_cast<int>(list.size() - 1);
    stack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    list[id].end = calyx::nowSeconds();
    // Scopes are lexical, so the closing span is the innermost one.
    stack.pop_back();
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::vector<double> self = perfbench::selfTimes(list);
    std::map<std::string, double> byName;
    for (size_t i = 0; i < list.size(); ++i)
        byName[list[i].name] += self[i];
    return byName;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        double lo = spans[i].start, hi = spans[i].end;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curLo = 0, curHi = 0;
        bool have = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (have && a <= curHi) {
                curHi = std::max(curHi, b);
                continue;
            }
            if (have)
                covered += curHi - curLo;
            curLo = a;
            curHi = b;
            have = true;
        }
        if (have)
            covered += curHi - curLo;
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

std::string
chromeTrace(const std::vector<Span> &spans)
{
    using calyx::json::Value;
    double origin = spans.empty() ? 0 : spans.front().start;
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    Value events = Value::array();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Value e = Value::object();
        e.set("name", Value::str(s.name));
        e.set("cat", Value::str(s.name.substr(0, s.name.find('.'))));
        e.set("ph", Value::str("X"));
        e.set("ts", Value::real((s.start - origin) * 1e6));
        e.set("dur", Value::real((s.end - s.start) * 1e6));
        e.set("pid", Value::number(1));
        e.set("tid", Value::number(1));
        Value args = Value::object();
        args.set("span", Value::number(i));
        args.set("parent", Value::real(s.parent));
        args.set("request", Value::number(s.request));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Value::str("ms"));
    return doc.str();
}

} // namespace perfbench

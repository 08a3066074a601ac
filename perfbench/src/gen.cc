#include "gen.h"

#include <cstdlib>
#include <map>
#include <set>
#include <tuple>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "ir/printer.h"
#include "stats.h"
#include "support/error.h"
#include "support/json.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace perfbench {

using namespace calyx;

std::string
kernelCalyx(const std::string &name, bool unrolled)
{
    const workloads::Kernel &k = workloads::kernel(name);
    dahlia::Program p = dahlia::parse(unrolled ? k.unrolledSource : k.source);
    return Printer::toString(dahlia::compileDahlia(p));
}

std::string
systolicCalyx(int rows, int cols, int inner)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.inner = inner;
    systolic::generate(ctx, cfg);
    return Printer::toString(ctx);
}

MemState
randomInputs(const dahlia::Program &program, uint64_t seed)
{
    Rng rng(seed);
    MemState mems;
    for (const auto &d : program.decls) {
        std::vector<uint64_t> data(d.type.totalSize());
        for (uint64_t &v : data)
            v = rng.range(1, 13);
        mems[d.name] = std::move(data);
    }
    return mems;
}

SystolicInputs
randomSystolic(int rows, int cols, int inner, uint64_t seed)
{
    Rng rng(seed);
    SystolicInputs in;
    in.rows = rows;
    in.cols = cols;
    in.inner = inner;
    in.a.resize(static_cast<size_t>(rows) * inner);
    in.b.resize(static_cast<size_t>(inner) * cols);
    for (uint64_t &v : in.a)
        v = rng.range(0, 255);
    for (uint64_t &v : in.b)
        v = rng.range(0, 255);
    return in;
}

std::vector<uint64_t>
matmul(const SystolicInputs &in)
{
    std::vector<uint64_t> out(static_cast<size_t>(in.rows) * in.cols);
    for (int i = 0; i < in.rows; ++i) {
        for (int j = 0; j < in.cols; ++j) {
            uint32_t acc = 0;
            for (int k = 0; k < in.inner; ++k)
                acc += static_cast<uint32_t>(in.a[i * in.inner + k] *
                                             in.b[k * in.cols + j]);
            out[i * in.cols + j] = acc;
        }
    }
    return out;
}

const char *
kindName(CompileOp::Kind kind)
{
    switch (kind) {
      case CompileOp::FirstSeen:
        return "first_seen";
      case CompileOp::Repeat:
        return "repeat";
      case CompileOp::Reformat:
        return "reformat";
      case CompileOp::Edit:
        return "edit";
    }
    return "?";
}

namespace {

/** Insert a dead 1-bit register into the cells of the `which`-th
 * component of `src`. Dead-cell removal deletes it again, so the edit
 * changes that component's cache key without changing the design. */
std::string
addDeadRegister(const std::string &src, uint64_t which, uint64_t serial)
{
    std::vector<size_t> cellBlocks;
    for (size_t at = src.find("cells {"); at != std::string::npos;
         at = src.find("cells {", at + 1))
        cellBlocks.push_back(at);
    if (cellBlocks.empty())
        fatal("perfbench: program has no cells block to edit");
    size_t at = cellBlocks[which % cellBlocks.size()] + 7;
    return src.substr(0, at) + "\n    bench_edit" + std::to_string(serial) +
           " = std_reg(1);" + src.substr(at);
}

/** Re-indent a seeded subset of lines; the parse is unchanged. */
std::string
reformat(const std::string &src, Rng &rng)
{
    std::string out;
    out.reserve(src.size() + src.size() / 8);
    bool lineStart = true;
    for (char c : src) {
        if (lineStart && rng.below(2))
            out += "  ";
        out += c;
        lineStart = c == '\n';
    }
    return out;
}

} // namespace

std::vector<CompileOp>
compileStream(uint64_t seed, size_t count)
{
    // Base corpus: every kernel and every unrolled variant.
    std::vector<std::string> kernels;
    for (const workloads::Kernel &k : workloads::kernels()) {
        kernels.push_back(kernelCalyx(k.name, false));
        if (!k.unrolledSource.empty())
            kernels.push_back(kernelCalyx(k.name, true));
    }

    Rng rng(seed);
    std::vector<CompileOp> ops;
    /// Indices of sent ops per family (0 kernel, 1 systolic): a
    /// repeat, reformat or edit inherits its target's family.
    std::vector<size_t> history[2];
    /// Family the next repeat / reformat / edit targets; each kind
    /// alternates, so every seed modifies both families equally often.
    int nextFamily[4] = {0, 0, 1, 0};
    std::set<Digest> sent;
    std::set<std::tuple<int, int, int>> shapes;
    uint64_t serial = 0;
    std::vector<CompileOp::Kind> deck;
    // First-seen programs alternate between a kernel and a systolic
    // array, each drawn from a seeded shuffle of its whole range, so
    // every seed sends the same mix of program sizes.
    std::vector<size_t> kernelDeck;
    std::vector<std::pair<int, int>> shapeDeck;
    bool systolicNext = rng.below(2);
    auto allShapes = [&] {
        std::vector<std::pair<int, int>> d;
        for (int r = 2; r <= 12; ++r) {
            for (int c = 2; c <= 12; ++c)
                d.emplace_back(r, c);
        }
        rng.shuffle(d);
        return d;
    };
    /// Processing elements (rows x cols) of each sent systolic op, by
    /// op index, and one shape deck per modification kind: a systolic
    /// target is the sent program nearest in size to the next shape
    /// of its kind's deck, so target sizes are spread like the
    /// first-seen ones whatever the seed.
    std::map<size_t, int> peOf;
    std::vector<std::pair<int, int>> targetDeck[4];

    auto firstSeen = [&]() {
        systolicNext = !systolicNext;
        if (systolicNext) {
            if (shapeDeck.empty())
                shapeDeck = allShapes();
            auto [r, c] = shapeDeck.back();
            shapeDeck.pop_back();
            int k;
            do {
                k = static_cast<int>(rng.range(2, 12));
            } while (shapes.count({r, c, k}));
            shapes.insert({r, c, k});
            peOf[ops.size()] = r * c;
            return systolicCalyx(r, c, k);
        }
        if (kernelDeck.empty()) {
            for (size_t i = 0; i < kernels.size(); ++i)
                kernelDeck.push_back(i);
            rng.shuffle(kernelDeck);
        }
        std::string src = kernels[kernelDeck.back()];
        kernelDeck.pop_back();
        if (sent.count(digest(src)))
            src = addDeadRegister(src, 0, serial++);
        return src;
    };

    while (ops.size() < count) {
        if (deck.empty()) {
            deck.assign(8, CompileOp::FirstSeen);
            deck.insert(deck.end(), 6, CompileOp::Repeat);
            deck.insert(deck.end(), 3, CompileOp::Reformat);
            deck.insert(deck.end(), 3, CompileOp::Edit);
            rng.shuffle(deck);
        }
        CompileOp op;
        op.kind = deck.back();
        deck.pop_back();
        int family = 0;
        size_t target = 0;
        if (op.kind != CompileOp::FirstSeen) {
            family = nextFamily[op.kind];
            nextFamily[op.kind] ^= 1;
            if (history[family].empty())
                family ^= 1;
            const auto &h = history[family];
            if (h.empty()) {
                op.kind = CompileOp::FirstSeen; // nothing sent yet
            } else if (family == 1) {
                auto &shapesLeft = targetDeck[op.kind];
                if (shapesLeft.empty())
                    shapesLeft = allShapes();
                int want = shapesLeft.back().first * shapesLeft.back().second;
                shapesLeft.pop_back();
                target = h.back();
                for (size_t i : h) {
                    if (std::abs(peOf[i] - want) < std::abs(peOf[target] - want))
                        target = i;
                }
            } else {
                target = h[rng.below(h.size())];
            }
        }
        // Read before ops grows: push_back may move the vector.
        const std::string *prev =
            op.kind == CompileOp::FirstSeen ? nullptr : &ops[target].source;
        switch (op.kind) {
          case CompileOp::FirstSeen:
            op.source = firstSeen();
            family = systolicNext;
            break;
          case CompileOp::Repeat:
            op.source = *prev;
            break;
          case CompileOp::Reformat:
            do {
                op.source = reformat(*prev, rng);
            } while (sent.count(digest(op.source)));
            break;
          case CompileOp::Edit:
            op.source = addDeadRegister(*prev, rng.next(), serial++);
            break;
        }
        if (op.kind != CompileOp::FirstSeen && family == 1)
            peOf[ops.size()] = peOf[target];
        op.systolic = family == 1;
        sent.insert(digest(op.source));
        history[family].push_back(ops.size());
        ops.push_back(std::move(op));
    }
    return ops;
}

std::string
compilePayload(const std::string &source)
{
    std::string p = "{\"type\": \"compile\", \"pipeline\": \"all\", "
                    "\"backend\": \"verilog\", \"source\": ";
    p += json::Value::str(source).str();
    p += "}";
    return p;
}

std::string
runPayload(const dahlia::Program &program, const std::vector<MemState> &inputs)
{
    std::string p = "{\"type\": \"run\", \"batch\": [";
    for (size_t i = 0; i < inputs.size(); ++i) {
        sim::Stimulus s = workloads::makeStimulus(program, inputs[i]);
        p += i ? ", {\"mems\": {" : "{\"mems\": {";
        for (size_t m = 0; m < s.mems.size(); ++m) {
            p += m ? ", \"" : "\"";
            p += s.mems[m].first + "\": [";
            const auto &words = s.mems[m].second;
            for (size_t w = 0; w < words.size(); ++w) {
                if (w)
                    p += ",";
                p += std::to_string(words[w]);
            }
            p += "]";
        }
        p += "}}";
    }
    p += "]}";
    return p;
}

std::vector<RunOp>
stimulusStream(const dahlia::Program &program, uint64_t seed, size_t count)
{
    Rng rng(seed);
    std::vector<RunOp> ops;
    std::vector<uint32_t> deck;
    while (ops.size() < count) {
        if (deck.empty()) {
            deck = {1, 1, 16, 16, 256, 256};
            rng.shuffle(deck);
        }
        RunOp op;
        uint32_t batch = deck.back();
        deck.pop_back();
        for (uint32_t i = 0; i < batch; ++i)
            op.inputs.push_back(randomInputs(program, rng.next()));
        op.payload = runPayload(program, op.inputs);
        ops.push_back(std::move(op));
    }
    return ops;
}

} // namespace perfbench

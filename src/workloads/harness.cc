#include "workloads/harness.h"

#include <chrono>

#include "emit/backend.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/interp.h"
#include "sim/cycle_sim.h"
#include "support/error.h"
#include "workloads/polybench.h"

namespace calyx::workloads {

namespace {

uint64_t
log2u(uint64_t v)
{
    uint64_t l = 0;
    while ((uint64_t(1) << l) < v)
        ++l;
    return l;
}

/** Banked layout of one original memory. */
struct Layout
{
    dahlia::Type type;
    uint64_t banks = 1;
    size_t bankedDim = 0;

    std::string
    cellName(const std::string &base, uint64_t bank) const
    {
        if (banks == 1)
            return base;
        return base + "_b" + std::to_string(bank);
    }

    /** (bank, in-bank flat index) of a row-major element. */
    std::pair<uint64_t, uint64_t>
    place(uint64_t flat) const
    {
        if (banks == 1)
            return {0, flat};
        uint64_t lg = log2u(banks);
        if (type.dims.size() == 1) {
            return {flat % banks, flat >> lg};
        }
        uint64_t r = flat / type.dims[1];
        uint64_t c = flat % type.dims[1];
        if (bankedDim == 0)
            return {r % banks, (r >> lg) * type.dims[1] + c};
        return {c % banks, r * (type.dims[1] >> lg) + (c >> lg)};
    }
};

Layout
layoutOf(const dahlia::Decl &d)
{
    Layout l;
    l.type = d.type;
    for (size_t i = 0; i < d.type.banks.size(); ++i) {
        if (d.type.banks[i] > 1) {
            l.banks = d.type.banks[i];
            l.bankedDim = i;
        }
    }
    return l;
}

} // namespace

MemState
makeInputs(const std::string &kernel_name, const dahlia::Program &program)
{
    MemState mems;
    for (const auto &d : program.decls)
        mems[d.name] = inputData(kernel_name, d.name, d.type.totalSize());
    return mems;
}

void
pokeInputs(sim::SimProgram &sim, const dahlia::Program &program,
           const MemState &inputs)
{
    for (const auto &d : program.decls) {
        Layout layout = layoutOf(d);
        const auto &data = inputs.at(d.name);
        for (uint64_t flat = 0; flat < data.size(); ++flat) {
            auto [bank, pos] = layout.place(flat);
            auto *mem =
                sim.findModel(layout.cellName(d.name, bank))->memory();
            if (!mem)
                fatal("harness: cell is not a memory: ", d.name);
            (*mem)[pos] = truncate(data[flat], d.type.width);
        }
    }
}

sim::Stimulus
makeStimulus(const dahlia::Program &program, const MemState &inputs)
{
    sim::Stimulus s;
    for (const auto &d : program.decls) {
        Layout layout = layoutOf(d);
        const auto &data = inputs.at(d.name);
        std::vector<std::vector<uint64_t>> banks(
            layout.banks, std::vector<uint64_t>(data.size() / layout.banks));
        for (uint64_t flat = 0; flat < data.size(); ++flat) {
            auto [bank, pos] = layout.place(flat);
            banks[bank][pos] = truncate(data[flat], d.type.width);
        }
        for (uint64_t b = 0; b < layout.banks; ++b)
            s.mems.emplace_back(layout.cellName(d.name, b),
                                std::move(banks[b]));
    }
    return s;
}

MemState
readMemories(const sim::SimProgram &sim, const dahlia::Program &program)
{
    MemState state;
    for (const auto &d : program.decls) {
        Layout layout = layoutOf(d);
        std::vector<uint64_t> data(d.type.totalSize());
        for (uint64_t flat = 0; flat < data.size(); ++flat) {
            auto [bank, pos] = layout.place(flat);
            auto *mem =
                sim.findModel(layout.cellName(d.name, bank))->memory();
            data[flat] = (*mem)[pos];
        }
        state[d.name] = std::move(data);
    }
    return state;
}

MemState
runOnInterp(const dahlia::Program &program, const MemState &inputs)
{
    dahlia::AstInterp interp(program);
    for (const auto &[name, data] : inputs)
        interp.pokeMemory(name, data);
    interp.run();
    MemState out;
    for (const auto &d : program.decls)
        out[d.name] = interp.memory(d.name);
    return out;
}

HardwareResult
runOnHardware(const dahlia::Program &program,
              const passes::PipelineSpec &spec, const MemState &inputs,
              MemState *final_state, const passes::RunOptions &run_options,
              sim::Engine engine,
              const std::vector<obs::SimObserver *> &observers)
{
    using clock = std::chrono::steady_clock;
    auto start = clock::now();

    Context ctx = dahlia::compileDahlia(program);

    HardwareResult result;
    result.stats = passes::gatherStats(ctx);

    passes::runPipeline(ctx, spec, run_options);
    result.compileSeconds =
        std::chrono::duration<double>(clock::now() - start).count();

    estimate::AreaEstimator estimator(ctx);
    result.area = estimator.estimateProgram();

    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp, engine);
    for (obs::SimObserver *o : observers)
        cs.state().addObserver(o);

    pokeInputs(sp, program, inputs);

    auto sim_start = clock::now();
    result.cycles = cs.run();
    result.simSeconds =
        std::chrono::duration<double>(clock::now() - sim_start).count();

    if (final_state)
        *final_state = readMemories(sp, program);
    return result;
}

HardwareResult
runOnHardware(const dahlia::Program &program, const std::string &spec,
              const MemState &inputs, MemState *final_state)
{
    return runOnHardware(program, passes::parsePipelineSpec(spec), inputs,
                         final_state);
}

std::string
emitDesign(const dahlia::Program &program, const passes::PipelineSpec &spec,
           const std::string &backend)
{
    auto emitter = emit::BackendRegistry::instance().create(backend);
    Context ctx = dahlia::compileDahlia(program);
    passes::runPipeline(ctx, spec);
    return emitter->emitString(ctx);
}

std::string
emitDesign(const dahlia::Program &program, const std::string &spec,
           const std::string &backend)
{
    return emitDesign(program, passes::parsePipelineSpec(spec), backend);
}

} // namespace calyx::workloads

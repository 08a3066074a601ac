#include "sim/interp.h"

#include "support/error.h"

namespace calyx::sim {

/** Runtime state for one control node. */
struct Interp::ExecNode
{
    static constexpr uint32_t noGroup = 0xFFFFFFFF;

    const Control *ctrl = nullptr;
    const SimProgram::Instance *inst = nullptr;

    enum class Phase { Run, Cond, Body };
    Phase phase = Phase::Run;

    // Per-cycle hot-path data, resolved once when the node is entered so
    // collect()/advance() never touch string-keyed maps.
    uint32_t groupId = noGroup;     ///< Enable: dense group id.
    uint32_t condGroupId = noGroup; ///< If/While: cond group id.
    uint32_t condPort = 0;          ///< If/While: condition port id.

    size_t idx = 0;      // seq: current child index
    bool finished = false;
    std::vector<std::unique_ptr<ExecNode>> children;
};

/** Runtime state for a sub-component instance with a control program. */
struct Interp::InstanceExec
{
    const SimProgram::Instance *inst = nullptr;

    enum class State { Idle, Running, DonePulse };
    State state = State::Idle;
    std::unique_ptr<ExecNode> root;
};

Interp::Interp(const SimProgram &prog, Engine engine)
    : prog(&prog), stateVal(prog, engine)
{
    if (engine == Engine::Compiled) {
        // The interpreter activates per-group assignment sets and
        // forces group holes cycle by cycle; the generated module
        // hard-codes the full continuous set. Only lowered programs
        // (cycle_sim.h) can run compiled.
        fatal("the control interpreter cannot use the compiled engine; "
              "lower the program first or pick jacobi/levelized");
    }
    for (const auto &sub : prog.root().subs)
        gatherInstances(*sub);
}

Interp::~Interp() = default;

void
Interp::gatherInstances(const SimProgram::Instance &inst)
{
    if (inst.comp->control().kind() != Control::Kind::Empty) {
        auto ie = std::make_unique<InstanceExec>();
        ie->inst = &inst;
        instances.push_back(std::move(ie));
    }
    for (const auto &sub : inst.subs)
        gatherInstances(*sub);
}

std::unique_ptr<Interp::ExecNode>
Interp::begin(const Control &ctrl, const SimProgram::Instance &inst)
{
    auto node = std::make_unique<ExecNode>();
    node->ctrl = &ctrl;
    node->inst = &inst;
    switch (ctrl.kind()) {
      case Control::Kind::Empty:
        node->finished = true;
        break;
      case Control::Kind::Enable:
        node->groupId = inst.groupId(cast<Enable>(ctrl).group());
        break;
      case Control::Kind::Seq: {
        const auto &stmts = cast<Seq>(ctrl).stmts();
        node->idx = 0;
        // Enter the first non-trivial child.
        while (node->idx < stmts.size()) {
            auto child = begin(*stmts[node->idx], inst);
            if (!child->finished) {
                node->children.clear();
                node->children.push_back(std::move(child));
                break;
            }
            ++node->idx;
        }
        if (node->idx >= stmts.size())
            node->finished = true;
        break;
      }
      case Control::Kind::Par: {
        bool all_done = true;
        for (const auto &stmt : cast<Par>(ctrl).stmts()) {
            auto child = begin(*stmt, inst);
            all_done = all_done && child->finished;
            node->children.push_back(std::move(child));
        }
        node->finished = all_done;
        break;
      }
      case Control::Kind::If:
      case Control::Kind::While: {
        node->phase = ExecNode::Phase::Cond;
        const std::string &cg =
            ctrl.kind() == Control::Kind::If
                ? cast<If>(ctrl).condGroup()
                : cast<While>(ctrl).condGroup();
        if (!cg.empty())
            node->condGroupId = inst.groupId(cg);
        const PortRef &cp = ctrl.kind() == Control::Kind::If
                                ? cast<If>(ctrl).condPort()
                                : cast<While>(ctrl).condPort();
        node->condPort = condPortId(cp, inst);
        break;
      }
    }
    return node;
}

void
Interp::collect(ExecNode &node)
{
    if (node.finished)
        return;
    switch (node.ctrl->kind()) {
      case Control::Kind::Empty:
        return;
      case Control::Kind::Enable:
        stateVal.activate(node.inst->groupAssigns[node.groupId]);
        stateVal.force(node.inst->groupHoles[node.groupId].first, 1);
        return;
      case Control::Kind::Seq:
        if (!node.children.empty())
            collect(*node.children[0]);
        return;
      case Control::Kind::Par:
        for (auto &c : node.children) {
            if (!c->finished)
                collect(*c);
        }
        return;
      case Control::Kind::If:
      case Control::Kind::While: {
        if (node.phase == ExecNode::Phase::Cond) {
            if (node.condGroupId != ExecNode::noGroup) {
                stateVal.activate(
                    node.inst->groupAssigns[node.condGroupId]);
                stateVal.force(
                    node.inst->groupHoles[node.condGroupId].first, 1);
            }
        } else if (!node.children.empty()) {
            collect(*node.children[0]);
        }
        return;
      }
    }
}

bool
Interp::advance(ExecNode &node)
{
    if (node.finished)
        return true;
    switch (node.ctrl->kind()) {
      case Control::Kind::Empty:
        node.finished = true;
        return true;
      case Control::Kind::Enable: {
        uint32_t done = node.inst->groupHoles[node.groupId].second;
        if (stateVal.value(done) & 1)
            node.finished = true;
        return node.finished;
      }
      case Control::Kind::Seq: {
        const auto &stmts = cast<Seq>(*node.ctrl).stmts();
        if (!node.children.empty() && advance(*node.children[0])) {
            ++node.idx;
            node.children.clear();
            while (node.idx < stmts.size()) {
                auto child = begin(*stmts[node.idx], *node.inst);
                if (!child->finished) {
                    node.children.push_back(std::move(child));
                    break;
                }
                ++node.idx;
            }
            if (node.idx >= stmts.size())
                node.finished = true;
        }
        return node.finished;
      }
      case Control::Kind::Par: {
        bool all_done = true;
        for (auto &c : node.children) {
            if (!c->finished)
                advance(*c);
            all_done = all_done && c->finished;
        }
        node.finished = all_done;
        return node.finished;
      }
      case Control::Kind::If: {
        const auto &stmt = cast<If>(*node.ctrl);
        if (node.phase == ExecNode::Phase::Cond) {
            bool cond_done = true;
            if (node.condGroupId != ExecNode::noGroup) {
                uint32_t done =
                    node.inst->groupHoles[node.condGroupId].second;
                cond_done = stateVal.value(done) & 1;
            }
            if (cond_done) {
                uint64_t v = stateVal.value(node.condPort);
                const Control &branch =
                    (v & 1) ? stmt.trueBranch() : stmt.falseBranch();
                auto child = begin(branch, *node.inst);
                if (child->finished) {
                    node.finished = true;
                } else {
                    node.phase = ExecNode::Phase::Body;
                    node.children.clear();
                    node.children.push_back(std::move(child));
                }
            }
            return node.finished;
        }
        if (advance(*node.children[0]))
            node.finished = true;
        return node.finished;
      }
      case Control::Kind::While: {
        const auto &stmt = cast<While>(*node.ctrl);
        if (node.phase == ExecNode::Phase::Cond) {
            bool cond_done = true;
            if (node.condGroupId != ExecNode::noGroup) {
                uint32_t done =
                    node.inst->groupHoles[node.condGroupId].second;
                cond_done = stateVal.value(done) & 1;
            }
            if (cond_done) {
                uint64_t v = stateVal.value(node.condPort);
                if (v & 1) {
                    auto child = begin(stmt.body(), *node.inst);
                    if (child->finished) {
                        // Empty body: re-run the condition next cycle.
                        node.phase = ExecNode::Phase::Cond;
                    } else {
                        node.phase = ExecNode::Phase::Body;
                        node.children.clear();
                        node.children.push_back(std::move(child));
                    }
                } else {
                    node.finished = true;
                }
            }
            return node.finished;
        }
        if (advance(*node.children[0])) {
            node.phase = ExecNode::Phase::Cond;
            node.children.clear();
        }
        return node.finished;
      }
    }
    panic("bad control kind");
}

uint32_t
Interp::condPortId(const PortRef &ref, const SimProgram::Instance &inst)
{
    // Resolve through the same naming scheme SimProgram used.
    switch (ref.kind) {
      case PortRef::Kind::Cell:
        return prog->portId(inst.path + ref.parent + "." + ref.port);
      case PortRef::Kind::This: {
        std::string path =
            inst.path.empty()
                ? ref.port.str()
                : inst.path.substr(0, inst.path.size() - 1) + "." + ref.port;
        return prog->portId(path);
      }
      case PortRef::Kind::Hole:
        return prog->portId(inst.path + ref.parent + "[" + ref.port + "]");
      case PortRef::Kind::Const:
        fatal("interp: constant condition port");
    }
    panic("bad PortRef kind");
}

void
Interp::activateContinuousRec(const SimProgram::Instance &inst)
{
    stateVal.activate(inst.continuous);
    for (const auto &sub : inst.subs)
        activateContinuousRec(*sub);
}

uint64_t
Interp::run(uint64_t max_cycles)
{
    stateVal.reset();
    const SimProgram::Instance &top = prog->root();
    auto root = begin(top.comp->control(), top);
    SimState::CrewScope crew(stateVal);

    uint64_t cycles = 0;
    while (!root->finished) {
        if (++cycles > max_cycles)
            fatal("interp: exceeded ", max_cycles, " cycles");
        stateVal.beginCycle();
        stateVal.force(top.goPort, 1);
        activateContinuousRec(top);
        collect(*root);
        for (auto &ie : instances) {
            if (ie->state == InstanceExec::State::Running)
                collect(*ie->root);
            else if (ie->state == InstanceExec::State::DonePulse)
                stateVal.force(ie->inst->donePort, 1);
        }
        stateVal.comb();

        advance(*root);
        for (auto &ie : instances) {
            switch (ie->state) {
              case InstanceExec::State::Idle:
                if (stateVal.value(ie->inst->goPort) & 1) {
                    ie->root = begin(ie->inst->comp->control(), *ie->inst);
                    ie->state = ie->root->finished
                                    ? InstanceExec::State::DonePulse
                                    : InstanceExec::State::Running;
                }
                break;
              case InstanceExec::State::Running:
                if (advance(*ie->root))
                    ie->state = InstanceExec::State::DonePulse;
                break;
              case InstanceExec::State::DonePulse:
                ie->state = InstanceExec::State::Idle;
                break;
            }
        }
        stateVal.clock();
    }
    stateVal.finishObservers(cycles);
    return cycles;
}

} // namespace calyx::sim

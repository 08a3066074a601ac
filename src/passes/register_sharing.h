#ifndef CALYX_PASSES_REGISTER_SHARING_H
#define CALYX_PASSES_REGISTER_SHARING_H

#include <atomic>

#include "passes/pass_manager.h"

namespace calyx::passes {

/**
 * Register sharing via live-range analysis (paper §5.2). Stateful
 * registers cannot be shared with group-local reasoning, so this pass:
 *
 *  1. builds the parallel CFG of the control program (p-nodes for `par`),
 *  2. computes conservative per-group register read / must-write sets,
 *  3. runs a backward liveness dataflow (children of p-nodes analyzed
 *     with the p-node's live-out as their boundary),
 *  4. builds the interference graph from overlapping live ranges,
 *  5. greedily colors same-width registers and rewrites groups.
 *
 * Registers referenced by continuous assignments or condition ports, and
 * registers marked "external", are excluded.
 */
class RegisterSharing final : public Pass
{
  public:
    std::string name() const override { return "register-sharing"; }
    void runOnComponent(Component &comp, Context &ctx) override;

    /** Number of registers merged away in the last run. */
    int
    merged() const
    {
        return mergedCount.load(std::memory_order_relaxed);
    }

  private:
    /// Published once per runOnComponent from a local count: the pass
    /// object is shared by components the pass manager runs
    /// concurrently.
    std::atomic<int> mergedCount{0};
};

} // namespace calyx::passes

#endif // CALYX_PASSES_REGISTER_SHARING_H

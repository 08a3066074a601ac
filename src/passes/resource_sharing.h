#ifndef CALYX_PASSES_RESOURCE_SHARING_H
#define CALYX_PASSES_RESOURCE_SHARING_H

#include <atomic>

#include "passes/pass_manager.h"

namespace calyx::passes {

/**
 * Resource sharing (paper §5.1): cells marked "share" (combinational
 * functional units) used by groups that can never run in parallel are
 * merged onto one physical cell.
 *
 * Three steps, following the paper:
 *  1. Build the group conflict graph from the control program (edges
 *     between groups under different children of a `par`).
 *  2. Greedy coloring, per cell signature (type + parameters): cells
 *     conflict when two conflicting groups use them, when one group uses
 *     both, or when continuous assignments use them.
 *  3. Rewrite groups (and control condition ports) with the resulting
 *     cell renaming; DeadCellRemoval reclaims the merged-away cells.
 */
class ResourceSharing final : public Pass
{
  public:
    /**
     * @param min_width cost-model heuristic (paper §9 future work):
     *   sharing a W-bit functional unit saves ~W LUTs but each merged
     *   user adds a ~W/2-LUT input mux, so sharing narrow units is a
     *   net loss. Cells narrower than `min_width` are left alone.
     *   0 shares everything (the paper's evaluated behaviour).
     */
    explicit ResourceSharing(Width min_width = 0) : minWidth(min_width) {}

    std::string name() const override { return "resource-sharing"; }

    /** Supports `min-width=<N>` (pipeline-spec `[min-width=N]`). */
    void option(const std::string &key, const std::string &value) override;

    void runOnComponent(Component &comp, Context &ctx) override;

    /** Number of cells merged away in the last run (for reporting). */
    int
    merged() const
    {
        return mergedCount.load(std::memory_order_relaxed);
    }

  private:
    Width minWidth;
    /// Published once per runOnComponent from a local count: the pass
    /// object is shared by components the pass manager runs
    /// concurrently.
    std::atomic<int> mergedCount{0};
};

} // namespace calyx::passes

#endif // CALYX_PASSES_RESOURCE_SHARING_H

/**
 * @file
 * Parameter-grid sweep specification over SystemConfig axes.
 *
 * A SweepSpec names a base configuration plus per-axis value lists;
 * materialize() expands the cross product in a fixed, documented
 * order so sweep results can be indexed back to their grid cell
 * regardless of how (or whether) the points were run in parallel.
 */

#ifndef SBN_EXEC_SWEEP_HH
#define SBN_EXEC_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hh"

namespace sbn {

/**
 * Cross-product grid over the axes of SystemConfig the paper's
 * figures and tables sweep. An empty axis means "use the base value";
 * a non-empty axis overrides it with each listed value in turn.
 *
 * Expansion order (outermost to innermost loop): processors, modules,
 * memoryRatios, requestProbabilities, policies, buffering, then the
 * workload axes (hotFractions, favoriteFractions). The point at grid
 * coordinates (i_n, i_m, i_r, i_p, i_g, i_b, i_h, i_f) therefore
 * lands at a deterministic flat index, independent of execution
 * order.
 */
struct SweepSpec
{
    SystemConfig base;

    std::vector<int> processors;               //!< n axis
    std::vector<int> modules;                  //!< m axis
    std::vector<int> memoryRatios;             //!< r axis
    std::vector<double> requestProbabilities;  //!< p axis
    std::vector<ArbitrationPolicy> policies;   //!< g' / g'' axis
    std::vector<bool> buffering;               //!< Section-6 axis

    /**
     * Workload scenario axes (see docs/workloads.md). A non-empty
     * hotFractions axis forces workload.pattern = HotSpot at each
     * point and overrides workload.hotFraction with the listed value;
     * favoriteFractions does the same for the Favorite pattern. At
     * most one of the two may be non-empty (they select conflicting
     * patterns); an empty axis leaves base.workload untouched.
     */
    std::vector<double> hotFractions;      //!< HotSpot h axis
    std::vector<double> favoriteFractions; //!< Favorite f axis

    /** Number of grid points the spec expands to (>= 1). */
    std::size_t size() const;

    /**
     * Diagnose malformed grids before any point runs, returning false
     * with the first problem in @p error:
     *  - a repeated value inside one axis (the same grid point would
     *    run twice, and the duplicate flat indices would collide in
     *    sharded record files);
     *  - per-axis values outside the simulator's domain (processors /
     *    modules / ratio < 1, p outside [0, 1]);
     *  - an invalid base configuration (delegates to base.validate()).
     * An *empty* axis is not an error - it is the documented "use the
     * base value" convention. materialize() validates implicitly, so
     * every sweep/shard entry point rejects bad specs up front.
     */
    bool validate(std::string &error) const;

    /**
     * Expand the grid into concrete configurations, in the documented
     * nested-loop order (validate()s first; a rejection is fatal).
     * Every point inherits everything else (seed, cycle counts,
     * weights, ...) from @p base.
     */
    std::vector<SystemConfig> materialize() const;
};

} // namespace sbn

#endif // SBN_EXEC_SWEEP_HH

/**
 * @file
 * Statistical-equivalence tests between two simulation kernels.
 *
 * The FastStat kernel is deliberately not bit-compatible with the
 * exact CycleSkip kernel (core/faststat.hh), so its regression net
 * cannot be golden equality. Instead it is statistical: K independent
 * replications of each kernel at the same configuration estimate the
 * same population mean, and the two confidence intervals must
 * overlap. With fixed replication seeds the whole procedure is
 * deterministic - an equivalence test either always passes or always
 * fails for a given build, which is what makes it a ctest citizen.
 *
 * The layer also reports the Welch t-statistic (unequal variances,
 * Welch-Satterthwaite dof) as a graded measure: CI overlap is the
 * pass criterion, the t value is what a failure message prints so a
 * drift shows its magnitude, not just a boolean.
 */

#ifndef SBN_STATS_EQUIVALENCE_HH
#define SBN_STATS_EQUIVALENCE_HH

#include <string>
#include <vector>

#include "stats/accumulator.hh"

namespace sbn {

/** Mean / CI summary of one kernel's replication sample. */
struct CiSummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double variance = 0.0;
    double halfWidth = 0.0; //!< Student-t CI half-width at `level`
    double level = 0.95;

    double lo() const { return mean - halfWidth; }
    double hi() const { return mean + halfWidth; }
};

/** Summarize replication values at a confidence level. @pre size >= 2 */
CiSummary summarizeSamples(const std::vector<double> &values,
                           double level = 0.95);

/** One CI-overlap equivalence verdict between two samples. */
struct EquivalenceResult
{
    CiSummary a;
    CiSummary b;
    bool overlap = false;   //!< the pass/fail criterion
    double tStatistic = 0.0; //!< Welch t (magnitude of the drift)
    double dof = 0.0;        //!< Welch-Satterthwaite degrees of freedom

    /** "mean_a [lo, hi] vs mean_b [lo, hi], t=..." for messages. */
    std::string describe() const;
};

/**
 * CI-overlap test: summarize both samples at @p level and check
 * whether the intervals intersect. Two estimators of the same mean
 * overlap at 95%/95% with probability well above the individual
 * levels, so a non-overlap is strong evidence of a real difference.
 */
EquivalenceResult ciOverlapTest(const std::vector<double> &a,
                                const std::vector<double> &b,
                                double level = 0.95);

} // namespace sbn

#endif // SBN_STATS_EQUIVALENCE_HH

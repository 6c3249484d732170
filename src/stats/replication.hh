/**
 * @file
 * Independent-replications estimator.
 *
 * A seeded experiment runs once per replication with a seed derived
 * from a master stream; a Student-t confidence interval across the
 * replication results is the estimate. Replications remove
 * initialization-bias concerns at the cost of repeated warmups.
 */

#ifndef SBN_STATS_REPLICATION_HH
#define SBN_STATS_REPLICATION_HH

#include <cstdint>
#include <vector>

#include "stats/accumulator.hh"
#include "util/random.hh"

namespace sbn {

/** Confidence interval summary produced by estimators. */
struct Estimate
{
    double mean = 0.0;      //!< point estimate
    double halfWidth = 0.0; //!< CI half width at the requested level
    std::uint64_t samples = 0;

    double lower() const { return mean - halfWidth; }
    double upper() const { return mean + halfWidth; }

    /** True if |other - mean| <= halfWidth + slack. */
    bool covers(double value, double slack = 0.0) const;
};

/**
 * The one replication rule: seeds in order from the master stream,
 * values folded in replication order, a half-width only from two or
 * more replications.
 *
 * A fixed-count run is one extension to its count; an adaptive run
 * grows in rounds, each extending the same experiment with a few more
 * replications and re-evaluating the interval over *all* replications
 * so far, never discarding earlier work. This class owns the
 * bookkeeping:
 *
 *  - the seed stream: seedsForExtension(k) hands out the seeds for
 *    replications [completed, k) from the master derivation stream,
 *    so replication i receives the *same* seed whether the run grows
 *    in rounds or derives all k seeds in one shot;
 *  - the accumulator: accept() folds the extension's results in, in
 *    replication order, so the running estimate after k replications
 *    is bit-identical to a one-shot k-replication run.
 *
 * The caller supplies the execution: derive seeds, map them to values
 * (serially or on a pool - order of evaluation does not matter, only
 * the order of the values handed back), then accept().
 */
class ReplicationRounds
{
  public:
    /** @param level confidence level for estimate(). */
    explicit ReplicationRounds(std::uint64_t master_seed,
                               double level = 0.95);

    /** Replications accumulated so far. */
    unsigned completed() const
    {
        return static_cast<unsigned>(acc_.count());
    }

    /**
     * Seeds for extending the run to @p target replications: the
     * derivation-stream seeds for replications [completed, target),
     * in replication order (empty when target <= completed). Every
     * call must be followed by the matching accept() before the next
     * extension.
     */
    std::vector<std::uint64_t> seedsForExtension(unsigned target);

    /**
     * Fold in the results for the last handed-out extension, in the
     * same order as the seeds. @p values must have exactly one entry
     * per outstanding seed.
     */
    void accept(const std::vector<double> &values);

    /**
     * Estimate over every replication accepted so far. A single
     * replication carries its result as the mean with halfWidth 0 (no
     * confidence interval - use >= 2 replications for one); samples
     * is the replication count.
     */
    Estimate estimate() const;

  private:
    RandomGenerator seeder_;
    Accumulator acc_;
    unsigned derived_ = 0; //!< seeds handed out so far
    double level_;
};

} // namespace sbn

#endif // SBN_STATS_REPLICATION_HH

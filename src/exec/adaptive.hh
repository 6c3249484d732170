/**
 * @file
 * Adaptive-precision replication on top of the execution layer.
 *
 * An AdaptiveReplicator grows the replication count of a seeded
 * experiment in deterministic rounds until the Student-t confidence
 * half-width meets a relative/absolute precision target or a
 * replication cap is reached. The multi-point form (runPoints) runs
 * one adaptive estimate per point, fans every round's extra
 * replications out on its runner, and surfaces finished points
 * through an ordered streaming callback in list order.
 *
 * Determinism contract (same as the rest of src/exec/, see
 * docs/performance.md): for a fixed RoundSchedule the estimates are
 * bit-identical to serial execution at any thread count. Seeds come
 * from the per-point master derivation stream regardless of round
 * boundaries (ReplicationRounds), values are collected by slot, and
 * every accumulation and convergence decision runs on the calling
 * thread in grid order at round barriers.
 */

#ifndef SBN_EXEC_ADAPTIVE_HH
#define SBN_EXEC_ADAPTIVE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hh"
#include "exec/parallel_runner.hh"
#include "stats/replication.hh"

namespace sbn {

/**
 * Confidence-interval precision target. A criterion with value 0 is
 * disabled; the target is met when *any* enabled criterion holds (and
 * at least two replications have run, so a half-width exists). With
 * both criteria disabled the target is never met and an adaptive run
 * always proceeds to its replication cap.
 */
struct PrecisionTarget
{
    double relative = 0.05; //!< halfWidth <= relative * |mean|
    double absolute = 0.0;  //!< halfWidth <= absolute
    double level = 0.95;    //!< confidence level of the interval

    /** True once @p e satisfies an enabled criterion. */
    bool met(const Estimate &e) const;
};

/**
 * Fixed geometric round schedule: the cumulative replication count
 * after round j is initial * growth^j (each round at least one new
 * replication), clamped to cap. The schedule is a pure function of
 * its three parameters - never of observed results - which is what
 * keeps adaptive runs bit-reproducible: two runs that stop after the
 * same round have executed exactly the same replications.
 */
struct RoundSchedule
{
    unsigned initial = 4; //!< replications in the first round (>= 2)
    double growth = 2.0;  //!< cumulative growth factor per round (> 1)
    unsigned cap = 64;    //!< replication ceiling (>= initial)

    /** Cumulative replication target after 0-based round @p round. */
    unsigned targetAfterRound(unsigned round) const;
};

/** Result of one adaptive-precision estimate. */
struct AdaptiveEstimate
{
    Estimate estimate;      //!< over every replication actually run
    unsigned rounds = 0;    //!< rounds executed
    bool converged = false; //!< target met (false: cap reached first)
};

/**
 * Grows replication counts in rounds until a PrecisionTarget is met
 * or the RoundSchedule cap is reached, fanning each round's new
 * replications across a ParallelRunner.
 */
class AdaptiveReplicator
{
  public:
    explicit AdaptiveReplicator(ParallelRunner runner,
                                PrecisionTarget target = {},
                                RoundSchedule schedule = {});

    const PrecisionTarget &target() const { return target_; }
    const RoundSchedule &schedule() const { return schedule_; }

    /**
     * Ordered streaming callback for runPoints(): invoked once per
     * point, in list order, as soon as the point and all its
     * predecessors have finalized (converged or capped). Points
     * finalize at round barriers, so callbacks fire on the calling
     * thread between rounds.
     */
    using PointCallback = std::function<void(
        std::size_t, const SystemConfig &, const AdaptiveEstimate &)>;

    /**
     * One adaptive estimate per point of @p points. Each point's
     * replication seeds derive from that point's config.seed;
     * @p experiment receives the point configuration and the derived
     * per-replication seed. Every round fans the still-unconverged
     * points' new replications across the runner as one flat work
     * list, so late-converging points keep every thread busy. Result i
     * corresponds to points[i]. A one-point list is the single-
     * configuration form (replicateToPrecision()).
     *
     * Each point's final estimate equals a one-shot run of the count
     * it ended with (replicate()), bit for bit: its ReplicationRounds
     * derive seeds and fold values as one extension would. A point's
     * round schedule, seed stream and convergence decision depend
     * only on that point's own config, never on which other points
     * share the list - so any sub-list (a shard, a steal slice)
     * estimates each point bit-identically to the full grid, at any
     * thread count. The sharded-sweep merge layer relies on this.
     */
    std::vector<AdaptiveEstimate>
    runPoints(const std::vector<SystemConfig> &points,
              const std::function<double(const SystemConfig &,
                                         std::uint64_t)> &experiment,
              const PointCallback &onPoint = {}) const;

  private:
    ParallelRunner runner_;
    PrecisionTarget target_;
    RoundSchedule schedule_;
};

} // namespace sbn

#endif // SBN_EXEC_ADAPTIVE_HH

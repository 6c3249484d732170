/**
 * @file
 * Online statistics accumulator (Welford's algorithm).
 */

#ifndef SBN_STATS_ACCUMULATOR_HH
#define SBN_STATS_ACCUMULATOR_HH

#include <cstdint>
#include <limits>

#include "util/logging.hh"

namespace sbn {

/**
 * Numerically stable accumulator for count / mean / variance / extrema
 * of a stream of samples. Suitable both for per-run metrics and for
 * across-replication summaries.
 */
class Accumulator
{
  public:
    Accumulator() { reset(); }

    /** Forget all samples. */
    void reset();

    /** Add one sample. */
    void add(double sample);

    /**
     * @p a.add(@p a_sample) and @p b.add(@p b_sample), bit for bit,
     * with both mean updates in one packed division. Inline, so a
     * kernel's flattened loop that keeps two accumulators of equal
     * count (CycleSkip's wait and service moments) pays one division
     * per sample pair instead of two calls and two divisions. GCC's
     * generic vector type, not x86 intrinsics: each lane is the same
     * IEEE operation add() performs. @pre a.count() == b.count()
     */
    static void
    addPair(Accumulator &a, double a_sample, Accumulator &b,
            double b_sample)
    {
        typedef double Pair __attribute__((vector_size(16)));
        sbn_debug_assert(a.count_ == b.count_,
                         "addPair on accumulators of unequal count");
        // Signed: the same value for any count below 2^63, converted
        // in one instruction (an unsigned one needs a sign test).
        const auto count = static_cast<double>(
            static_cast<std::int64_t>(++a.count_));
        ++b.count_;
        const Pair sample = {a_sample, b_sample};
        Pair mean = {a.mean_, b.mean_};
        const Pair delta = sample - mean;
        mean += delta / Pair{count, count};
        const Pair m2 = Pair{a.m2_, b.m2_} + delta * (sample - mean);
        a.mean_ = mean[0];
        b.mean_ = mean[1];
        a.m2_ = m2[0];
        b.m2_ = m2[1];
        a.min_ = a_sample < a.min_ ? a_sample : a.min_;
        a.max_ = a.max_ < a_sample ? a_sample : a.max_;
        b.min_ = b_sample < b.min_ ? b_sample : b.min_;
        b.max_ = b.max_ < b_sample ? b_sample : b.max_;
    }

    /** Merge another accumulator (parallel Welford combine). */
    void merge(const Accumulator &other);

    /**
     * Build an accumulator from precomputed moments: @p m2 is the sum
     * of squared deviations from @p mean (n * population variance).
     * For callers that accumulate exact integer sums in a hot loop
     * (e.g. the FastStat kernel's tick-valued waits) and summarize
     * once at the end.
     */
    static Accumulator fromMoments(std::uint64_t count, double mean,
                                   double m2, double min, double max);

    /** Number of samples added. */
    std::uint64_t count() const { return count_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sum of samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Standard error of the mean: stddev / sqrt(count). */
    double stderror() const;

    /** Smallest sample seen; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample seen; -inf when empty. */
    double max() const { return max_; }

    /**
     * Half-width of the two-sided confidence interval on the mean at
     * the given level (0.90, 0.95 or 0.99), using the Student-t
     * quantile for count-1 degrees of freedom. Returns +inf with fewer
     * than two samples.
     */
    double confidenceHalfWidth(double level = 0.95) const;

  private:
    std::uint64_t count_;
    double mean_;
    double m2_;
    double min_;
    double max_;
};

/**
 * Two-sided Student-t quantile t_{(1+level)/2, dof} for the confidence
 * levels 0.90 / 0.95 / 0.99 (tabulated for small dof, normal
 * approximation above 120 dof).
 */
double studentTQuantile(std::uint64_t dof, double level);

} // namespace sbn

#endif // SBN_STATS_ACCUMULATOR_HH

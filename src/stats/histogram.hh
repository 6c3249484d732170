/**
 * @file
 * Fixed-bin histogram for latency/waiting-time distributions.
 */

#ifndef SBN_STATS_HISTOGRAM_HH
#define SBN_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sbn {

namespace detail {

/** Octave thresholds: at[k][i - 1] is the smallest integer t with
 *  t^6 >= 2^(6k + i), i.e. the first integer of bin 6k + i. */
struct OctaveThresholds
{
    std::uint32_t at[20][5];
};

constexpr unsigned __int128
sixthPower(std::uint64_t t)
{
    const unsigned __int128 x = t;
    return x * x * x * x * x * x;
}

constexpr OctaveThresholds
makeOctaveThresholds()
{
    OctaveThresholds table{};
    for (unsigned k = 0; k < 20; ++k) {
        for (unsigned i = 1; i <= 5; ++i) {
            const unsigned __int128 edge = static_cast<unsigned __int128>(1)
                                           << (6 * k + i);
            // Binary search over [2^k, 2^(k+1)]: the upper end's sixth
            // power, 2^(6k + 6), always reaches the edge.
            std::uint64_t lo = std::uint64_t{1} << k;
            std::uint64_t hi = std::uint64_t{1} << (k + 1);
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (sixthPower(mid) >= edge)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            table.at[k][i - 1] = static_cast<std::uint32_t>(lo);
        }
    }
    return table;
}

inline constexpr OctaveThresholds kOctaveThresholds = makeOctaveThresholds();

} // namespace detail

/**
 * Histogram of integer samples (bus-cycle counts) over [1, 2^20) with
 * six geometric bins per octave: bin i holds the integers s with
 * 2^i <= s^6 < 2^(i+1), so its edges are 2^(i/6) and 2^((i+1)/6). A
 * zero sample lands in underflow, one at or above 2^20 in overflow.
 * This is the one layout every latency producer uses, so any two
 * histograms merge without re-binning.
 *
 * Binning is exact integer arithmetic (one count-leading-zeros and
 * five compares against a compile-time table), with no libm call:
 * a sample on a bin edge, such as a power of two, always lands in
 * the bin it opens, on every platform.
 *
 * Bin counts, the sample count, the sum and the maximum are all
 * integers, so two histograms built from the same multiset of
 * samples are identical regardless of insertion order - which is
 * what makes renderFlatJson() byte-stable across thread counts and
 * shard/serial execution.
 */
class Histogram
{
  public:
    static constexpr unsigned kOctaves = 20;
    static constexpr unsigned kBinsPerOctave = 6;
    static constexpr std::size_t kBins = kOctaves * kBinsPerOctave;
    static constexpr std::uint64_t kHi = std::uint64_t{1} << kOctaves;

    /**
     * Names this binning rule (binOf and binLow) in the run
     * fingerprint of records that carry latency quantiles
     * (sweepRunFingerprint, shard/result_io.hh). Change it with the
     * rule, so resume and merge never mix quantiles binned under two
     * rules.
     */
    static constexpr std::uint64_t kBinningRule = 0x4c41542e45584136ull;

    Histogram() : bins_(kBins, 0) {}

    /** Record one sample. Inline: both kernels call it per completed
     *  request when collecting latency. */
    void
    add(std::uint64_t sample)
    {
        ++count_;
        sum_ += sample;
        max_ = sample > max_ ? sample : max_;
        if (sample - 1 < kHi - 1) // 1 <= sample < 2^20, one compare
            ++bins_[binOf(sample)];
        else if (sample == 0)
            ++underflow_;
        else
            ++overflow_;
    }

    /** Total samples including under/overflow. */
    std::uint64_t count() const { return count_; }

    /** Mean of all samples. */
    double mean() const;

    /** Count in bin i. */
    std::uint64_t binCount(std::size_t i) const { return bins_.at(i); }

    /** Inclusive lower edge of bin i, 2^(i/6); exact at every octave
     *  edge (i a multiple of 6). binLow(kBins) is 2^20. */
    static double binLow(std::size_t i);

    /** Largest sample seen (NaN before any sample). */
    double maxSample() const;

    /** Samples of 0 / at-or-above 2^20. */
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Smallest x such that at least quantile*count samples are < x
     * (resolved to bin granularity; underflow maps to 1, and a
     * quantile that falls in the overflow mass maps to 2^20). NaN
     * when the histogram is empty.
     */
    double quantile(double q) const;

    /** Fold @p other's samples into this histogram. */
    void merge(const Histogram &other);

    /** Multi-line ASCII rendering (one row per non-empty bin). */
    std::string render(std::size_t width = 50) const;

    /**
     * One-line flat JSON rendering (sbn.hist.v1) that
     * parseFlatJsonObject round-trips. Key order is fixed and doubles
     * use the canonical exact %.17g form, so two histograms holding
     * the same samples render byte-identically. Bin counts are a
     * sparse "index:count" list; empty bins are omitted.
     */
    std::string renderFlatJson() const;

    /** Drop all samples. */
    void reset();

  private:
    /** The bin of @p sample, which must lie in [1, 2^20). */
    static std::size_t
    binOf(std::uint64_t sample)
    {
        const unsigned octave =
            63u - static_cast<unsigned>(__builtin_clzll(sample));
        const std::uint32_t *t = detail::kOctaveThresholds.at[octave];
        return kBinsPerOctave * octave + (sample >= t[0]) +
               (sample >= t[1]) + (sample >= t[2]) + (sample >= t[3]) +
               (sample >= t[4]);
    }

    std::vector<std::uint64_t> bins_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace sbn

#endif // SBN_STATS_HISTOGRAM_HH

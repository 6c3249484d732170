/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * The generator is xoshiro256** (Blackman & Vigna), seeded through
 * SplitMix64 so that any 64-bit seed yields a well-mixed state. It is
 * small, fast, and fully reproducible across platforms, which the test
 * suite relies on (fixed seed => identical simulation trajectories).
 *
 * CounterRng is the second generator family: a counter-based
 * (Philox-style) stream whose i-th output is a pure function of
 * (key, stream, i). Streams with distinct stream indices are
 * statistically independent no matter how unevenly they are consumed,
 * which is what lets the FastStat kernel give every processor its own
 * stream without any cross-processor draw-order coupling.
 */

#ifndef SBN_UTIL_RANDOM_HH
#define SBN_UTIL_RANDOM_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace sbn {

/**
 * xoshiro256** pseudo-random generator with convenience draws used by
 * the simulators (uniform integers for arbitration, Bernoulli for the
 * re-request probability p, exponential for queueing-model
 * cross-checks). The per-draw members are inline so the CycleSkip
 * kernel's flattened driver loop inlines them.
 */
class RandomGenerator
{
  public:
    /** Construct from a 64-bit seed (any value, including 0). */
    explicit RandomGenerator(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed the generator, resetting its trajectory. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /**
     * Uniform integer in [0, bound).
     *
     * Uses Lemire's multiply-shift rejection method, so the result is
     * exactly uniform for any bound.
     *
     * @pre bound > 0
     */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        sbn_assert(bound > 0, "uniformInt bound must be positive");

        // Lemire's nearly-divisionless method with rejection.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (low < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1) with 53 random bits. */
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /** Exponential draw with the given mean. @pre mean > 0 */
    double exponential(double mean);

    /**
     * Geometric draw: number of failures before the first success of
     * a Bernoulli(p) sequence. Returns 0 for p >= 1.
     */
    std::uint64_t geometric(double p);

    /**
     * Pick an index uniformly from [0, size). Convenience alias for
     * uniformInt used by the random-arbitration policies.
     */
    std::size_t
    pickIndex(std::size_t size)
    {
        return static_cast<std::size_t>(uniformInt(size));
    }

    /** In-place Fisher-Yates shuffle of an index vector. */
    void shuffle(std::vector<std::size_t> &values);

    /**
     * Derive an independent child seed, e.g. one per replication.
     * Deterministic: the i-th call after construction/seed always
     * returns the same value.
     */
    std::uint64_t deriveSeed();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Counter-based pseudo-random stream (Philox-style construction: a
 * stateless avalanche of key + counter, here the SplitMix64 finalizer
 * over a Weyl sequence). The i-th output depends only on (key,
 * stream, i), so:
 *
 *  - two streams with different stream indices never share draws, no
 *    matter how many values either consumes;
 *  - a stream can be reconstructed at any point from (key, stream,
 *    counter) alone - no hidden state.
 *
 * The FastStat kernel seeds one stream per processor from the config
 * fingerprint, plus one for arbitration tie-breaks; the statistical-
 * equivalence suite relies on the independence, the golden pins on
 * the pure-function determinism.
 */
class CounterRng
{
  public:
    CounterRng() = default;

    /** Stream @p stream of the family keyed by @p key. */
    CounterRng(std::uint64_t key, std::uint64_t stream);

    /**
     * Next raw 64-bit output (advances the counter by one). Inline -
     * the FastStat kernel draws tens of millions of values per run
     * and the SplitMix64 finalizer is a handful of instructions.
     */
    std::uint64_t
    next()
    {
        std::uint64_t z = key_ + (counter_++) * 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound) (Lemire rejection). @pre bound > 0 */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        for (;;) {
            const std::uint64_t x = next();
            const auto m = static_cast<__uint128_t>(x) *
                           static_cast<__uint128_t>(bound);
            const auto low = static_cast<std::uint64_t>(m);
            if (low >= bound || low >= (0 - bound) % bound)
                return static_cast<std::uint64_t>(m >> 64);
        }
    }

    /** Uniform double in [0, 1) with 53 random bits. */
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /**
     * Geometric draw in O(1): number of failures before the first
     * success of a Bernoulli(p) sequence, via inversion
     * floor(log(U) / log1mp). @p log1mp must be std::log1p(-p); a
     * caller whose p is fixed computes it once instead of per draw.
     * Returns 0 for p >= 1; results are clamped to 2^62 so downstream
     * tick arithmetic cannot overflow. Inline so the saturated-regime
     * fast path (p >= 1: no draw at all) folds into the kernel's
     * per-completion code.
     * @pre p > 0 when p < 1
     */
    std::uint64_t
    geometric(double p, double log1mp)
    {
        if (p >= 1.0)
            return 0;
        return geometricSlow(log1mp);
    }

    /** Pick an index uniformly from [0, size). */
    std::size_t
    pickIndex(std::size_t size)
    {
        return static_cast<std::size_t>(
            uniformInt(static_cast<std::uint64_t>(size)));
    }

    /** Values drawn so far (the counter position). */
    std::uint64_t counter() const { return counter_; }

  private:
    /** The p < 1 inversion (one uniform draw). */
    std::uint64_t geometricSlow(double log1mp);

    std::uint64_t key_ = 0;
    std::uint64_t counter_ = 0;
};

} // namespace sbn

#endif // SBN_UTIL_RANDOM_HH

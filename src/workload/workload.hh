/**
 * @file
 * Workload models: which memory module a processor's next request
 * targets, and how eagerly each processor issues requests.
 *
 * The paper fixes two hypotheses: every request references a module
 * uniformly at random (hypothesis (e)) and every processor draws from
 * the same think distribution p (hypothesis (f)). This layer opens
 * both axes:
 *
 *  - **Reference pattern** - the per-request module-selection
 *    distribution. `Uniform` is the paper's hypothesis (e); `HotSpot`
 *    routes an extra fraction h of all traffic to one module;
 *    `Favorite` gives every processor a home module (index mod m)
 *    absorbing a fraction f of its requests; `Weighted` takes an
 *    arbitrary per-module weight vector.
 *  - **Think model** - per-processor request probabilities p_i.
 *    `Homogeneous` is hypothesis (f) (everyone uses
 *    SystemConfig::requestProbability); `TwoClass` splits the
 *    processors into a fast and a slow class; `PerProcessor` takes an
 *    explicit vector.
 *
 * RNG-compatibility contract (docs/workloads.md): a `Uniform` +
 * `Homogeneous` workload consumes the simulator's RNG stream in
 * exactly the pre-workload order - one `uniformInt(m)` per issued
 * request, one `bernoulli(p)` per processor-cycle draw - so every
 * golden Metrics pin predating this layer passes unchanged.
 * Non-uniform patterns sample through a Walker/Vose alias table
 * (`uniformInt(m)` + `uniformReal()` per draw, O(1) regardless of
 * skew).
 */

#ifndef SBN_WORKLOAD_WORKLOAD_HH
#define SBN_WORKLOAD_WORKLOAD_HH

#include <cstddef>
#include <string>
#include <vector>

#include "util/random.hh"

namespace sbn {

/** Module-selection distribution of processor requests. */
enum class ReferencePattern
{
    Uniform, //!< paper hypothesis (e): every module equally likely
    HotSpot, //!< fraction h of all traffic targets one hot module
    Favorite, //!< each processor sends fraction f to module i mod m
    Weighted, //!< arbitrary per-module weight vector
};

/** Per-processor request-probability (think) structure. */
enum class ThinkModel
{
    Homogeneous, //!< hypothesis (f): everyone uses the config's p
    TwoClass,    //!< first fastCount processors fast, rest slow
    PerProcessor, //!< explicit p_i vector
};

/** Canonical lowercase name of a reference pattern. */
const char *referencePatternName(ReferencePattern pattern);

/**
 * Workload description carried by SystemConfig. Plain data; validated
 * against the system shape by validate(n, m, error).
 *
 * HotSpot semantics: with probability hotFraction the request targets
 * hotModule, otherwise a uniformly random module (so the hot module's
 * total share is h + (1-h)/m and h = 0 degenerates to Uniform).
 * Favorite semantics are the per-processor analogue with home module
 * proc mod m and fraction favoriteFraction.
 */
struct WorkloadConfig
{
    ReferencePattern pattern = ReferencePattern::Uniform;

    double hotFraction = 0.0; //!< HotSpot h in [0, 1]
    int hotModule = 0;        //!< HotSpot target module

    double favoriteFraction = 0.0; //!< Favorite f in [0, 1]

    /** Weighted: relative weights > 0, size numModules. */
    std::vector<double> moduleWeights;

    ThinkModel think = ThinkModel::Homogeneous;

    // TwoClass: processors [0, fastCount) draw fastProbability, the
    // rest slowProbability.
    int fastCount = 0;
    double fastProbability = 1.0;
    double slowProbability = 1.0;

    /** PerProcessor: p_i in [0, 1], size numProcessors. */
    std::vector<double> thinkProbabilities;

    /** The paper's hypotheses exactly (the RNG-compatible fast path). */
    bool uniformReference() const
    {
        return pattern == ReferencePattern::Uniform;
    }
    bool homogeneousThink() const
    {
        return think == ThinkModel::Homogeneous;
    }

    /**
     * Whether every processor shares one module-selection
     * distribution (true for Uniform/HotSpot/Weighted, false for
     * Favorite) - the scope of the generalized occupancy-chain
     * analytic model (workload/analytic.hh).
     */
    bool processorIndependentReference() const
    {
        return pattern != ReferencePattern::Favorite;
    }

    /**
     * The module-selection probability vector of processor @p proc in
     * an m-module system (normalized, size m). Used by the alias
     * sampler and the analytic cross-check; Uniform/HotSpot/Weighted
     * ignore @p proc.
     */
    std::vector<double> moduleProbabilities(int proc, int m) const;

    /**
     * The think probability of processor @p proc given the config's
     * homogeneous @p base_p. Homogeneous returns base_p itself.
     */
    double thinkProbability(int proc, double base_p) const;

    /** False, with a message in @p error, if inconsistent with an
     *  n x m system. */
    bool validate(int n, int m, std::string &error) const;
};

/**
 * Canonical compact serialization, e.g. "uniform",
 * "hotspot:h=0.3,module=0", "favorite:f=0.5;think=two:fast=4@0.9,slow=0.1".
 * Deterministic (%.17g doubles): equal workloads serialize to equal
 * strings. Written into shard point records alongside the config
 * fingerprint so a record names the workload it was computed under.
 */
std::string formatWorkload(const WorkloadConfig &workload);

/**
 * Fold every result-determining workload field into a fingerprint
 * state (fingerprintMix-based; see core/fingerprint.hh). Used by
 * configFingerprint.
 */
std::uint64_t mixWorkloadFingerprint(std::uint64_t state,
                                     const WorkloadConfig &workload);

/**
 * Walker/Vose alias table: O(1) sampling from an arbitrary discrete
 * distribution. Construction is deterministic (stable index-ordered
 * worklists, pure arithmetic), so the same weights produce the same
 * table - and therefore the same RNG-to-sample mapping - on every
 * platform.
 */
class AliasTable
{
  public:
    AliasTable() = default;

    /** Build from relative weights (> 0, any positive sum). */
    explicit AliasTable(const std::vector<double> &weights);

    std::size_t size() const { return accept_.size(); }

    /**
     * Draw one index. Consumes exactly one uniformInt(size) and one
     * uniformReal() from @p rng regardless of the distribution. @p Rng
     * is any generator with those two draws (RandomGenerator for the
     * exact kernel, CounterRng for FastStat's per-processor streams).
     */
    template <typename Rng>
    std::size_t sample(Rng &rng) const
    {
        const std::size_t slot = rng.uniformInt(accept_.size());
        return rng.uniformReal() < accept_[slot]
                   ? slot
                   : static_cast<std::size_t>(alias_[slot]);
    }

  private:
    std::vector<double> accept_; //!< acceptance threshold per slot
    std::vector<std::uint32_t> alias_; //!< fallback index per slot
};

/**
 * Runtime form of a WorkloadConfig bound to a system shape: alias
 * tables built once, per-processor think probabilities flattened to a
 * vector. Owned by SingleBusSystem; both the target draw and the
 * think draw route through here.
 */
class WorkloadModel
{
  public:
    /** @param base_p SystemConfig::requestProbability (Homogeneous p) */
    WorkloadModel(const WorkloadConfig &workload, int n, int m,
                  double base_p);

    /** Module target of processor @p proc's next request. @p Rng as
     *  in AliasTable::sample. */
    template <typename Rng>
    int sampleTarget(int proc, Rng &rng) const
    {
        if (uniform_)
            return static_cast<int>(rng.uniformInt(numModules_));
        return static_cast<int>(
            tables_[tableOf_[static_cast<std::size_t>(proc)]].sample(
                rng));
    }

    /** Request probability of processor @p proc. */
    double thinkProbability(int proc) const
    {
        return thinkP_[static_cast<std::size_t>(proc)];
    }

  private:
    std::uint64_t numModules_ = 0;
    bool uniform_ = true;
    std::vector<std::uint32_t> tableOf_; //!< per processor
    std::vector<AliasTable> tables_;
    std::vector<double> thinkP_; //!< per processor
};

} // namespace sbn

#endif // SBN_WORKLOAD_WORKLOAD_HH

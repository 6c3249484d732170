/**
 * @file
 * Configuration of the multiplexed single-bus system simulator.
 */

#ifndef SBN_CORE_CONFIG_HH
#define SBN_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/tick.hh"
#include "workload/workload.hh"

namespace sbn {

/**
 * Bus-grant policy when both processor requests and memory responses
 * compete for the next bus cycle (paper hypothesis (g)).
 */
enum class ArbitrationPolicy
{
    ProcessorPriority, //!< g'  - processor requests win
    MemoryPriority,    //!< g'' - memory responses win
};

/**
 * Tie-break rule among candidates of the winning class. The paper
 * specifies Random (hypothesis (h)); OldestFirst is an extension used
 * by the arbitration ablation study.
 */
enum class SelectionRule
{
    Random,
    OldestFirst,
};

/**
 * Which simulation kernel executes the model.
 *
 * CycleSkip is the exact reference: it consumes one shared RNG stream
 * in the classic kernel's event order, which keeps every golden
 * Metrics pin valid but provably forbids per-processor think batching
 * (docs/performance.md). FastStat deliberately breaks that bit-compat
 * for throughput: per-processor counter-based RNG streams draw whole
 * geometric think intervals in O(1), memory completions ride a
 * fixed-stride calendar, and processor state is laid out SoA for the
 * arbitration scan. Same stochastic process in distribution,
 * different trajectories - validation is statistical (CI overlap vs
 * CycleSkip and the analytic chains, tests/test_faststat.cc), never
 * golden equality.
 */
enum class KernelKind
{
    CycleSkip, //!< exact shared-RNG kernel (default, golden-pinned)
    FastStat,  //!< statistical kernel: fast, not bit-compatible
};

/**
 * Full parameter set of one simulated system.
 *
 * Times are in bus cycles (the paper's unit t): memory access takes
 * memoryRatio cycles, a processor cycle is memoryRatio + 2 (one
 * request transfer, the access, one response transfer).
 */
struct SystemConfig
{
    int numProcessors = 8; //!< n
    int numModules = 8;    //!< m
    int memoryRatio = 8;   //!< r = memory cycle / bus cycle, >= 1

    /**
     * Probability p that a processor issues a new request immediately
     * after its previous service; with 1-p it spends one processor
     * cycle on internal processing and draws again (hypothesis (f)).
     * Non-homogeneous think models in `workload` override this per
     * processor.
     */
    double requestProbability = 1.0;

    ArbitrationPolicy policy = ArbitrationPolicy::ProcessorPriority;
    SelectionRule selection = SelectionRule::Random;

    /**
     * Simulation kernel. CycleSkip (default) is the exact,
     * golden-pinned reference; FastStat trades bit-compat for
     * throughput and is validated statistically. Non-default kernels
     * fold into the config fingerprint, so FastStat records can never
     * merge with (or satisfy a resume of) an exact-kernel sweep.
     */
    KernelKind kernel = KernelKind::CycleSkip;

    /**
     * Reference pattern + per-processor think structure (see
     * workload/workload.hh and docs/workloads.md). The default -
     * Uniform + Homogeneous - is the paper's hypotheses (e)/(f) and
     * is RNG-compatible with the pre-workload simulator: identical
     * seeds produce identical Metrics.
     */
    WorkloadConfig workload;

    /**
     * Enable the Section 6 organization: per-module input/output
     * buffers; requests may be bused to busy modules and a module
     * starts its next buffered request in the cycle after completing
     * the previous one.
     */
    bool buffered = false;

    /**
     * Buffer capacities when buffered; 0 means unbounded (the paper's
     * configuration - with single-outstanding-request processors a
     * queue never exceeds n anyway). A finite input capacity makes
     * requests to a full module ineligible for the bus, like the
     * unbuffered idle-module rule; a finite output capacity blocks the
     * module from starting a new access until a response drains.
     */
    int inputCapacity = 0;
    int outputCapacity = 0;

    std::uint64_t seed = 1;    //!< RNG seed; fixed seed == fixed run
    Tick warmupCycles = 20000; //!< cycles discarded before measuring
    Tick measureCycles = 200000; //!< measured window length

    /**
     * Collect per-module breakdowns (Metrics::perModule*): busy
     * cycles/utilization and queue-depth time-average/max per memory
     * module. Purely passive accounting - it consumes no RNG and
     * changes no trajectory, so enabling it leaves every other metric
     * (and every golden pin) bit-identical, and it does not fold
     * into the config fingerprint.
     */
    bool collectPerModule = false;

    /**
     * Collect per-request latency distributions
     * (Metrics::latencyWait / Metrics::latencyResidence): wait time
     * (issue to service start) and residence time (issue to response
     * delivery) in log-bucketed histograms. Purely passive accounting
     * like collectPerModule - it consumes no RNG and changes no
     * trajectory, so enabling it leaves every other metric (and every
     * golden pin) bit-identical, and it does not fold into the config
     * fingerprint.
     */
    bool collectLatency = false;

    /** Processor cycle length r + 2 in bus cycles. */
    int processorCycle() const { return memoryRatio + 2; }

    /** The theoretical EBW ceiling (r+2)/2. */
    double maxEbw() const { return (memoryRatio + 2) / 2.0; }

    /** False, with a message in @p error, if any parameter is out
     *  of range. */
    bool validate(std::string &error) const;

    /** validate(error), fatal on a rejection: the kernels' check. */
    void validate() const;
};

} // namespace sbn

#endif // SBN_CORE_CONFIG_HH

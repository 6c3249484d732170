/**
 * @file
 * Event-driven model of the multiplexed single-bus multiprocessor.
 *
 * One kernel tick is one bus cycle (the paper's basic cycle t). The
 * bus carries exactly one transfer per cycle: a processor request on
 * its way to a module, or a module response on its way back. Memory
 * accesses take r cycles; an uncontended request therefore completes
 * a processor cycle in r+2 bus cycles.
 *
 * The model is event-driven rather than cycle-stepped: arbitration
 * runs only in cycles where a grant could happen, and quiescent spans
 * (all processors thinking / all modules accessing) are skipped.
 *
 * Order of work within one tick, all state updates before the
 * arbitration that therefore observes a consistent end-of-cycle state:
 *   1. think draws of the processors due this tick;
 *   2. memory completions due this tick, in the order their accesses
 *      started;
 *   3. the bus cycle: the transfer granted last tick is delivered,
 *      then the bus arbitrates again;
 *   4. the idle-bus arbitration, when a state change above (or an
 *      earlier one with the bus idle) made a grant possible.
 * Steps 3 and 4 are never both due in one tick.
 *
 * The kernel is the cycle-skipping implementation introduced in PR 3
 * (the classic one-event-per-think-cycle kernel it was differentially
 * tested against is retired; the golden Metrics pins in
 * tests/golden/kernel_metrics*.txt are the regression net now):
 * thinking processors sit in a calendar of processorCycle()
 * tick-buckets, so a think redraw costs one Bernoulli and O(1) bucket
 * work; memory completions sit in the CompletionRing and the bus cycle
 * and arbitration in one slot each, so no event heap is needed (the
 * argument is at runCycleSkip()); the BusArbiter keeps the grant
 * candidates and applies the grant rule, and the buffered module
 * queues are ProcessorQueues (all shared with FastStat,
 * core/arbiter.hh); and the post-grant transfer-done/arbitrate pair
 * shares one coalesced bus cycle. The driver and its event chain are
 * instantiated once per organization (template <bool Buffered>), and
 * nothing allocates after construction.
 *
 * Which module a request targets and how eagerly each processor
 * issues is owned by the WorkloadModel (workload/workload.hh). The
 * default Uniform + Homogeneous workload consumes the RNG stream in
 * the exact pre-workload order (one uniformInt per issue, one
 * bernoulli per draw), which is what keeps the golden pins valid.
 */

#ifndef SBN_CORE_SYSTEM_HH
#define SBN_CORE_SYSTEM_HH

#include <vector>

#include "core/arbiter.hh"
#include "core/collector.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "core/tick.hh"
#include "util/random.hh"
#include "workload/workload.hh"

namespace sbn {

/**
 * A complete simulated system: n processors, m memory modules, the
 * multiplexed bus and its arbiter. Construct with a SystemConfig and
 * call run() once to obtain Metrics.
 */
class SingleBusSystem
{
  public:
    explicit SingleBusSystem(const SystemConfig &config);

    /** Run warmup + measurement and return the collected metrics. */
    Metrics run();

    /**
     * Scheduled events executed so far: memory completions, bus
     * cycles and arbitrations (perf accounting; think draws are
     * counted by thinkDraws()).
     */
    std::uint64_t heapEventsExecuted() const { return eventsExecuted_; }

    /** Bernoulli think/issue draws performed (perf accounting). */
    std::uint64_t thinkDraws() const { return thinkDraws_; }

  private:
    /** Unbuffered module service stages. */
    enum class ModState
    {
        Idle,
        RequestInFlight, //!< granted request still on the bus
        Accessing,
        HoldingResponse, //!< done, response waiting for the bus
        ResponseInFlight //!< response on the bus
    };

    struct Module
    {
        // Unbuffered state machine.
        ModState state = ModState::Idle;
        int servingProc = -1;

        // Buffered organization: the queues live in queues_.
        std::uint32_t accessing = 0; //!< server busy
        int reservedInput = 0; //!< granted requests still on the bus

        Tick accessStart = 0;
    };

    /** The transfer currently occupying the bus. */
    struct BusTransfer
    {
        enum class Kind { None, Request, Response } kind = Kind::None;
        int proc = -1;
        int module = -1;
    };

    // --- behaviour ---------------------------------------------------
    // The per-event chain is templated on the organization, as
    // FastStat's is: each driver instantiation carries only its own
    // module machine. Members that draw take the driver's local copy
    // of rng_ (see runCycleSkip()).

    /** A delivered response frees @p proc: one processor-cycle draw,
     *  issue or think. */
    void processorReady(int proc, Tick now, RandomGenerator &rng);
    template <bool Buffered> void memoryCompletion(int module, Tick now);
    template <bool Buffered>
    void transferDone(Tick now, RandomGenerator &rng);
    template <bool Buffered> void arbitrate(Tick now, RandomGenerator &rng);
    template <bool Buffered> void grantRequest(int proc, Tick now);
    template <bool Buffered> void grantResponse(int module, Tick now);

    void requestArbitration(Tick at);
    /** Start @p module's next buffered access if it can; returns
     *  whether it did (and so refreshed the module's flags). */
    bool maybeStartBufferedAccess(int module, Tick now);

    /**
     * Report a buffered module's acceptance to the arbiter, after a
     * change to its input occupancy or server; a no-op with unbounded
     * input buffers. Its response flag, and the unbuffered machine's
     * two flags, are set directly at the transitions that flip them.
     */
    void refreshAccept(int module);

    /** The buffered queues of @p module in queues_. */
    std::size_t inputQueue(int module) const
    {
        return static_cast<std::size_t>(module);
    }
    std::size_t outputQueue(int module) const
    {
        return static_cast<std::size_t>(cfg_.numModules + module);
    }

    /**
     * @p proc issues its next request: the target draw (from the
     * workload model) and the bookkeeping. Returns whether the
     * request is a grant candidate at once. With the think draws of
     * processorReady() and processThinkTick(), the only consumer of
     * processor RNG.
     */
    bool issue(int proc, Tick now, RandomGenerator &rng);

    // --- cycle-skip kernel --------------------------------------------
    template <bool Buffered> void runCycleSkip();
    void processThinkTick(Tick now, std::size_t bucket_idx,
                          RandomGenerator &rng);
    void refreshNextThink(Tick now, std::size_t r0);
    void enterThinking(int proc, Tick now);

    // --- bookkeeping --------------------------------------------------
    void recordCompletion(int proc, Tick grant_tick);

    SystemConfig cfg_;
    Tick now_ = 0;
    RandomGenerator rng_; //!< the seeded stream; run() draws on a copy
    WorkloadModel workload_;

    // Processor state, one array per field: the module of the
    // outstanding request, its issue tick, and the think draw's
    // integer threshold (RandomGenerator::bernoulliThreshold of the
    // processor's p, fixed for the run).
    std::vector<int> procTarget_;
    std::vector<Tick> procIssueTick_;
    std::vector<std::uint64_t> thinkThreshold_;

    std::vector<Module> mods_;

    /** Buffered: module j's input queue is queue j, its output queue
     *  (ready tick = completion tick) queue m + j. */
    ProcessorQueues queues_;

    BusTransfer busTransfer_;

    /**
     * The scheduled-event calendar: the ring of pending memory
     * completions, and one slot per single-instance event, holding its
     * due tick or kNever. busCycleAt_ (the coalesced transfer-done +
     * arbitrate) stays set through its transfer phase, so
     * requestArbitration() sees the arbitration that ends it.
     */
    CompletionRing completions_;
    Tick busCycleAt_ = kNever;
    Tick arbitrationAt_ = kNever; //!< idle-bus wakeup
    std::uint64_t eventsExecuted_ = 0;

    /**
     * Think calendar: bucket b, the n slots from thinkSlots_[b * n]
     * of which the first thinkSize_[b] are live, holds in event order
     * the thinking processors whose next draw is due at
     * thinkBucketDue_[b] (always congruent to b mod processorCycle()).
     * Redraw ticks advance in strides of exactly one processor cycle,
     * so every pending entry of a bucket shares one due tick and a
     * failed draw stays in its bucket in place.
     */
    std::vector<int> thinkSlots_;
    std::vector<std::uint32_t> thinkSize_;
    std::vector<Tick> thinkBucketDue_;
    int thinkingCount_ = 0;
    std::uint64_t thinkDraws_ = 0;

    /**
     * Bit b set <=> bucket b nonempty, for processor cycles of at
     * most 63 ticks (thinkMaskUsable_). Buckets come due in cyclic
     * residue order, so the next think tick is a rotate+ctz instead
     * of an O(processorCycle) scan of the due array.
     */
    std::uint64_t thinkMask_ = 0;
    std::uint64_t thinkMaskAll_ = 0; //!< low processorCycle() bits
    bool thinkMaskUsable_ = false;
    std::uint64_t pcReciprocal_ = 0; //!< 2^64 / processorCycle(), rounded up

    /**
     * Cached earliest pending think tick (kNever while no processor
     * thinks) and its bucket, so the driver loop compares two
     * integers instead of recomputing; maintained by processThinkTick
     * (full refresh, residue already in hand) and enterThinking
     * (min-update).
     */
    Tick thinkNextDue_ = 0;
    std::size_t thinkNextIdx_ = 0;

    /** Grant candidates, kept in lockstep with the processor and
     *  module state transitions, and the grant rule. */
    BusArbiter arbiter_;

    /** Passive measurement: window, counters, per-module and latency
     *  collection (core/collector.hh). */
    RunCollector collector_;
    std::uint64_t calendarDrains_ = 0;

    /** Wait-time moments (kept per kernel; see core/collector.hh). */
    Accumulator waitStats_;
    Accumulator serviceStats_;

    bool ran_ = false;
};

} // namespace sbn

#endif // SBN_CORE_SYSTEM_HH

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
 * work; memory completions sit in a FIFO ring and the bus cycle and
 * arbitration in one slot each, so no event heap is needed (the
 * argument is at runCycleSkip()); arbitration candidates are bit-sets
 * maintained incrementally at the state transitions that change
 * eligibility; and the post-grant transfer-done/arbitrate pair shares
 * one coalesced bus cycle.
 *
 * Which module a request targets and how eagerly each processor
 * issues is owned by the WorkloadModel (workload/workload.hh). The
 * default Uniform + Homogeneous workload consumes the RNG stream in
 * the exact pre-workload order (one uniformInt per issue, one
 * bernoulli per draw), which is what keeps the golden pins valid.
 */

#ifndef SBN_CORE_SYSTEM_HH
#define SBN_CORE_SYSTEM_HH

#include <deque>
#include <limits>
#include <vector>

#include "core/collector.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "core/tick.hh"
#include "util/index_set.hh"
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

    /**
     * Capacities of every scratch/eligibility container arbitration
     * touches, in a fixed order (exposed for the zero-steady-state-
     * allocation test: capacities must not change across run()).
     */
    std::vector<std::size_t> scratchCapacities() const;

  private:
    static constexpr Tick kNever = std::numeric_limits<Tick>::max();

    /** What a processor is doing. */
    enum class ProcState
    {
        Thinking,        //!< internal processing, no request
        WaitingGrant,    //!< request issued, waiting for the bus
        WaitingResponse, //!< request in the memory subsystem
    };

    struct Processor
    {
        ProcState state = ProcState::Thinking;
        int target = -1;  //!< module of the outstanding request
        Tick issueTick = 0;
    };

    /** Unbuffered module service stages. */
    enum class ModState
    {
        Idle,
        RequestInFlight, //!< granted request still on the bus
        Accessing,
        HoldingResponse, //!< done, response waiting for the bus
        ResponseInFlight //!< response on the bus
    };

    struct Response
    {
        int proc;
        Tick readyTick;
    };

    struct Module
    {
        // Unbuffered state machine.
        ModState state = ModState::Idle;
        int servingProc = -1;

        // Buffered organization (config.buffered).
        bool accessing = false;
        std::deque<int> inputQueue;      //!< waiting request procs
        std::deque<Response> outputQueue; //!< waiting responses
        int reservedInput = 0; //!< granted requests still on the bus

        Tick accessStart = 0;
    };

    /** Completion calendar entry: module's access is done at due. */
    struct Completion
    {
        Tick due;
        int module;
    };

    /** The transfer currently occupying the bus. */
    struct BusTransfer
    {
        enum class Kind { None, Request, Response } kind = Kind::None;
        int proc = -1;
        int module = -1;
    };

    // --- behaviour ---------------------------------------------------
    void processorReady(int proc);
    void memoryCompletion(int module);
    void transferDone();
    void arbitrate();

    void scheduleCompletion(int module);
    void requestArbitration(Tick at);
    bool moduleCanAcceptRequest(const Module &mod) const;
    bool moduleHasResponse(const Module &mod) const;
    void maybeStartBufferedAccess(int module);

    void grantRequest(int proc);
    void grantResponse(int module);

    /**
     * One processor-cycle draw: issue (true) or think (false). The
     * single place the simulator consumes processor RNG; target and
     * think probability both come from the workload model.
     */
    bool drawProcessor(int proc, Tick now);

    // --- cycle-skip kernel --------------------------------------------
    void runCycleSkip();
    void processThinkTick(Tick now, std::size_t bucket_idx);
    void refreshNextThink(Tick now, std::size_t r0);
    void enterThinking(int proc, Tick now);

    void procBecomesWaiting(int proc, int target);
    void refreshModule(int module);
    void selectIncremental(int &chosen_proc, int &chosen_mod);

    // --- bookkeeping --------------------------------------------------
    void recordCompletion(int proc, Tick grant_tick);

    SystemConfig cfg_;
    Tick now_ = 0;
    RandomGenerator rng_;
    WorkloadModel workload_;

    std::vector<Processor> procs_;
    std::vector<Module> mods_;

    BusTransfer busTransfer_;

    /**
     * The scheduled-event calendar: a FIFO ring of pending memory
     * completions, at most one per module, pre-sized to numModules;
     * and one slot per single-instance event, holding its due tick or
     * kNever. busCycleAt_ (the coalesced transfer-done + arbitrate)
     * stays set through its transfer phase, so requestArbitration()
     * sees the arbitration that ends it.
     */
    std::vector<Completion> compRing_;
    std::size_t compHead_ = 0;
    std::size_t compCount_ = 0;
    Tick busCycleAt_ = kNever;
    Tick arbitrationAt_ = kNever; //!< idle-bus wakeup
    std::uint64_t eventsExecuted_ = 0;
    bool inArbitration_ = false; //!< guards re-entrant rescheduling

    /**
     * Think calendar: bucket b holds, in event order, the thinking
     * processors whose next draw is due at thinkBucketDue_[b] (always
     * congruent to b mod processorCycle()). Redraw ticks advance in
     * strides of exactly one processor cycle, so every pending entry
     * of a bucket shares one due tick and a failed draw stays in its
     * bucket in place.
     */
    std::vector<std::vector<int>> thinkBuckets_;
    std::vector<Tick> thinkBucketDue_;
    int thinkingCount_ = 0;
    std::uint64_t thinkDraws_ = 0;

    /**
     * Bit b set <=> thinkBuckets_[b] nonempty, for processor cycles
     * of at most 63 ticks (thinkMaskUsable_). Buckets come due in
     * cyclic residue order, so the next think tick is a rotate+ctz
     * instead of an O(processorCycle) scan of the due array.
     */
    std::uint64_t thinkMask_ = 0;
    std::uint64_t thinkMaskAll_ = 0; //!< low processorCycle() bits
    bool thinkMaskUsable_ = false;

    /**
     * Cached earliest pending think tick and its bucket, so the
     * driver loop compares two integers instead of recomputing;
     * maintained by processThinkTick (full refresh, residue already
     * in hand) and enterThinking (min-update).
     */
    Tick thinkNextDue_ = 0;
    std::size_t thinkNextIdx_ = 0;

    /**
     * Incremental arbitration eligibility, kept in lockstep with
     * processor/module state transitions:
     * candProcSet_ = waiting processors whose target can accept,
     * candModSet_ = modules holding a deliverable response.
     */
    IndexSet candProcSet_;
    IndexSet candModSet_;
    std::vector<IndexSet> waiterSets_; //!< per module: waiting procs
    std::vector<char> modCanAccept_;   //!< cached acceptance flags
    std::vector<char> modHasResponse_; //!< cached response flags

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

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
 * Event schedule within one tick:
 *   priority kUpdate: transfer deliveries, memory completions,
 *                     processor think-expiries -- all state updates;
 *   priority kDecide: bus arbitration, which therefore observes a
 *                     consistent end-of-cycle state.
 *
 * The kernel is the cycle-skipping implementation introduced in PR 3
 * (the classic one-event-per-think-cycle kernel it was differentially
 * tested against is retired; the golden Metrics pins in
 * tests/golden/kernel_metrics*.txt are the regression net now):
 * thinking processors sit in a calendar of processorCycle()
 * tick-buckets processed by a hybrid driver loop outside the event
 * heap, so a think redraw costs one Bernoulli and O(1) bucket work
 * instead of a heap operation; arbitration candidates are bit-sets
 * maintained incrementally at the state transitions that change
 * eligibility; and the post-grant transfer-done/arbitrate pair shares
 * one coalesced event.
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
#include <vector>

#include "core/collector.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "desim/simulation.hh"
#include "desim/trace.hh"
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

    /** The configuration this system was built with. */
    const SystemConfig &config() const { return cfg_; }

    /** Current simulated bus cycle (exposed for tests). */
    Tick now() const { return sim_.now(); }

    /** Heap events executed so far (perf accounting). */
    std::uint64_t heapEventsExecuted() const
    {
        return sim_.queue().executed();
    }

    /** Bernoulli think/issue draws performed (perf accounting). */
    std::uint64_t thinkDraws() const { return thinkDraws_; }

    /**
     * Capacities of every scratch/eligibility container arbitration
     * touches, in a fixed order (exposed for the zero-steady-state-
     * allocation test: capacities must not change across run()).
     */
    std::vector<std::size_t> scratchCapacities() const;

  private:
    /** What a processor is doing. */
    enum class ProcState
    {
        Thinking,        //!< internal processing, no request
        WaitingGrant,    //!< request issued, waiting for the bus
        WaitingResponse, //!< request in the memory subsystem
    };

    /** Event type: no allocation, no type-erased callback, just
     *  (system, member function, index). */
    using SysEvent = MemberEvent<SingleBusSystem>;

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
        SysEvent completionEvent;
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

    // MemberEvent adapters for the no-index handlers.
    void onArbitrate(int) { arbitrate(); }
    void onBusCycle(int);

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
    Simulation sim_;
    RandomGenerator rng_;
    WorkloadModel workload_;

    std::vector<Processor> procs_;
    std::vector<Module> mods_;

    BusTransfer busTransfer_;
    SysEvent arbitrationEvent_;  //!< idle-bus wakeups
    SysEvent busCycleEvent_;     //!< coalesced transfer+arbitrate
    bool inArbitration_ = false; //!< guards re-entrant rescheduling
    bool inBusCycle_ = false;    //!< transfer phase of busCycleEvent_

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

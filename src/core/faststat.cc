#include "core/faststat.hh"

#include <algorithm>
#include <cmath>

#include "core/fingerprint.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

FastStatSystem::FastStatSystem(const SystemConfig &config)
    : cfg_(config),
      // cfg_ precedes workload_ in declaration order; validate before
      // the workload model builds alias tables from the raw fields.
      workload_((cfg_.validate(), cfg_.workload), cfg_.numProcessors,
                cfg_.numModules, cfg_.requestProbability),
      pc_(static_cast<Tick>(cfg_.processorCycle())),
      queues_(cfg_.buffered ? 2 * static_cast<std::size_t>(cfg_.numModules)
                            : 0,
              cfg_.buffered ? static_cast<std::size_t>(cfg_.numProcessors)
                            : 0),
      completions_(static_cast<std::size_t>(cfg_.numModules),
                   static_cast<Tick>(cfg_.memoryRatio)),
      arbiter_(cfg_), collector_(cfg_)
{
    // Stream family keyed by the full config fingerprint (seed
    // included): streams 0..n-1 drive the processors, stream n the
    // arbitration tie-breaks. Any config difference re-keys every
    // stream at once.
    const std::uint64_t key = configFingerprint(cfg_);
    const auto n = static_cast<std::size_t>(cfg_.numProcessors);
    const auto m = static_cast<std::size_t>(cfg_.numModules);
    procRng_.reserve(n);
    procLog1mp_.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
        procRng_.emplace_back(key, static_cast<std::uint64_t>(p));
        procLog1mp_.push_back(std::log1p(
            -workload_.thinkProbability(static_cast<int>(p))));
    }
    arbRng_ = CounterRng(key, static_cast<std::uint64_t>(n));

    procState_.assign(n, ProcState::Thinking);
    procTarget_.assign(n, -1);
    procIssueTick_.assign(n, 0);

    modState_.assign(m, ModState::Idle);
    modServing_.assign(m, -1);
    modAccessStart_.assign(m, 0);
    modAccessing_.assign(m, 0u);

    arbAt_ = kNever;
    thinkHeap_.reserve(n);
}

void
FastStatSystem::refreshModule(int module)
{
    // As in the exact kernel, a request to an idle, empty module takes
    // the server, not a buffer slot. No reservation term: grants
    // enqueue their request immediately (delivery is fused into the
    // grant), so the input queue alone is the occupancy.
    const auto idx = static_cast<std::size_t>(module);
    const int occupied = static_cast<int>(queues_.size(inputQueue(module)));
    const bool accept = cfg_.inputCapacity == 0 ||
                        (!modAccessing_[idx] && occupied == 0) ||
                        occupied < cfg_.inputCapacity;
    arbiter_.refresh(module, accept, !queues_.empty(outputQueue(module)));
}

void
FastStatSystem::pushThinkWake(Tick due, int proc)
{
    // (tick, proc) pairs compare lexicographically, so equal-tick
    // wake-ups pop in processor index order - a total, reproducible
    // order with no dependence on insertion history.
    thinkHeap_.emplace_back(due, proc);
    std::push_heap(thinkHeap_.begin(), thinkHeap_.end(),
                   std::greater<>());
}

void
FastStatSystem::processorReady(int proc, Tick now)
{
    ++thinkDraws_;
    const auto idx = static_cast<std::size_t>(proc);
    const double p = workload_.thinkProbability(proc);
    if (p <= 0.0) {
        // Never issues again; park outside every structure (the exact
        // kernel redraws forever, statistically the same silence).
        procState_[idx] = ProcState::Thinking;
        return;
    }
    const std::uint64_t k = procRng_[idx].geometric(p, procLog1mp_[idx]);
    if (k == 0) {
        issue(proc, now);
        return;
    }
    procState_[idx] = ProcState::Thinking;
    // A wake past the window can never fire (the driver loop stops
    // first); parking it keeps k * pc_ from overflowing for tiny p.
    if (k > (collector_.windowEnd() - now) /
                static_cast<std::uint64_t>(pc_))
        return;
    pushThinkWake(now + static_cast<Tick>(k) * pc_, proc);
}

void
FastStatSystem::issue(int proc, Tick now)
{
    const auto idx = static_cast<std::size_t>(proc);
    procState_[idx] = ProcState::WaitingGrant;
    const int target = workload_.sampleTarget(proc, procRng_[idx]);
    procTarget_[idx] = target;
    procIssueTick_[idx] = now;
    collector_.issue(target, now);
    arbiter_.waiting(proc, target);
}

template <bool Buffered>
void
FastStatSystem::memoryCompletion(int module, Tick now)
{
    const auto idx = static_cast<std::size_t>(module);
    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[idx] == ModState::Accessing,
                   "completion on non-accessing module");
        // Accessing -> HoldingResponse: the response flag flips on;
        // acceptance stays off.
        modState_[idx] = ModState::HoldingResponse;
        arbiter_.setResponse(module, true);
        collector_.accessSpan(module, modAccessStart_[idx], now);
    } else {
        queues_.push(outputQueue(module), modServing_[idx], now);
        modAccessing_[idx] = 0;
        modServing_[idx] = -1;
        collector_.accessSpan(module, modAccessStart_[idx], now);
        refreshModule(module);
        maybeStartBufferedAccess(module, now);
    }
}

void
FastStatSystem::maybeStartBufferedAccess(int module, Tick now)
{
    const auto idx = static_cast<std::size_t>(module);
    if (modAccessing_[idx] || queues_.empty(inputQueue(module)))
        return;
    if (cfg_.outputCapacity > 0 &&
        static_cast<int>(queues_.size(outputQueue(module))) >=
            cfg_.outputCapacity)
        return; // blocked until a response drains

    modServing_[idx] = queues_.pop(inputQueue(module));
    modAccessing_[idx] = 1;
    modAccessStart_[idx] = now;
    collector_.serviceStart(modServing_[idx], now);
    collector_.dequeue(module, now);
    completions_.push(now, module);
    refreshModule(module);
}

template <bool Buffered>
void
FastStatSystem::arbitrate(Tick now)
{
    // Selection and grant in one pass. The exact kernel's transient
    // bus-flight stages are fused away: the chosen transfer's delivery
    // effects apply immediately with next-tick timestamps, because the
    // flight lasts exactly one tick and nothing arbitrates mid-air.
    const BusArbiter::Choice choice = arbiter_.select(
        [&](std::size_t count) {
            // A single candidate has nothing to tie-break: no draw.
            return count == 1 ? std::size_t{0} : arbRng_.pickIndex(count);
        },
        [&](int proc) {
            return procIssueTick_[static_cast<std::size_t>(proc)];
        },
        [&](int module) {
            const auto idx = static_cast<std::size_t>(module);
            if constexpr (Buffered)
                return queues_.frontReady(outputQueue(module));
            else
                return modAccessStart_[idx] +
                       static_cast<Tick>(cfg_.memoryRatio);
        });
    if (choice.proc < 0 && choice.module < 0) {
        arbAt_ = kNever; // re-armed by the next event tick
        return;
    }
    if (choice.proc >= 0)
        grantRequest<Buffered>(choice.proc, now);
    else
        grantResponse<Buffered>(choice.module, now);

    collector_.busGrant(now);
    arbAt_ = now + 1;
}

template <bool Buffered>
void
FastStatSystem::grantRequest(int proc, Tick now)
{
    const auto idx = static_cast<std::size_t>(proc);
    const int target = procTarget_[idx];
    const auto tgt = static_cast<std::size_t>(target);
    const Tick arrive = now + 1;
    procState_[idx] = ProcState::WaitingResponse;
    arbiter_.granted(proc, target);

    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[tgt] == ModState::Idle,
                   "request granted to a non-idle module");
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        collector_.dequeue(target, now);
        // Idle -> Accessing at the arrival tick: acceptance flips off.
        modState_[tgt] = ModState::Accessing;
        arbiter_.setAccept(target, false);
        modServing_[tgt] = proc;
        modAccessStart_[tgt] = arrive;
        collector_.serviceStart(proc, arrive);
        completions_.push(arrive, target);
    } else {
        queues_.push(inputQueue(target), proc);
        refreshModule(target);
        maybeStartBufferedAccess(target, arrive);
    }
}

template <bool Buffered>
void
FastStatSystem::grantResponse(int module, Tick now)
{
    const auto idx = static_cast<std::size_t>(module);
    int proc = -1;

    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[idx] == ModState::HoldingResponse,
                   "response granted from module in wrong state");
        // HoldingResponse -> Idle: the response leaves, the module
        // becomes acceptable and its waiters re-enter the candidate
        // set (first visible to the next tick's arbitration).
        proc = modServing_[idx];
        modServing_[idx] = -1;
        modState_[idx] = ModState::Idle;
        arbiter_.setResponse(module, false);
        arbiter_.setAccept(module, true);
    } else {
        proc = queues_.pop(outputQueue(module));
        refreshModule(module);
        // The output slot freed; a blocked module resumes at the
        // grant tick itself, matching the exact kernel (which calls
        // maybeStartBufferedAccess from grantResponse at now).
        maybeStartBufferedAccess(module, now);
    }

    recordCompletion(proc, now);
    processorReady(proc, now + 1);
}

void
FastStatSystem::recordCompletion(int proc, Tick grant_tick)
{
    const Tick issue = procIssueTick_[static_cast<std::size_t>(proc)];
    if (!collector_.completion(proc, issue, grant_tick))
        return;
    // Wait is an exact tick count; service = wait + pc. Integer
    // moments here, one Accumulator summary at the end of run().
    const std::uint64_t wait = grant_tick + 1 - issue - pc_;
    waitSum_ += wait;
    waitSumSq_ += static_cast<unsigned __int128>(wait) * wait;
    if (wait < waitMin_)
        waitMin_ = wait;
    if (wait > waitMax_)
        waitMax_ = wait;
}

// Flatten: inline the whole per-event helper chain into the driver
// loop. Each transaction walks ~9 small helpers; at tens of millions
// of transactions per run the call overhead alone is measurable, and
// inlining lets the compiler keep loop-invariant config fields
// (selection, window bounds) in registers across the chain. The
// Buffered template parameter makes the buffered/unbuffered split a
// compile-time constant throughout the flattened body.
template <bool Buffered>
__attribute__((flatten)) void
FastStatSystem::runLoop()
{
    // Seed: every processor draws at tick 0, in index order, then the
    // bus decides - the same tick-0 structure as the exact kernel.
    for (int p = 0; p < cfg_.numProcessors; ++p)
        processorReady(p, 0);
    arbitrate<Buffered>(0);

    // Driver: jump to the earliest pending event tick. Per tick, the
    // state updates (completions, think expiries = issues) run before
    // the arbitration observes the settled state, as in the exact
    // kernel (core/system.hh); grants already applied their delivery
    // effects at the previous tick. Every structure is O(1)/O(log n)
    // per event, and none allocates after construction, in either
    // organization (KernelGridExtras.SteadyStateArbitrationDoesNotReallocate).
    for (;;) {
        Tick next = arbAt_;
        if (completions_.nextDue() < next)
            next = completions_.nextDue();
        if (!thinkHeap_.empty() && thinkHeap_.front().first < next)
            next = thinkHeap_.front().first;
        if (next >= collector_.windowEnd())
            break;

        const Tick now = next;
        while (completions_.nextDue() == now)
            memoryCompletion<Buffered>(completions_.pop(), now);
        while (!thinkHeap_.empty() &&
               thinkHeap_.front().first == now) {
            std::pop_heap(thinkHeap_.begin(), thinkHeap_.end(),
                          std::greater<>());
            const int proc = thinkHeap_.back().second;
            thinkHeap_.pop_back();
            // The geometric draw already placed the issue at this
            // tick; no redraw happens on wake.
            issue(proc, now);
        }
        arbitrate<Buffered>(now);
    }
}

Metrics
FastStatSystem::run()
{
    sbn_assert(!ran_, "FastStatSystem::run may only be called once");
    ran_ = true;

    {
        TelemetryTimerScope timer(TelemetryTimer::SimRun);
        if (cfg_.buffered)
            runLoop<true>();
        else
            runLoop<false>();
    }

    // Flush the run's locally accumulated counts in one batch; the
    // flattened driver loop never touches the telemetry registry.
    telemetryAdd(TelemetryCounter::SimRuns, 1);
    telemetryAdd(TelemetryCounter::SimThinkDraws, thinkDraws_);

    Metrics out;
    collector_.finish(out);

    // Summarize the integer wait moments: mean = sum/n and
    // m2 = sumsq - sum^2/n (exact sums, so the subtraction is safe).
    const std::uint64_t completed = out.completedRequests;
    Accumulator waitStats;
    if (completed != 0) {
        const auto n = static_cast<double>(completed);
        const double sum = static_cast<double>(waitSum_);
        const double sumsq = static_cast<double>(waitSumSq_);
        const double mean = sum / n;
        waitStats = Accumulator::fromMoments(
            completed, mean, sumsq - sum * mean,
            static_cast<double>(waitMin_),
            static_cast<double>(waitMax_));
    }
    out.meanWaitCycles = waitStats.mean();
    out.meanServiceCycles =
        completed != 0 ? waitStats.mean() + static_cast<double>(pc_) : 0.0;
    out.waitStats = waitStats;
    return out;
}

} // namespace sbn

#include "core/faststat.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fingerprint.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

constexpr Tick kNever = std::numeric_limits<Tick>::max();

} // namespace

FastStatSystem::FastStatSystem(const SystemConfig &config)
    : cfg_(config),
      // cfg_ precedes workload_ in declaration order; validate before
      // the workload model builds alias tables from the raw fields.
      workload_((cfg_.validate(), cfg_.workload), cfg_.numProcessors,
                cfg_.numModules, cfg_.requestProbability),
      pc_(static_cast<Tick>(cfg_.processorCycle())), collector_(cfg_)
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
    inputQueues_.resize(m);
    outputQueues_.resize(m);

    arbAt_ = kNever;
    compRing_.resize(m + 1);
    thinkHeap_.reserve(n);

    candProcSet_.resize(n);
    candModSet_.resize(m);
    waiterSets_.assign(m, IndexSet(n));
    modCanAccept_.assign(m, 1u);
    modHasResponse_.assign(m, 0u);
}

bool
FastStatSystem::moduleCanAcceptRequest(int module) const
{
    if (!cfg_.buffered)
        return modState_[static_cast<std::size_t>(module)] ==
               ModState::Idle;

    // No reservation term: grants enqueue their request immediately
    // (delivery is fused into the grant), so the input queue alone is
    // the occupancy.
    const auto idx = static_cast<std::size_t>(module);
    const int occupied = static_cast<int>(inputQueues_[idx].size());
    if (cfg_.inputCapacity == 0)
        return true;
    if (!modAccessing_[idx] && occupied == 0)
        return true;
    return occupied < cfg_.inputCapacity;
}

bool
FastStatSystem::moduleHasResponse(int module) const
{
    const auto idx = static_cast<std::size_t>(module);
    if (!cfg_.buffered)
        return modState_[idx] == ModState::HoldingResponse;
    return !outputQueues_[idx].empty();
}

void
FastStatSystem::procBecomesWaiting(int proc, int target)
{
    waiterSets_[static_cast<std::size_t>(target)].insert(
        static_cast<std::size_t>(proc));
    if (modCanAccept_[static_cast<std::size_t>(target)])
        candProcSet_.insert(static_cast<std::size_t>(proc));
}

void
FastStatSystem::refreshModule(int module)
{
    const auto idx = static_cast<std::size_t>(module);
    const bool accept = moduleCanAcceptRequest(module);
    if (accept != static_cast<bool>(modCanAccept_[idx])) {
        modCanAccept_[idx] = accept ? 1 : 0;
        if (!waiterSets_[idx].empty()) {
            if (accept)
                candProcSet_.insertAll(waiterSets_[idx]);
            else
                candProcSet_.eraseAll(waiterSets_[idx]);
        }
    }
    const bool response = moduleHasResponse(module);
    if (response != static_cast<bool>(modHasResponse_[idx])) {
        modHasResponse_[idx] = response ? 1 : 0;
        if (response)
            candModSet_.insert(idx);
        else
            candModSet_.erase(idx);
    }
}

void
FastStatSystem::scheduleCompletion(int module, Tick due)
{
    sbn_debug_assert(compCount_ < compRing_.size(),
               "completion ring overflow");
    // Fixed-stride calendar: every access lasts exactly memoryRatio
    // ticks and starts at the current (monotone) tick, so pushes
    // arrive in due order and a plain FIFO ring is a full calendar.
    sbn_debug_assert(due >= lastCompletionDue_,
               "completion calendar lost its FIFO order");
    lastCompletionDue_ = due;
    std::size_t slot = compHead_ + compCount_;
    if (slot >= compRing_.size())
        slot -= compRing_.size();
    compRing_[slot] = Completion{due, module};
    ++compCount_;
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
    procBecomesWaiting(proc, target);
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
        modHasResponse_[idx] = 1;
        candModSet_.insert(idx);
        collector_.accessSpan(module, modAccessStart_[idx], now);
    } else {
        outputQueues_[idx].push_back(Response{modServing_[idx], now});
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
    if (modAccessing_[idx] || inputQueues_[idx].empty())
        return;
    if (cfg_.outputCapacity > 0 &&
        static_cast<int>(outputQueues_[idx].size()) >=
            cfg_.outputCapacity)
        return; // blocked until a response drains

    modServing_[idx] = inputQueues_[idx].front();
    inputQueues_[idx].pop_front();
    modAccessing_[idx] = 1;
    modAccessStart_[idx] = now;
    collector_.serviceStart(modServing_[idx], now);
    collector_.dequeue(module, now);
    scheduleCompletion(module,
                       now + static_cast<Tick>(cfg_.memoryRatio));
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
    const bool any_proc = !candProcSet_.empty();
    const bool any_mod = !candModSet_.empty();
    if (!any_proc && !any_mod) {
        arbAt_ = kNever; // re-armed by the next event tick
        return;
    }

    const bool procs_first =
        cfg_.policy == ArbitrationPolicy::ProcessorPriority;
    if (any_proc && (procs_first || !any_mod)) {
        int chosen;
        if (cfg_.selection == SelectionRule::Random) {
            // A singleton set has nothing to tie-break; skip the draw.
            const std::size_t count = candProcSet_.count();
            chosen = static_cast<int>(candProcSet_.nth(
                count == 1 ? 0 : arbRng_.pickIndex(count)));
        } else {
            int best = -1;
            candProcSet_.forEach([&](std::size_t p) {
                const int proc = static_cast<int>(p);
                if (best < 0 ||
                    procIssueTick_[p] <
                        procIssueTick_[static_cast<std::size_t>(best)])
                    best = proc;
            });
            chosen = best;
        }
        grantRequest<Buffered>(chosen, now);
    } else {
        int chosen;
        if (cfg_.selection == SelectionRule::Random) {
            const std::size_t count = candModSet_.count();
            chosen = static_cast<int>(candModSet_.nth(
                count == 1 ? 0 : arbRng_.pickIndex(count)));
        } else {
            auto ready = [&](int m) {
                const auto idx = static_cast<std::size_t>(m);
                if constexpr (Buffered)
                    return outputQueues_[idx].front().readyTick;
                else
                    return modAccessStart_[idx] +
                           static_cast<Tick>(cfg_.memoryRatio);
            };
            int best = -1;
            candModSet_.forEach([&](std::size_t m) {
                const int mod = static_cast<int>(m);
                if (best < 0 || ready(mod) < ready(best))
                    best = mod;
            });
            chosen = best;
        }
        grantResponse<Buffered>(chosen, now);
    }

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

    waiterSets_[tgt].erase(idx);
    candProcSet_.erase(idx);

    if constexpr (!Buffered) {
        sbn_debug_assert(modState_[tgt] == ModState::Idle,
                   "request granted to a non-idle module");
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        collector_.dequeue(target, now);
        // Idle -> Accessing at the arrival tick: acceptance flips
        // off and the module's remaining waiters leave the candidate
        // set; the access completes a fixed stride later.
        modState_[tgt] = ModState::Accessing;
        modCanAccept_[tgt] = 0;
        if (!waiterSets_[tgt].empty())
            candProcSet_.eraseAll(waiterSets_[tgt]);
        modServing_[tgt] = proc;
        modAccessStart_[tgt] = arrive;
        collector_.serviceStart(proc, arrive);
        scheduleCompletion(
            target, arrive + static_cast<Tick>(cfg_.memoryRatio));
    } else {
        inputQueues_[tgt].push_back(proc);
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
        modHasResponse_[idx] = 0;
        candModSet_.erase(idx);
        modCanAccept_[idx] = 1;
        if (!waiterSets_[idx].empty())
            candProcSet_.insertAll(waiterSets_[idx]);
    } else {
        proc = outputQueues_[idx].front().proc;
        outputQueues_[idx].pop_front();
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
    // per event and allocation-free in steady state.
    for (;;) {
        Tick next = arbAt_;
        if (compCount_ != 0 && compRing_[compHead_].due < next)
            next = compRing_[compHead_].due;
        if (!thinkHeap_.empty() && thinkHeap_.front().first < next)
            next = thinkHeap_.front().first;
        if (next >= collector_.windowEnd())
            break;

        const Tick now = next;
        while (compCount_ != 0 && compRing_[compHead_].due == now) {
            const int module = compRing_[compHead_].module;
            if (++compHead_ == compRing_.size())
                compHead_ = 0;
            --compCount_;
            memoryCompletion<Buffered>(module, now);
        }
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

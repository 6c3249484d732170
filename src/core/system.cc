#include "core/system.hh"

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

SingleBusSystem::SingleBusSystem(const SystemConfig &config)
    : cfg_(config), rng_(config.seed),
      // cfg_ precedes workload_ in declaration order; validate before
      // the workload model builds alias tables from the raw fields.
      workload_((cfg_.validate(), cfg_.workload), cfg_.numProcessors,
                cfg_.numModules, cfg_.requestProbability),
      queues_(cfg_.buffered ? 2 * static_cast<std::size_t>(cfg_.numModules)
                            : 0,
              cfg_.buffered ? static_cast<std::size_t>(cfg_.numProcessors)
                            : 0),
      completions_(static_cast<std::size_t>(cfg_.numModules),
                   static_cast<Tick>(cfg_.memoryRatio)),
      arbiter_(cfg_), collector_(cfg_)
{
    const auto n = static_cast<std::size_t>(cfg_.numProcessors);
    procTarget_.assign(n, -1);
    procIssueTick_.assign(n, 0);
    thinkThreshold_.resize(n);
    for (std::size_t p = 0; p < n; ++p)
        thinkThreshold_[p] = RandomGenerator::bernoulliThreshold(
            workload_.thinkProbability(static_cast<int>(p)));
    mods_.resize(static_cast<std::size_t>(cfg_.numModules));

    // Size every container the hot path touches here: a run allocates
    // nothing after construction, in either organization
    // (KernelGridExtras.SteadyStateArbitrationDoesNotReallocate).
    const auto pc = static_cast<std::size_t>(cfg_.processorCycle());
    thinkSlots_.assign(pc * n, -1);
    thinkSize_.assign(pc, 0);
    thinkBucketDue_.assign(pc, 0);
    thinkMaskUsable_ = pc <= 63;
    thinkMaskAll_ = thinkMaskUsable_ ? (1ull << pc) - 1 : 0;
    pcReciprocal_ = ~std::uint64_t{0} / pc + 1;
}

void
SingleBusSystem::refreshAccept(int module)
{
    // Only a finite input buffer ever refuses a request; the paper's
    // unbounded one (inputCapacity 0) accepts throughout.
    if (cfg_.inputCapacity == 0)
        return;
    const Module &mod = mods_[static_cast<std::size_t>(module)];
    // A request to an idle, empty module takes the server, not a
    // buffer slot; otherwise it needs a free input slot.
    const int occupied =
        static_cast<int>(queues_.size(inputQueue(module))) +
        mod.reservedInput;
    arbiter_.refresh(module,
                     (!mod.accessing && occupied == 0) ||
                         occupied < cfg_.inputCapacity,
                     !queues_.empty(outputQueue(module)));
}

void
SingleBusSystem::requestArbitration(Tick at)
{
    // Only the think draws and the memory completions ask, the two
    // phases that run before a tick's bus cycle; state changes during
    // a bus cycle (its delivery, or a grant and its side effects) are
    // seen by the arbitration that ends it or by the next cycle's.
    // No request is needed (one branch, not three):
    //  - while one is pending;
    //  - while a bus cycle is pending, since it ends in an
    //    arbitration, and a second grant in its cycle would
    //    double-book the bus;
    //  - without candidates: with incrementally maintained candidate
    //    sets an empty-handed arbitration is knowable in advance (no
    //    RNG, no state change).
    if ((arbitrationAt_ != kNever) | (busCycleAt_ != kNever) |
        !arbiter_.hasCandidates())
        return;
    sbn_assert(at >= now_, "arbitration scheduled in the past: ", at,
               " < now ", now_);
    arbitrationAt_ = at;
}

bool
SingleBusSystem::issue(int proc, Tick now, RandomGenerator &rng)
{
    const auto idx = static_cast<std::size_t>(proc);
    const int target = workload_.sampleTarget(proc, rng);
    procTarget_[idx] = target;
    procIssueTick_[idx] = now;
    collector_.issue(target, now);
    return arbiter_.waiting(proc, target);
}

void
SingleBusSystem::processorReady(int proc, Tick now, RandomGenerator &rng)
{
    ++thinkDraws_;
    // bernoulli(p) as an integer compare against the precomputed
    // threshold: the same draws and the same outcomes. A new
    // candidate needs no arbitration request: the delivery runs in a
    // bus cycle, which ends in an arbitration.
    if (rng.bernoulliBelow(thinkThreshold_[static_cast<std::size_t>(proc)]))
        issue(proc, now, rng);
    else
        enterThinking(proc, now);
}

void
SingleBusSystem::enterThinking(int proc, Tick now)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    const Tick due = now + pc;
    // due % pc without a division while due fits 32 bits (Lemire's
    // fastmod: exact for a 32-bit dividend and divisor).
    const auto idx = static_cast<std::size_t>(
        due >> 32 == 0
            ? static_cast<Tick>((static_cast<unsigned __int128>(
                                     pcReciprocal_ * due) *
                                 pc) >>
                                64)
            : due % pc);
    sbn_debug_assert(idx == due % pc, "fastmod disagrees with %");
    std::uint32_t &size = thinkSize_[idx];
    if (size == 0) {
        thinkBucketDue_[idx] = due;
        if (thinkMaskUsable_)
            thinkMask_ |= 1ull << idx;
    } else {
        sbn_assert(thinkBucketDue_[idx] == due,
                   "think bucket due-tick invariant violated");
    }
    sbn_debug_assert(size < static_cast<std::uint32_t>(cfg_.numProcessors),
                     "think bucket overflow");
    thinkSlots_[idx * static_cast<std::size_t>(cfg_.numProcessors) +
                size++] = proc;
    if (thinkingCount_++ == 0 || due < thinkNextDue_) {
        thinkNextDue_ = due;
        thinkNextIdx_ = idx;
    }
}

void
SingleBusSystem::refreshNextThink(Tick now, std::size_t r0)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    if (thinkingCount_ == 0) {
        thinkNextDue_ = kNever;
        return;
    }
    if (thinkMaskUsable_) {
        // Every nonempty bucket is due within (now, now + pc], and
        // residues come due in cyclic order, so rotating the
        // nonempty mask to put now's residue at bit 0 turns the
        // lookup into a count-trailing-zeros. Bit 0 after rotation
        // is now's own bucket, just processed: due a full cycle out.
        // No branches: pc <= 63 keeps both shifts in range (at r0 = 0
        // the left one moves every bit past the mask).
        const std::uint64_t rotated =
            ((thinkMask_ >> r0) |
             (thinkMask_ << (static_cast<unsigned>(pc) -
                             static_cast<unsigned>(r0)))) &
            thinkMaskAll_;
        sbn_assert(rotated != 0, "refreshNextThink with no thinkers");
        const std::uint64_t later = rotated & ~std::uint64_t{1};
        const Tick dist =
            later != 0 ? static_cast<Tick>(__builtin_ctzll(later)) : pc;
        const Tick raw = static_cast<Tick>(r0) + dist;
        thinkNextIdx_ =
            static_cast<std::size_t>(raw >= pc ? raw - pc : raw);
        thinkNextDue_ = now + dist;
        return;
    }

    Tick next = kNever;
    std::size_t idx = 0;
    for (std::size_t b = 0; b < thinkSize_.size(); ++b) {
        if (thinkSize_[b] != 0 && thinkBucketDue_[b] < next) {
            next = thinkBucketDue_[b];
            idx = b;
        }
    }
    thinkNextDue_ = next;
    thinkNextIdx_ = idx;
}

void
SingleBusSystem::processThinkTick(Tick now, std::size_t idx,
                                  RandomGenerator &rng)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    int *const bucket =
        &thinkSlots_[idx * static_cast<std::size_t>(cfg_.numProcessors)];
    const std::uint32_t count = thinkSize_[idx];
    sbn_assert(count != 0 && thinkBucketDue_[idx] == now,
               "processing a think bucket at the wrong tick");
    ++calendarDrains_;

    // Draw in bucket order (== event sequence order). A failure's
    // next draw is due exactly one processor cycle later, i.e. in
    // this same bucket: compact survivors in place, stably. Issue
    // side effects never append to the calendar synchronously, so
    // the snapshot count is safe. The failures run in a tight inner
    // loop; each success leaves it for the issue.
    thinkDraws_ += count;
    std::uint32_t keep = 0;
    std::uint32_t i = 0;
    while (true) {
        while (i < count) {
            const int proc = bucket[i];
            if (rng.bernoulliBelow(
                    thinkThreshold_[static_cast<std::size_t>(proc)]))
                break;
            bucket[keep++] = proc;
            ++i;
        }
        if (i == count)
            break;
        if (issue(bucket[i++], now, rng))
            requestArbitration(now);
    }
    thinkSize_[idx] = keep;
    thinkBucketDue_[idx] = now + pc;
    thinkingCount_ -= static_cast<int>(count - keep);
    if (keep == 0 && thinkMaskUsable_)
        thinkMask_ &= ~(1ull << idx);
    refreshNextThink(now, idx);
}

template <bool Buffered>
void
SingleBusSystem::memoryCompletion(int module, Tick now)
{
    Module &mod = mods_[static_cast<std::size_t>(module)];

    if constexpr (!Buffered) {
        sbn_assert(mod.state == ModState::Accessing,
                   "completion on non-accessing module");
        // Accessing -> HoldingResponse: the response flag turns on;
        // acceptance stays off.
        mod.state = ModState::HoldingResponse;
        collector_.accessSpan(module, mod.accessStart, now);
        arbiter_.setResponse(module, true);
        requestArbitration(now);
    } else {
        // The response joins the output queue; the module holds a
        // deliverable response from its first one on.
        queues_.push(outputQueue(module), mod.servingProc, now);
        if (queues_.size(outputQueue(module)) == 1)
            arbiter_.setResponse(module, true);
        mod.accessing = 0;
        mod.servingProc = -1;
        collector_.accessSpan(module, mod.accessStart, now);
        if (!maybeStartBufferedAccess(module, now))
            refreshAccept(module);
        requestArbitration(now);
    }
}

bool
SingleBusSystem::maybeStartBufferedAccess(int module, Tick now)
{
    Module &mod = mods_[static_cast<std::size_t>(module)];
    if (mod.accessing || queues_.empty(inputQueue(module)))
        return false;
    if (cfg_.outputCapacity > 0 &&
        static_cast<int>(queues_.size(outputQueue(module))) >=
            cfg_.outputCapacity)
        return false; // blocked until a response drains

    mod.servingProc = queues_.pop(inputQueue(module));
    mod.accessing = 1;
    mod.accessStart = now;
    collector_.serviceStart(mod.servingProc, now);
    collector_.dequeue(module, now);
    completions_.push(now, module);
    // An input slot freed: a waiting processor may now be eligible.
    // The caller's arbitration request (a completion) or its bus
    // cycle's arbitration (a delivery or a grant) covers it.
    refreshAccept(module);
    return true;
}

template <bool Buffered>
void
SingleBusSystem::transferDone(Tick now, RandomGenerator &rng)
{
    const BusTransfer xfer = busTransfer_;
    busTransfer_ = BusTransfer{};

    if (xfer.kind == BusTransfer::Kind::Request) {
        Module &mod = mods_[static_cast<std::size_t>(xfer.module)];
        if constexpr (!Buffered) {
            sbn_assert(mod.state == ModState::RequestInFlight,
                       "request arrived at module in wrong state");
            // RequestInFlight -> Accessing: neither flag changes.
            mod.state = ModState::Accessing;
            mod.servingProc = xfer.proc;
            mod.accessStart = now;
            collector_.serviceStart(xfer.proc, now);
            completions_.push(now, xfer.module);
        } else {
            --mod.reservedInput;
            sbn_assert(mod.reservedInput >= 0, "reservation underflow");
            queues_.push(inputQueue(xfer.module), xfer.proc);
            if (!maybeStartBufferedAccess(xfer.module, now))
                refreshAccept(xfer.module);
        }
        return;
    }

    sbn_assert(xfer.kind == BusTransfer::Kind::Response,
               "transfer-done with idle bus");

    if constexpr (!Buffered) {
        Module &mod = mods_[static_cast<std::size_t>(xfer.module)];
        sbn_assert(mod.state == ModState::ResponseInFlight,
                   "response finished from module in wrong state");
        // ResponseInFlight -> Idle: acceptance turns on.
        mod.state = ModState::Idle;
        mod.servingProc = -1;
        // Requests queued for this module become eligible, in time
        // for the arbitration that ends this bus cycle.
        arbiter_.setAccept(xfer.module, true);
    }

    // Deliver to the processor; it immediately starts its next
    // processor cycle (issue or think).
    processorReady(xfer.proc, now, rng);
}

template <bool Buffered>
void
SingleBusSystem::arbitrate(Tick now, RandomGenerator &rng)
{
    sbn_assert(busTransfer_.kind == BusTransfer::Kind::None,
               "arbitrating while the bus is busy");

    // Random draws even for a single candidate: the golden pins hold it.
    const BusArbiter::Choice choice = arbiter_.select(
        [&](std::size_t count) { return rng.pickIndex(count); },
        [&](int proc) {
            return procIssueTick_[static_cast<std::size_t>(proc)];
        },
        [&](int module) {
            if constexpr (Buffered)
                return queues_.frontReady(outputQueue(module));
            else
                return mods_[static_cast<std::size_t>(module)].accessStart +
                       static_cast<Tick>(cfg_.memoryRatio);
        });
    if (choice.proc < 0 && choice.module < 0) {
        // Bus goes idle; a future state change reschedules us.
        return;
    }

    if (choice.proc >= 0)
        grantRequest<Buffered>(choice.proc, now);
    else
        grantResponse<Buffered>(choice.module, now);

    collector_.busGrant(now);
    // One coalesced bus cycle replaces the transfer-done/arbitrate
    // pair: the bus stays busy through the next cycle either way.
    sbn_assert(busCycleAt_ == kNever,
               "bus cycle scheduled while one is pending");
    busCycleAt_ = now + 1;
}

template <bool Buffered>
void
SingleBusSystem::grantRequest(int proc, Tick now)
{
    const int target = procTarget_[static_cast<std::size_t>(proc)];
    Module &mod = mods_[static_cast<std::size_t>(target)];
    arbiter_.granted(proc, target);

    if constexpr (!Buffered) {
        sbn_assert(mod.state == ModState::Idle,
                   "request granted to a non-idle module");
        // Idle -> RequestInFlight: acceptance turns off.
        mod.state = ModState::RequestInFlight;
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        collector_.dequeue(target, now);
        arbiter_.setAccept(target, false);
    } else {
        ++mod.reservedInput;
        refreshAccept(target);
    }

    busTransfer_ = BusTransfer{BusTransfer::Kind::Request, proc, target};
}

template <bool Buffered>
void
SingleBusSystem::grantResponse(int module, Tick now)
{
    int proc = -1;

    if constexpr (!Buffered) {
        Module &mod = mods_[static_cast<std::size_t>(module)];
        sbn_assert(mod.state == ModState::HoldingResponse,
                   "response granted from module in wrong state");
        // HoldingResponse -> ResponseInFlight: the response flag
        // turns off.
        proc = mod.servingProc;
        mod.state = ModState::ResponseInFlight;
        arbiter_.setResponse(module, false);
    } else {
        proc = queues_.pop(outputQueue(module));
        if (queues_.empty(outputQueue(module)))
            arbiter_.setResponse(module, false);
        // The output slot freed; a blocked module can resume.
        if (!maybeStartBufferedAccess(module, now))
            refreshAccept(module);
    }

    busTransfer_ = BusTransfer{BusTransfer::Kind::Response, proc, module};
    recordCompletion(proc, now);
}

void
SingleBusSystem::recordCompletion(int proc, Tick grant_tick)
{
    const Tick issue = procIssueTick_[static_cast<std::size_t>(proc)];
    if (!collector_.completion(proc, issue, grant_tick))
        return;
    // Signed conversions: one instruction each, the same values.
    const auto service = static_cast<double>(
        static_cast<std::int64_t>(grant_tick + 1 - issue));
    Accumulator::addPair(serviceStats_, service, waitStats_,
                         service - static_cast<double>(
                                       cfg_.processorCycle()));
}

// Flatten: inline the per-event helper chain (think draws and their
// RNG calls, completions, transfers, arbitration) into the driver
// loop, as FastStat's runLoop does. The calendar below leaves no
// indirect call in the way, and the Buffered parameter makes the
// organization a compile-time constant throughout the body.
template <bool Buffered>
__attribute__((flatten)) void
SingleBusSystem::runCycleSkip()
{
    // Seed: every processor draws at tick 0, in index order.
    for (int p = 0; p < cfg_.numProcessors; ++p)
        thinkSlots_[static_cast<std::size_t>(p)] = p;
    thinkSize_[0] = static_cast<std::uint32_t>(cfg_.numProcessors);
    thinkBucketDue_[0] = 0;
    if (thinkMaskUsable_)
        thinkMask_ |= 1ull << 0;
    thinkingCount_ = cfg_.numProcessors;
    thinkNextDue_ = 0;
    thinkNextIdx_ = 0;

    // Driver: each pass jumps to the earliest of three ticks (the
    // think calendar, the completion ring's head and the bus-cycle
    // slot) and runs that tick's work in four phases:
    // think draws, due completions in ring order, the bus cycle, the
    // arbitration. This is exactly the order a (tick, priority,
    // insertion sequence) event heap ran them in, with completions and
    // bus cycles at the state-update priority, arbitration at the
    // decision priority, and the think calendar ahead of any same-tick
    // event. So trajectories, golden pins and the event count match
    // the heap-driven kernel this loop replaced:
    //  - Only three kinds of event are scheduled, and none is ever
    //    cancelled: one completion per accessing module at now + r,
    //    one coalesced bus cycle at now + 1, one arbitration at now.
    //  - Completions are due in schedule order, the CompletionRing's
    //    FIFO order (core/arbiter.hh).
    //  - A completion due at t was scheduled at t - r; the bus cycle
    //    due at t by the last statement of arbitrate() at t - 1. Even
    //    at r = 1 every same-tick completion is the older event and
    //    runs first. Running the bus cycle first instead moves golden
    //    pins.
    //  - The ring also keeps the heap's order among same-tick
    //    completions, although nothing depends on it: a completion
    //    draws no random number and changes only its own module (its
    //    arbitration request is idempotent), so reversing same-tick
    //    completions changes no output.
    //  - An arbitration is requested only at the current tick, and
    //    never while a bus cycle is pending or in its transfer phase
    //    (requestArbitration), so the two slots are never due in the
    //    same tick.
    //  - Work in a tick schedules nothing into that tick except the
    //    arbitration: completions land at now + r, bus cycles at
    //    now + 1, think redraws at now + r + 2.
    //  - So the arbitration slot, due only at the current tick, is
    //    empty whenever a pass begins.
    const Tick window_end = collector_.windowEnd();
    // Every draw of the run goes through this local copy of the
    // generator, passed down by reference: with its address kept
    // inside the flattened loop, the compiler can hold the state in
    // registers instead of storing and reloading the member per draw.
    RandomGenerator rng = rng_;
    while (true) {
        sbn_debug_assert(arbitrationAt_ == kNever,
                         "arbitration left pending across ticks");
        Tick now = thinkNextDue_;
        if (completions_.nextDue() < now)
            now = completions_.nextDue();
        if (busCycleAt_ < now)
            now = busCycleAt_;
        if (now >= window_end)
            break;
        now_ = now;

        // Most ticks are a bare bus cycle: one branch skips the two
        // state-update phases together.
        if ((thinkNextDue_ == now) | (completions_.nextDue() == now)) {
            if (thinkNextDue_ == now)
                processThinkTick(now, thinkNextIdx_, rng);
            while (completions_.nextDue() == now) {
                ++eventsExecuted_;
                memoryCompletion<Buffered>(completions_.pop(), now);
            }
        }
        if (busCycleAt_ == now) {
            // Coalesced bus cycle: the transfer completes, then the
            // next arbitration decides, after every same-tick state
            // update, exactly where a separate arbitration would run.
            ++eventsExecuted_;
            transferDone<Buffered>(now, rng);
            busCycleAt_ = kNever;
            arbitrate<Buffered>(now, rng);
        } else if (arbitrationAt_ == now) {
            arbitrationAt_ = kNever;
            ++eventsExecuted_;
            arbitrate<Buffered>(now, rng);
        }
    }
}

Metrics
SingleBusSystem::run()
{
    sbn_assert(!ran_, "SingleBusSystem::run may only be called once");
    ran_ = true;

    {
        TelemetryTimerScope timer(TelemetryTimer::SimRun);
        if (cfg_.buffered)
            runCycleSkip<true>();
        else
            runCycleSkip<false>();
    }

    // Flush the run's locally accumulated counts in one batch; the
    // inner loops never touch the telemetry registry.
    telemetryAdd(TelemetryCounter::SimRuns, 1);
    telemetryAdd(TelemetryCounter::SimHeapEvents, eventsExecuted_);
    telemetryAdd(TelemetryCounter::SimCalendarDrains, calendarDrains_);
    telemetryAdd(TelemetryCounter::SimThinkDraws, thinkDraws_);

    Metrics out;
    collector_.finish(out);
    out.meanWaitCycles = waitStats_.mean();
    out.meanServiceCycles = serviceStats_.mean();
    out.waitStats = waitStats_;
    return out;
}

} // namespace sbn

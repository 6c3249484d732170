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
      completions_(static_cast<std::size_t>(cfg_.numModules),
                   static_cast<Tick>(cfg_.memoryRatio)),
      arbiter_(cfg_), collector_(cfg_)
{
    procs_.resize(cfg_.numProcessors);
    mods_.resize(cfg_.numModules);

    // Pre-size every container the hot path touches, so no pre-sized
    // container reallocates in steady state (asserted by the perf
    // tests via scratchCapacities()) and an unbuffered run allocates
    // nothing. A buffered run still does: each module's two
    // std::deque queues allocate and free nodes as requests pass.
    const auto pc = static_cast<std::size_t>(cfg_.processorCycle());
    thinkBuckets_.resize(pc);
    for (auto &bucket : thinkBuckets_)
        bucket.reserve(static_cast<std::size_t>(cfg_.numProcessors));
    thinkBucketDue_.assign(pc, 0);
    thinkMaskUsable_ = pc <= 63;
    thinkMaskAll_ = thinkMaskUsable_ ? (1ull << pc) - 1 : 0;
}

std::vector<std::size_t>
SingleBusSystem::scratchCapacities() const
{
    std::vector<std::size_t> caps;
    for (const auto &bucket : thinkBuckets_)
        caps.push_back(bucket.capacity());
    caps.push_back(completions_.capacity());
    collector_.appendCapacities(caps);
    return caps;
}

void
SingleBusSystem::refreshModule(int module)
{
    const Module &mod = mods_[module];
    bool accept = mod.state == ModState::Idle;
    bool response = mod.state == ModState::HoldingResponse;
    if (cfg_.buffered) {
        // A request to an idle, empty module takes the server, not a
        // buffer slot; otherwise it needs a free input slot.
        const int occupied =
            static_cast<int>(mod.inputQueue.size()) + mod.reservedInput;
        accept = cfg_.inputCapacity == 0 ||
                 (!mod.accessing && occupied == 0) ||
                 occupied < cfg_.inputCapacity;
        response = !mod.outputQueue.empty();
    }
    // One call site: the flattened loop inlines every copy of its set updates.
    arbiter_.refresh(module, accept, response);
}

void
SingleBusSystem::requestArbitration(Tick at)
{
    // While arbitrate() itself runs (granting), candidates surfacing
    // from its side effects are covered by the post-grant arbitration
    // at the next cycle; scheduling here would double-grant the bus
    // within one cycle.
    if (inArbitration_ || arbitrationAt_ != kNever)
        return;
    // A pending bus cycle, or one in its transfer phase, already ends
    // in an arbitration.
    if (busCycleAt_ != kNever)
        return;
    // With incrementally maintained candidate sets an empty-handed
    // arbitration is knowable in advance (no RNG, no state change).
    if (!arbiter_.hasCandidates())
        return;
    sbn_assert(at >= now_, "arbitration scheduled in the past: ", at,
               " < now ", now_);
    arbitrationAt_ = at;
}

bool
SingleBusSystem::drawProcessor(int proc, Tick now)
{
    Processor &p = procs_[proc];
    ++thinkDraws_;

    if (rng_.bernoulli(workload_.thinkProbability(proc))) {
        p.state = ProcState::WaitingGrant;
        p.target = workload_.sampleTarget(proc, rng_);
        p.issueTick = now;
        collector_.issue(p.target, now);
        arbiter_.waiting(proc, p.target);
        if (arbiter_.accepts(p.target))
            requestArbitration(now);
        return true;
    }

    // One processor cycle of internal work, then draw again
    // (hypothesis (f): requests only start on processor-cycle
    // boundaries).
    p.state = ProcState::Thinking;
    return false;
}

void
SingleBusSystem::processorReady(int proc)
{
    const Tick now = now_;
    if (drawProcessor(proc, now))
        return;
    enterThinking(proc, now);
}

void
SingleBusSystem::enterThinking(int proc, Tick now)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    const Tick due = now + pc;
    const auto idx = static_cast<std::size_t>(due % pc);
    auto &bucket = thinkBuckets_[idx];
    if (bucket.empty()) {
        thinkBucketDue_[idx] = due;
        if (thinkMaskUsable_)
            thinkMask_ |= 1ull << idx;
    } else {
        sbn_assert(thinkBucketDue_[idx] == due,
                   "think bucket due-tick invariant violated");
    }
    bucket.push_back(proc);
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
        std::uint64_t rotated = thinkMask_;
        if (r0 != 0) {
            rotated = (rotated >> r0) |
                      (rotated << (static_cast<unsigned>(pc) -
                                   static_cast<unsigned>(r0)));
            rotated &= thinkMaskAll_;
        }
        sbn_assert(rotated != 0, "refreshNextThink with no thinkers");
        Tick dist;
        if ((rotated & 1u) != 0 && (rotated &= rotated - 1) == 0)
            dist = pc;
        else
            dist = static_cast<Tick>(__builtin_ctzll(rotated));
        const Tick raw = static_cast<Tick>(r0) + dist;
        thinkNextIdx_ =
            static_cast<std::size_t>(raw >= pc ? raw - pc : raw);
        thinkNextDue_ = now + dist;
        return;
    }

    Tick next = kNever;
    std::size_t idx = 0;
    for (std::size_t b = 0; b < thinkBuckets_.size(); ++b) {
        if (!thinkBuckets_[b].empty() && thinkBucketDue_[b] < next) {
            next = thinkBucketDue_[b];
            idx = b;
        }
    }
    thinkNextDue_ = next;
    thinkNextIdx_ = idx;
}

void
SingleBusSystem::processThinkTick(Tick now, std::size_t idx)
{
    const auto pc = static_cast<Tick>(cfg_.processorCycle());
    auto &bucket = thinkBuckets_[idx];
    sbn_assert(!bucket.empty() && thinkBucketDue_[idx] == now,
               "processing a think bucket at the wrong tick");
    ++calendarDrains_;

    // Draw in bucket order (== event sequence order). A failure's
    // next draw is due exactly one processor cycle later, i.e. in
    // this same bucket: compact survivors in place, stably. Issue
    // side effects never append to the calendar synchronously, so
    // the snapshot count is safe.
    const std::size_t count = bucket.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const int proc = bucket[i];
        if (!drawProcessor(proc, now))
            bucket[keep++] = proc;
    }
    bucket.resize(keep);
    thinkBucketDue_[idx] = now + pc;
    thinkingCount_ -= static_cast<int>(count - keep);
    if (keep == 0 && thinkMaskUsable_)
        thinkMask_ &= ~(1ull << idx);
    refreshNextThink(now, idx);
}

void
SingleBusSystem::memoryCompletion(int module)
{
    const Tick now = now_;
    Module &mod = mods_[module];

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::Accessing,
                   "completion on non-accessing module");
        mod.state = ModState::HoldingResponse;
        collector_.accessSpan(module, mod.accessStart, now);
        refreshModule(module);
        requestArbitration(now);
        return;
    }

    mod.outputQueue.push_back(Response{mod.servingProc, now});
    mod.accessing = false;
    mod.servingProc = -1;
    collector_.accessSpan(module, mod.accessStart, now);
    refreshModule(module);
    maybeStartBufferedAccess(module);
    requestArbitration(now);
}

void
SingleBusSystem::maybeStartBufferedAccess(int module)
{
    Module &mod = mods_[module];
    if (mod.accessing || mod.inputQueue.empty())
        return;
    if (cfg_.outputCapacity > 0 &&
        static_cast<int>(mod.outputQueue.size()) >= cfg_.outputCapacity)
        return; // blocked until a response drains

    const Tick now = now_;
    mod.servingProc = mod.inputQueue.front();
    mod.inputQueue.pop_front();
    mod.accessing = true;
    mod.accessStart = now;
    collector_.serviceStart(mod.servingProc, now);
    collector_.dequeue(module, now);
    completions_.push(now, module);
    refreshModule(module);
    // An input slot freed: a waiting processor may now be eligible.
    requestArbitration(now);
}

void
SingleBusSystem::transferDone()
{
    const Tick now = now_;
    const BusTransfer xfer = busTransfer_;
    busTransfer_ = BusTransfer{};

    if (xfer.kind == BusTransfer::Kind::Request) {
        Module &mod = mods_[xfer.module];
        if (!cfg_.buffered) {
            sbn_assert(mod.state == ModState::RequestInFlight,
                       "request arrived at module in wrong state");
            mod.state = ModState::Accessing;
            mod.servingProc = xfer.proc;
            mod.accessStart = now;
            collector_.serviceStart(xfer.proc, now);
            completions_.push(now, xfer.module);
            refreshModule(xfer.module);
        } else {
            --mod.reservedInput;
            sbn_assert(mod.reservedInput >= 0, "reservation underflow");
            mod.inputQueue.push_back(xfer.proc);
            refreshModule(xfer.module);
            maybeStartBufferedAccess(xfer.module);
        }
        return;
    }

    sbn_assert(xfer.kind == BusTransfer::Kind::Response,
               "transfer-done with idle bus");

    if (!cfg_.buffered) {
        Module &mod = mods_[xfer.module];
        sbn_assert(mod.state == ModState::ResponseInFlight,
                   "response finished from module in wrong state");
        mod.state = ModState::Idle;
        mod.servingProc = -1;
        refreshModule(xfer.module);
        // Requests queued for this module become eligible.
        requestArbitration(now);
    }

    // Deliver to the processor; it immediately starts its next
    // processor cycle (issue or think).
    processorReady(xfer.proc);
}

void
SingleBusSystem::arbitrate()
{
    const Tick now = now_;
    sbn_assert(busTransfer_.kind == BusTransfer::Kind::None,
               "arbitrating while the bus is busy");
    inArbitration_ = true;

    // Random draws even for a single candidate: the golden pins hold it.
    const BusArbiter::Choice choice = arbiter_.select(
        [&](std::size_t count) { return rng_.pickIndex(count); },
        [&](int proc) { return procs_[proc].issueTick; },
        [&](int module) {
            const Module &mod = mods_[module];
            if (cfg_.buffered)
                return mod.outputQueue.front().readyTick;
            return mod.accessStart + static_cast<Tick>(cfg_.memoryRatio);
        });
    if (choice.proc < 0 && choice.module < 0) {
        // Bus goes idle; a future state change reschedules us.
        inArbitration_ = false;
        return;
    }

    if (choice.proc >= 0)
        grantRequest(choice.proc);
    else
        grantResponse(choice.module);

    collector_.busGrant(now);
    // One coalesced bus cycle replaces the transfer-done/arbitrate
    // pair: the bus stays busy through the next cycle either way.
    sbn_assert(busCycleAt_ == kNever,
               "bus cycle scheduled while one is pending");
    busCycleAt_ = now + 1;
    inArbitration_ = false;
}

void
SingleBusSystem::grantRequest(int proc)
{
    Processor &p = procs_[proc];
    Module &mod = mods_[p.target];
    p.state = ProcState::WaitingResponse;
    arbiter_.granted(proc, p.target);

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::Idle,
                   "request granted to a non-idle module");
        mod.state = ModState::RequestInFlight;
        // The request leaves the queue for the (dedicated) server;
        // buffered grants stay queued until the module starts them.
        collector_.dequeue(p.target, now_);
    } else {
        ++mod.reservedInput;
    }
    refreshModule(p.target);

    busTransfer_ = BusTransfer{BusTransfer::Kind::Request, proc, p.target};
}

void
SingleBusSystem::grantResponse(int module)
{
    const Tick now = now_;
    Module &mod = mods_[module];
    int proc = -1;

    if (!cfg_.buffered) {
        sbn_assert(mod.state == ModState::HoldingResponse,
                   "response granted from module in wrong state");
        proc = mod.servingProc;
        mod.state = ModState::ResponseInFlight;
        refreshModule(module);
    } else {
        proc = mod.outputQueue.front().proc;
        mod.outputQueue.pop_front();
        refreshModule(module);
        // The output slot freed; a blocked module can resume.
        maybeStartBufferedAccess(module);
    }

    busTransfer_ = BusTransfer{BusTransfer::Kind::Response, proc, module};
    recordCompletion(proc, now);
}

void
SingleBusSystem::recordCompletion(int proc, Tick grant_tick)
{
    const Tick issue = procs_[proc].issueTick;
    if (!collector_.completion(proc, issue, grant_tick))
        return;
    const double service = static_cast<double>(grant_tick + 1 - issue);
    serviceStats_.add(service);
    waitStats_.add(service - static_cast<double>(cfg_.processorCycle()));
}

// Flatten: inline the per-event helper chain (think draws and their
// RNG calls, completions, transfers, arbitration) into the driver
// loop, as FastStat's runLoop does. The calendar below leaves no
// indirect call in the way.
__attribute__((flatten)) void
SingleBusSystem::runCycleSkip()
{
    // Seed: every processor draws at tick 0, in index order.
    auto &bucket0 = thinkBuckets_[0];
    for (int p = 0; p < cfg_.numProcessors; ++p)
        bucket0.push_back(p);
    thinkBucketDue_[0] = 0;
    if (thinkMaskUsable_)
        thinkMask_ |= 1ull << 0;
    thinkingCount_ = cfg_.numProcessors;
    thinkNextDue_ = 0;
    thinkNextIdx_ = 0;

    // Driver: each pass jumps to the earliest of four ticks (the think
    // calendar, the completion ring's head, the bus-cycle slot and the
    // arbitration slot) and runs that tick's work in four phases:
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
    const Tick window_end = collector_.windowEnd();
    while (true) {
        Tick now = thinkingCount_ > 0 ? thinkNextDue_ : kNever;
        if (completions_.nextDue() < now)
            now = completions_.nextDue();
        if (busCycleAt_ < now)
            now = busCycleAt_;
        if (arbitrationAt_ < now)
            now = arbitrationAt_;
        if (now >= window_end)
            break;
        now_ = now;

        if (thinkingCount_ > 0 && thinkNextDue_ == now)
            processThinkTick(now, thinkNextIdx_);
        while (completions_.nextDue() == now) {
            ++eventsExecuted_;
            memoryCompletion(completions_.pop());
        }
        if (busCycleAt_ == now) {
            // Coalesced bus cycle: the transfer completes, then the
            // next arbitration decides, after every same-tick state
            // update, exactly where a separate arbitration would run.
            ++eventsExecuted_;
            transferDone();
            busCycleAt_ = kNever;
            arbitrate();
        }
        if (arbitrationAt_ == now) {
            arbitrationAt_ = kNever;
            ++eventsExecuted_;
            arbitrate();
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
        runCycleSkip();
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

/**
 * @file
 * RunCollector: the passive measurement bookkeeping both simulation
 * kernels share.
 *
 * CycleSkip (core/system.hh) and FastStat (core/faststat.hh) report
 * the state transitions they already mark - issue, dequeue, service
 * start, bus grant, access span, completion - and this class owns the
 * measurement window, the counters, the per-module busy/queue-depth
 * integration, the latency histograms and the derived Metrics fields.
 * It consumes no RNG and feeds nothing back into a kernel decision,
 * so collection is passive by construction.
 *
 * Header-only so FastStat's flattened driver loop inlines every call;
 * with a collection flag off, the guarded branch is the whole cost.
 * The flags are read once, at construction.
 *
 * Wait-time moments stay with each kernel: completion() says whether
 * a sample is in the window, and the kernel adds it to its own
 * moments. CycleSkip keeps two Welford Accumulators, FastStat exact
 * integer sums. Giving CycleSkip the integer moments moves 95 pinned
 * meanWait / meanService / waitVar golden lines by 1-33 ulp; giving
 * FastStat the Accumulators puts two divisions per completion back
 * into its hot loop.
 */

#ifndef SBN_CORE_COLLECTOR_HH
#define SBN_CORE_COLLECTOR_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hh"
#include "core/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

/**
 * Measurement state of one kernel run. Construct from the run's
 * (validated) SystemConfig, report transitions while simulating, and
 * call finish() once.
 */
class RunCollector
{
  public:
    explicit RunCollector(const SystemConfig &cfg)
        : windowStart_(cfg.warmupCycles),
          windowEnd_(cfg.warmupCycles + cfg.measureCycles),
          processorCycle_(cfg.processorCycle()), numModules_(cfg.numModules),
          perModule_(cfg.collectPerModule), latency_(cfg.collectLatency)
    {
        // Pre-sized here so the kernels' inner loops never allocate.
        const auto n = static_cast<std::size_t>(cfg.numProcessors);
        perProcCompleted_.assign(n, 0);
        if (perModule_)
            modules_.assign(static_cast<std::size_t>(cfg.numModules),
                            ModuleTally{});
        if (latency_) {
            serviceStart_.assign(n, 0);
            latWait_.emplace(makeLatencyHistogram());
            latResidence_.emplace(makeLatencyHistogram());
        }
    }

    /** First tick past the measurement window; the run stops there. */
    Tick windowEnd() const { return windowEnd_; }

    /** A processor issued a request to @p module at @p now. */
    void issue(int module, Tick now)
    {
        if (inWindow(now))
            ++issued_;
        if (perModule_)
            noteQueueDepth(module, now, +1);
    }

    /** A request left @p module's queue: an unbuffered grant, or a
     *  buffered service start (buffered grants stay queued). */
    void dequeue(int module, Tick now)
    {
        if (perModule_)
            noteQueueDepth(module, now, -1);
    }

    /** Module service began for @p proc's outstanding request. */
    void serviceStart(int proc, Tick now)
    {
        if (latency_)
            serviceStart_[static_cast<std::size_t>(proc)] = now;
    }

    /** The bus was granted for a transfer in cycle @p now. */
    void busGrant(Tick now)
    {
        if (inWindow(now))
            ++busBusy_;
    }

    /** @p module spent [start, end) accessing memory. */
    void accessSpan(int module, Tick start, Tick end)
    {
        const Tick lo = std::max(start, windowStart_);
        const Tick hi = std::min(end, windowEnd_);
        if (hi > lo) {
            accessCycles_ += hi - lo;
            if (perModule_)
                modules_[static_cast<std::size_t>(module)].busy += hi - lo;
        }
    }

    /**
     * The response to @p proc's request, issued at @p issue_tick, won
     * the bus at @p grant_tick (delivery is one cycle later). Returns
     * whether it falls in the window, i.e. counts toward the kernel's
     * wait moments.
     */
    bool completion(int proc, Tick issue_tick, Tick grant_tick)
    {
        if (!inWindow(grant_tick))
            return false;
        const auto idx = static_cast<std::size_t>(proc);
        ++completed_;
        ++perProcCompleted_[idx];
        if (latency_) {
            latWait_->add(serviceStart_[idx] - issue_tick);
            latResidence_->add(grant_tick + 1 - issue_tick);
        }
        return true;
    }

    /**
     * Fill every Metrics field except the wait moments
     * (meanWaitCycles, meanServiceCycles, waitStats), and flush the
     * issued/completed telemetry counters. Call once, after the run.
     */
    void finish(Metrics &out)
    {
        telemetryAdd(TelemetryCounter::SimRequestsIssued, issued_);
        telemetryAdd(TelemetryCounter::SimRequestsCompleted, completed_);

        out.measuredCycles = windowEnd_ - windowStart_;
        out.completedRequests = completed_;
        out.issuedRequests = issued_;
        out.busBusyCycles = busBusy_;

        const auto cycles = static_cast<double>(out.measuredCycles);
        const auto pc = static_cast<double>(processorCycle_);
        out.ebw = static_cast<double>(completed_) * pc / cycles;
        out.busUtilization = static_cast<double>(busBusy_) / cycles;
        out.ebwFromBusUtilization = out.busUtilization * pc / 2.0;
        out.meanModuleUtilization =
            static_cast<double>(accessCycles_) /
            (cycles * static_cast<double>(numModules_));
        out.processorEfficiency =
            out.ebw / static_cast<double>(perProcCompleted_.size());
        out.perProcessorCompletions = perProcCompleted_;
        out.latencyWait = latWait_;
        out.latencyResidence = latResidence_;

        // modules_ is empty unless collectPerModule.
        for (std::size_t j = 0; j < modules_.size(); ++j) {
            // Close the depth integral at the window end (delta 0).
            noteQueueDepth(static_cast<int>(j), windowEnd_, 0);
            const ModuleTally &t = modules_[j];
            out.perModuleBusyCycles.push_back(t.busy);
            out.perModuleUtilization.push_back(
                static_cast<double>(t.busy) / cycles);
            out.perModuleQueueDepthAvg.push_back(
                static_cast<double>(t.depthArea) / cycles);
            out.perModuleQueueDepthMax.push_back(t.depthMax);
        }
    }

  private:
    bool inWindow(Tick t) const
    {
        return t >= windowStart_ && t < windowEnd_;
    }

    /** Per-module accounting: busy ticks, and a queue-depth
     *  integral to which every depth change adds depth x the
     *  window-clipped span since the previous change. */
    struct ModuleTally
    {
        std::uint64_t busy = 0;
        std::uint64_t depth = 0;
        std::uint64_t depthArea = 0;
        Tick depthSince = 0;
        std::uint64_t depthMax = 0;
    };

    void noteQueueDepth(int module, Tick now, int delta)
    {
        ModuleTally &t = modules_[static_cast<std::size_t>(module)];
        const Tick lo = std::max(t.depthSince, windowStart_);
        const Tick hi = std::min(now, windowEnd_);
        if (hi > lo) {
            t.depthArea += t.depth * static_cast<std::uint64_t>(hi - lo);
            if (t.depth > t.depthMax)
                t.depthMax = t.depth;
        }
        const auto next = static_cast<std::int64_t>(t.depth) + delta;
        sbn_debug_assert(next >= 0, "module queue depth went negative");
        t.depth = static_cast<std::uint64_t>(next);
        t.depthSince = now;
    }

    const Tick windowStart_;
    const Tick windowEnd_;
    const int processorCycle_;
    const int numModules_;
    const bool perModule_;
    const bool latency_;

    std::uint64_t issued_ = 0;
    std::uint64_t busBusy_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t accessCycles_ = 0;
    std::vector<std::uint64_t> perProcCompleted_;

    std::vector<ModuleTally> modules_;

    /** Latency: serviceStart_[p] is when service began for p's
     *  outstanding request; completion() adds wait (service start -
     *  issue) and residence (delivery - issue). */
    std::vector<Tick> serviceStart_;
    std::optional<Histogram> latWait_;
    std::optional<Histogram> latResidence_;
};

} // namespace sbn

#endif // SBN_CORE_COLLECTOR_HH

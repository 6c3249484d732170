/**
 * @file
 * Run telemetry: named monotonic counters and duration timers.
 *
 * A process-wide registry of a FIXED set of counters and timers
 * (enumerated below - the enum order IS the dump order, which is what
 * makes telemetry dumps deterministic). Instrumented code calls
 * telemetryAdd() / opens a TelemetryTimerScope; both are no-ops
 * costing one predictable branch when telemetry is disabled, which is
 * the default - the kernels' inner loops keep accumulating into their
 * existing local members and flush here once per run, so enabling
 * telemetry adds no per-event work and disabling it adds no
 * allocations (asserted by the scratch-capacity perf tests).
 *
 * Every counter and timer is one process-wide relaxed atomic: callers
 * add a few times per kernel run, record or merge, never per event,
 * so the cells see no contention worth a per-thread split. Counter
 * totals are sums and do not depend on the thread partition: the same
 * config and seed produce byte-identical counter dumps at any
 * --threads value (tests/test_telemetry.cc). Timers measure wall time
 * and are NOT deterministic; formatTelemetrySnapshot() can exclude
 * them, and the determinism tests do.
 *
 * The dump format is one flat JSON object (scalar values only, the
 * same shape service/protocol.hh parses), tagged
 * "type": "sbn.telemetry.v1", with counter keys "ctr.<area>.<name>"
 * and timer keys "tmr.<area>.<name>_ns" / "_count".
 */

#ifndef SBN_TELEMETRY_TELEMETRY_HH
#define SBN_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace sbn {

/** Monotonic counters. Enum order is the canonical dump order. */
enum class TelemetryCounter : unsigned
{
    SimRuns,              //!< kernel run() calls completed
    SimHeapEvents,        //!< CycleSkip scheduled events executed
    SimCalendarDrains,    //!< CycleSkip think-calendar bucket drains
    SimThinkDraws,        //!< think/issue draws (both kernels)
    SimRequestsIssued,    //!< in-window requests issued
    SimRequestsCompleted, //!< in-window services delivered
    AdaptiveRoundsGrown,  //!< adaptive rounds beyond a point's first
    ShardRecordsWritten,  //!< point records flushed by RecordWriter
    ShardRecordsMerged,   //!< records accepted into a merge
    ShardRecordsDeduped,  //!< bit-identical duplicates dropped
    SupervisorRespawns,   //!< shard workers relaunched after a crash
    SupervisorSteals,     //!< thief launches: splits and rescues
    SupervisorHangKills,  //!< hung workers killed (liveness timeout)
};
constexpr unsigned kTelemetryCounterCount = 13;

/** Duration timers (wall time; nondeterministic by nature). */
enum class TelemetryTimer : unsigned
{
    SimRun,     //!< one kernel run(), construction excluded
    ShardMerge, //!< one record-file collection/merge pass
};
constexpr unsigned kTelemetryTimerCount = 2;

/** Canonical key of a counter ("ctr.sim.runs", ...). */
const char *telemetryCounterName(TelemetryCounter counter);

/** Canonical key stem of a timer ("tmr.sim.run", ...). */
const char *telemetryTimerName(TelemetryTimer timer);

namespace detail {
extern std::atomic<bool> g_telemetryEnabled;
extern std::atomic<std::uint64_t>
    g_telemetryCounters[kTelemetryCounterCount];
} // namespace detail

/** True when telemetry collection is on (default: off). */
inline bool
telemetryEnabled()
{
    return detail::g_telemetryEnabled.load(std::memory_order_relaxed);
}

/** Turn collection on or off, process-wide. */
void setTelemetryEnabled(bool enabled);

/** Zero every counter and timer (tests, tools, and each forked
 *  supervisor worker); call only while instrumented work is
 *  quiescent. */
void telemetryReset();

/** Add @p delta to @p counter; a cheap no-op when disabled. */
inline void
telemetryAdd(TelemetryCounter counter, std::uint64_t delta)
{
    if (!telemetryEnabled())
        return;
    detail::g_telemetryCounters[static_cast<unsigned>(counter)]
        .fetch_add(delta, std::memory_order_relaxed);
}

/** Record one timed span of @p ns nanoseconds against @p timer. */
void telemetryAddTimer(TelemetryTimer timer, std::uint64_t ns);

/**
 * RAII wall-clock span: reads the clock only when telemetry is
 * enabled at construction, and records the elapsed span at scope
 * exit. Safe to use on hot-but-not-inner paths (one run, one merge).
 */
class TelemetryTimerScope
{
  public:
    explicit TelemetryTimerScope(TelemetryTimer timer);
    ~TelemetryTimerScope();

    TelemetryTimerScope(const TelemetryTimerScope &) = delete;
    TelemetryTimerScope &operator=(const TelemetryTimerScope &) = delete;

  private:
    TelemetryTimer timer_;
    bool armed_;
    std::uint64_t startNs_ = 0;
};

/** A point-in-time view of every counter and timer. */
struct TelemetrySnapshot
{
    std::uint64_t counters[kTelemetryCounterCount] = {};
    std::uint64_t timerNs[kTelemetryTimerCount] = {};
    std::uint64_t timerCount[kTelemetryTimerCount] = {};
};

/** Read every counter and timer. */
TelemetrySnapshot telemetrySnapshot();

/**
 * One flat JSON object line (no trailing newline), keys in enum
 * order after the "type" tag. @p include_timers controls whether the
 * (nondeterministic) timer keys appear.
 */
std::string formatTelemetrySnapshot(const TelemetrySnapshot &snapshot,
                                    bool include_timers);

/** Snapshot now and write one JSON line + '\n' to @p path ("-" or
 *  empty = stderr). Fatal on I/O error. */
void writeTelemetryDump(const std::string &path, bool include_timers);

} // namespace sbn

#endif // SBN_TELEMETRY_TELEMETRY_HH

#include "telemetry/telemetry.hh"

#include <chrono>
#include <cstdio>

#include "util/logging.hh"

namespace sbn {

namespace {

const char *const kCounterNames[kTelemetryCounterCount] = {
    "ctr.sim.runs",
    "ctr.sim.heap_events",
    "ctr.sim.calendar_drains",
    "ctr.sim.think_draws",
    "ctr.sim.requests_issued",
    "ctr.sim.requests_completed",
    "ctr.exec.adaptive_rounds_grown",
    "ctr.shard.records_written",
    "ctr.shard.records_merged",
    "ctr.shard.records_deduped",
    "ctr.supervisor.respawns",
    "ctr.supervisor.steals",
    "ctr.supervisor.hang_kills",
};

const char *const kTimerNames[kTelemetryTimerCount] = {
    "tmr.sim.run",
    "tmr.shard.merge",
};

std::atomic<std::uint64_t> g_timerNs[kTelemetryTimerCount];
std::atomic<std::uint64_t> g_timerCount[kTelemetryTimerCount];

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

namespace detail {

std::atomic<bool> g_telemetryEnabled{false};
std::atomic<std::uint64_t> g_telemetryCounters[kTelemetryCounterCount];

} // namespace detail

const char *
telemetryCounterName(TelemetryCounter counter)
{
    return kCounterNames[static_cast<unsigned>(counter)];
}

const char *
telemetryTimerName(TelemetryTimer timer)
{
    return kTimerNames[static_cast<unsigned>(timer)];
}

void
setTelemetryEnabled(bool enabled)
{
    detail::g_telemetryEnabled.store(enabled,
                                     std::memory_order_relaxed);
}

void
telemetryReset()
{
    for (auto &cell : detail::g_telemetryCounters)
        cell.store(0, std::memory_order_relaxed);
    for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
        g_timerNs[i].store(0, std::memory_order_relaxed);
        g_timerCount[i].store(0, std::memory_order_relaxed);
    }
}

void
telemetryAddTimer(TelemetryTimer timer, std::uint64_t ns)
{
    if (!telemetryEnabled())
        return;
    const auto i = static_cast<unsigned>(timer);
    g_timerNs[i].fetch_add(ns, std::memory_order_relaxed);
    g_timerCount[i].fetch_add(1, std::memory_order_relaxed);
}

TelemetryTimerScope::TelemetryTimerScope(TelemetryTimer timer)
    : timer_(timer), armed_(telemetryEnabled())
{
    if (armed_)
        startNs_ = monotonicNs();
}

TelemetryTimerScope::~TelemetryTimerScope()
{
    if (armed_)
        telemetryAddTimer(timer_, monotonicNs() - startNs_);
}

TelemetrySnapshot
telemetrySnapshot()
{
    TelemetrySnapshot out;
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i)
        out.counters[i] = detail::g_telemetryCounters[i].load(
            std::memory_order_relaxed);
    for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
        out.timerNs[i] = g_timerNs[i].load(std::memory_order_relaxed);
        out.timerCount[i] =
            g_timerCount[i].load(std::memory_order_relaxed);
    }
    return out;
}

std::string
formatTelemetrySnapshot(const TelemetrySnapshot &snapshot,
                        bool include_timers)
{
    std::string out = "{\"type\":\"sbn.telemetry.v1\"";
    for (unsigned i = 0; i < kTelemetryCounterCount; ++i) {
        out += ",\"";
        out += kCounterNames[i];
        out += "\":";
        out += std::to_string(snapshot.counters[i]);
    }
    if (include_timers) {
        for (unsigned i = 0; i < kTelemetryTimerCount; ++i) {
            out += ",\"";
            out += kTimerNames[i];
            out += "_ns\":";
            out += std::to_string(snapshot.timerNs[i]);
            out += ",\"";
            out += kTimerNames[i];
            out += "_count\":";
            out += std::to_string(snapshot.timerCount[i]);
        }
    }
    out += '}';
    return out;
}

void
writeTelemetryDump(const std::string &path, bool include_timers)
{
    const std::string line =
        formatTelemetrySnapshot(telemetrySnapshot(), include_timers) +
        '\n';
    if (path.empty() || path == "-") {
        std::fputs(line.c_str(), stderr);
        return;
    }
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        sbn_fatal("cannot open telemetry dump file '", path, "'");
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size()
        || std::fclose(file) != 0)
        sbn_fatal("cannot write telemetry dump file '", path, "'");
}

} // namespace sbn

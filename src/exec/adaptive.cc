#include "exec/adaptive.hh"

#include <cmath>

#include "telemetry/telemetry.hh"
#include "trace/span.hh"
#include "util/logging.hh"

namespace sbn {

bool
PrecisionTarget::met(const Estimate &e) const
{
    if (e.samples < 2)
        return false;
    if (relative > 0.0 && e.halfWidth <= relative * std::abs(e.mean))
        return true;
    if (absolute > 0.0 && e.halfWidth <= absolute)
        return true;
    return false;
}

unsigned
RoundSchedule::targetAfterRound(unsigned round) const
{
    sbn_assert(initial >= 2, "first round needs >= 2 replications");
    sbn_assert(growth > 1.0, "round growth factor must exceed 1");
    sbn_assert(cap >= initial, "replication cap below the first round");

    // Walk the geometric sequence instead of using pow(): every round
    // must add at least one replication even when the factor rounds
    // to a no-op at small counts.
    double exact = initial;
    unsigned target = initial;
    for (unsigned j = 0; j < round; ++j) {
        exact *= growth;
        const auto grown = static_cast<unsigned>(
            std::min(exact, static_cast<double>(cap)));
        target = std::max(target + 1, grown);
        if (target >= cap)
            return cap;
    }
    return std::min(target, cap);
}

AdaptiveReplicator::AdaptiveReplicator(ParallelRunner runner,
                                       PrecisionTarget target,
                                       RoundSchedule schedule)
    : runner_(runner), target_(target), schedule_(schedule)
{
    // Validate the schedule eagerly so a bad configuration fails at
    // construction, not in the middle of a sweep.
    (void)schedule_.targetAfterRound(0);
}

std::vector<AdaptiveEstimate>
AdaptiveReplicator::runPoints(
    const std::vector<SystemConfig> &points,
    const std::function<double(const SystemConfig &, std::uint64_t)>
        &experiment,
    const PointCallback &onPoint) const
{
    const std::size_t count = points.size();
    std::vector<AdaptiveEstimate> results(count);
    if (count == 0)
        return results;

    struct PointState
    {
        ReplicationRounds rounds;
        bool final = false;
    };
    std::vector<PointState> states;
    states.reserve(count);
    for (const SystemConfig &point : points)
        states.push_back({ReplicationRounds(point.seed, target_.level),
                          false});

    // One flat work item per new replication this round; grouped by
    // point in grid order so the post-round accumulation below walks
    // values in replication order per point.
    struct Item
    {
        std::size_t point;
        std::uint64_t seed;
    };

    const TraceContext traceCtx = inheritedTraceContext();
    std::size_t emit_cursor = 0;
    std::size_t open_points = count;
    for (unsigned round = 0; open_points != 0; ++round) {
        const std::uint64_t roundStartUs = traceNowMicros();
        const unsigned target = schedule_.targetAfterRound(round);

        std::vector<Item> items;
        std::vector<std::size_t> ext_begin(count, 0);
        std::vector<std::size_t> ext_size(count, 0);
        for (std::size_t i = 0; i < count; ++i) {
            if (states[i].final)
                continue;
            ext_begin[i] = items.size();
            for (std::uint64_t seed :
                 states[i].rounds.seedsForExtension(target))
                items.push_back({i, seed});
            ext_size[i] = items.size() - ext_begin[i];
        }

        // The parallel phase: map (point, seed) -> value by slot.
        std::vector<double> values = runner_.map<double>(
            items.size(), [&](std::size_t k) {
                return experiment(points[items[k].point],
                                  items[k].seed);
            });

        // Serial phase, grid order: fold each point's extension in,
        // decide convergence, and stream out every prefix of newly
        // finalized points.
        for (std::size_t i = 0; i < count; ++i) {
            if (states[i].final)
                continue;
            PointState &state = states[i];
            const auto begin =
                values.begin() +
                static_cast<std::ptrdiff_t>(ext_begin[i]);
            state.rounds.accept(std::vector<double>(
                begin, begin + static_cast<std::ptrdiff_t>(
                                   ext_size[i])));

            AdaptiveEstimate &out = results[i];
            out.rounds = round + 1;
            out.estimate = state.rounds.estimate();
            out.converged = target_.met(out.estimate);
            if (out.converged ||
                state.rounds.completed() >= schedule_.cap) {
                state.final = true;
                --open_points;
                // Counted at finalization in the serial phase, so the
                // total never depends on the thread partition.
                telemetryAdd(TelemetryCounter::AdaptiveRoundsGrown,
                             out.rounds - 1);
            }
        }

        while (emit_cursor < count && states[emit_cursor].final) {
            if (onPoint)
                onPoint(emit_cursor, points[emit_cursor],
                        results[emit_cursor]);
            ++emit_cursor;
        }

        // One span per grown round: the timeline shows how the work
        // tapers as points converge.
        traceEmitSpan(traceCtx, "adaptive_round",
                      "adaptive round " + std::to_string(round),
                      traceCtx.spanId, roundStartUs, traceNowMicros(),
                      {{"round", std::to_string(round)},
                       {"replications", std::to_string(items.size())},
                       {"open_points",
                        std::to_string(open_points)}});
    }
    return results;
}

} // namespace sbn

#include "shard/merge.hh"

#include <memory>

#include "core/fingerprint.hh"
#include "shard/fault.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace sbn {

MergeCheck
sweepMergeCheck(const std::vector<SystemConfig> &points)
{
    MergeCheck check;
    check.gridSize = points.size();
    check.expectedRunFp.reserve(points.size());
    for (const SystemConfig &point : points)
        check.expectedRunFp.push_back(sweepRunFingerprint(
            configFingerprint(point), point.collectLatency));
    return check;
}

MergeCheck
adaptiveMergeCheck(const std::vector<SystemConfig> &points,
                   const PrecisionTarget &target,
                   const RoundSchedule &schedule)
{
    MergeCheck check;
    check.gridSize = points.size();
    check.expectedRunFp.reserve(points.size());
    for (const SystemConfig &point : points)
        check.expectedRunFp.push_back(adaptiveRunFingerprint(
            configFingerprint(point), target, schedule));
    return check;
}

MergeCheck
structuralMergeCheck(std::size_t grid_size)
{
    MergeCheck check;
    check.gridSize = grid_size;
    return check;
}

std::string
shardFilePath(const std::string &dir, const ShardSpec &shard)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "shard-" + std::to_string(shard.index) + "-of-" +
            std::to_string(shard.count) + ".jsonl";
    return path;
}

std::vector<std::string>
shardFilePaths(const std::string &dir, std::size_t shard_count)
{
    sbn_assert(shard_count >= 1, "need at least one shard file");
    std::vector<std::string> paths;
    paths.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i)
        paths.push_back(shardFilePath(dir, {i, shard_count}));
    return paths;
}

PartialMerge
collectRecordFiles(const std::vector<std::string> &paths,
                   const MergeCheck &check, bool tolerate_partial_tail)
{
    sbn_assert(check.expectedRunFp.empty() ||
                   check.expectedRunFp.size() == check.gridSize,
               "merge check fingerprint list does not match the grid");
    faultMaybeAbortInMerge();

    TelemetryTimerScope timer(TelemetryTimer::ShardMerge);
    std::uint64_t merged = 0;
    std::uint64_t deduped = 0;
    std::vector<std::unique_ptr<PointRecord>> slots(check.gridSize);
    for (const std::string &path : paths) {
        const std::vector<PointRecord> records =
            readRecordFile(path, tolerate_partial_tail);
        for (const PointRecord &record : records) {
            if (record.flatIndex >= check.gridSize)
                sbn_fatal("merge: record in '", path,
                          "' addresses flat index ", record.flatIndex,
                          " outside the ", check.gridSize,
                          "-point grid");
            if (!check.expectedRunFp.empty() &&
                record.runFp !=
                    check.expectedRunFp[record.flatIndex])
                sbn_fatal(
                    "merge: record for flat index ", record.flatIndex,
                    " in '", path, "' carries run fingerprint ",
                    formatFingerprint(record.runFp),
                    " but the sweep expects ",
                    formatFingerprint(
                        check.expectedRunFp[record.flatIndex]),
                    " - it belongs to a different grid, seed, or "
                    "precision setup, or to a run with the other "
                    "--latency setting");
            if (!check.expectedRunFp.empty() &&
                !record.latencyMatchesRunFp())
                sbn_fatal("merge: record for flat index ",
                          record.flatIndex, " in '", path,
                          "' has a lat_* group its run fingerprint "
                          "does not name - a latency record written "
                          "before latency records got their own run "
                          "fingerprint; recompute it with --resume");
            auto &slot = slots[record.flatIndex];
            if (slot) {
                if (!slot->bitIdentical(record))
                    sbn_fatal(
                        "merge: flat index ", record.flatIndex,
                        " appears twice with different contents "
                        "(second copy in '", path,
                        "') - determinism guarantees duplicates are "
                        "bit-identical, so one of the files is "
                        "corrupt or from a different run");
                ++deduped;
                continue; // benign recomputation, keep the first copy
            }
            slot = std::make_unique<PointRecord>(record);
            ++merged;
        }
    }
    telemetryAdd(TelemetryCounter::ShardRecordsMerged, merged);
    telemetryAdd(TelemetryCounter::ShardRecordsDeduped, deduped);

    PartialMerge result;
    result.records.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i])
            result.records.push_back(*slots[i]);
        else
            result.missing.push_back(i);
    }
    return result;
}

std::string
describeMissingPoints(const MergeCheck &check,
                      const std::vector<std::size_t> &missing)
{
    // Group the exact missing indices by the shard file expected to
    // own them, so the operator knows which worker command to rerun,
    // not just that the grid has holes. Without shard attribution
    // everything lands in one anonymous group.
    constexpr std::size_t kMaxPerGroup = 32;
    const bool attributed = check.shardCount != 0;
    const std::size_t groups = attributed ? check.shardCount : 1;
    std::vector<std::vector<std::size_t>> byOwner(groups);
    if (attributed) {
        const ShardPlan plan(check.gridSize, check.shardCount,
                             check.layout);
        for (std::size_t index : missing)
            byOwner[plan.owner(index)].push_back(index);
    } else {
        byOwner[0] = missing;
    }

    std::string out;
    for (std::size_t owner = 0; owner < groups; ++owner) {
        const std::vector<std::size_t> &holes = byOwner[owner];
        if (holes.empty())
            continue;
        if (!out.empty())
            out += "; ";
        if (attributed)
            out += shardFilePath(check.dir,
                                 {owner, check.shardCount});
        else
            out += "unattributed";
        out += ": " + std::to_string(holes.size()) +
               " missing (indices ";
        for (std::size_t k = 0; k < holes.size(); ++k) {
            if (k == kMaxPerGroup) {
                out += ", ...";
                break;
            }
            if (k != 0)
                out += ", ";
            out += std::to_string(holes[k]);
        }
        out += ")";
    }
    return out;
}

std::vector<PointRecord>
mergeRecordFiles(const std::vector<std::string> &paths,
                 const MergeCheck &check)
{
    PartialMerge collected = collectRecordFiles(
        paths, check, /*tolerate_partial_tail=*/false);
    if (!collected.missing.empty())
        sbn_fatal("merge: ", collected.missing.size(), " of ",
                  check.gridSize, " grid points have no record - ",
                  describeMissingPoints(check, collected.missing),
                  " - did every shard finish?");
    return std::move(collected.records);
}

void
writeRecords(std::ostream &os, const std::vector<PointRecord> &records)
{
    for (const PointRecord &record : records)
        os << formatRecord(record) << '\n';
}

} // namespace sbn

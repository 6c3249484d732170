#include "shard/runner.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "core/fingerprint.hh"
#include "util/logging.hh"

namespace sbn {

ShardRunStats
runShardPoints(const std::vector<std::size_t> &subset,
               const std::vector<std::uint64_t> &expectedRunFp,
               const std::string &path, bool resume,
               const ShardCompute &compute)
{
    ShardRunStats stats;
    stats.owned = subset.size();

    // A previous worker may have died mid-rewrite, leaving a stale
    // partial '<file>.tmp.<pid>' next to the record file. The rename
    // never happened, so the temp holds nothing the record file does
    // not; discard it rather than let temps accumulate.
    if (resume)
        removeStaleRewriteTemps(path);

    // Resume: harvest usable records. Only records that address a
    // subset point, carry the exact run fingerprint the sweep expects
    // there, and carry the lat_* group exactly when that fingerprint
    // says so survive. Track whether the file on disk is
    // *exactly* the kept records in ascending order - the common
    // clean-resume case - because then it can be appended to in
    // place, preserving the "a kill loses at most the line being
    // written" durability bound with no rewrite at all.
    std::map<std::size_t, PointRecord> kept;
    bool file_is_kept_canonical = false;
    if (resume) {
        const std::vector<PointRecord> parsed =
            readRecordFile(path, /*tolerate_partial_tail=*/true);
        bool dropped = false;
        bool sorted = true;
        for (const PointRecord &record : parsed) {
            if (record.flatIndex >= expectedRunFp.size() ||
                !std::binary_search(subset.begin(), subset.end(),
                                    record.flatIndex)) {
                sbn_warn("resume: dropping record for flat index ",
                         record.flatIndex, " in '", path,
                         "' - it is not one of the ", subset.size(),
                         " point(s) this file covers");
                dropped = true;
                continue;
            }
            const std::uint64_t expected =
                expectedRunFp[record.flatIndex];
            if (record.runFp != expected) {
                sbn_warn("resume: dropping stale record for flat "
                         "index ",
                         record.flatIndex, " in '", path,
                         "' - run fingerprint ",
                         formatFingerprint(record.runFp),
                         " does not match the current sweep (",
                         formatFingerprint(expected), ")");
                dropped = true;
                continue;
            }
            if (!record.latencyMatchesRunFp()) {
                sbn_warn("resume: dropping stale record for flat "
                         "index ",
                         record.flatIndex, " in '", path,
                         "' - its lat_* group presence differs from "
                         "the run's (a latency record written before "
                         "latency records got their own run "
                         "fingerprint)");
                dropped = true;
                continue;
            }
            const auto slot = kept.find(record.flatIndex);
            if (slot != kept.end()) {
                if (!slot->second.bitIdentical(record))
                    sbn_fatal("resume: '", path,
                              "' holds two different records for "
                              "flat index ",
                              record.flatIndex,
                              " with matching fingerprints - the "
                              "file is corrupt");
                dropped = true; // benign duplicate, still a rewrite
                continue;
            }
            if (!kept.empty() &&
                record.flatIndex < kept.rbegin()->first)
                sorted = false;
            kept.emplace(record.flatIndex, record);
        }
        if (!dropped && sorted) {
            // Nothing was filtered and the order is canonical; the
            // fast path needs the file to be *byte-wise* exactly the
            // kept records' deterministic serialization. Size alone
            // is not enough - the parser accepts non-canonical but
            // bit-equivalent decimal spellings (e.g. "3.0" for "3"),
            // so compare the actual bytes.
            std::string canonical;
            for (const auto &entry : kept) {
                canonical += formatRecord(entry.second);
                canonical += '\n';
            }
            std::ifstream probe(path, std::ios::binary);
            if (probe.good()) {
                std::ostringstream actual;
                actual << probe.rdbuf();
                file_is_kept_canonical = actual.str() == canonical;
            }
        }
    }
    stats.skipped = kept.size();

    // Make the file state "kept records, canonical order": in place
    // when it already is, else via an atomic temp+rename replacement
    // (a crash mid-rewrite exposes the old file or the new one,
    // never a half-written mix).
    if (!file_is_kept_canonical) {
        std::vector<PointRecord> kept_sorted;
        kept_sorted.reserve(kept.size());
        for (const auto &entry : kept)
            kept_sorted.push_back(entry.second);
        rewriteRecordsAtomic(path, kept_sorted);
    }

    // Stream the missing points in increasing-index order behind the
    // kept block, one flushed line per completed point.
    RecordWriter writer(path, /*append=*/true);

    std::vector<std::size_t> missing;
    missing.reserve(subset.size() - kept.size());
    for (std::size_t index : subset)
        if (kept.find(index) == kept.end())
            missing.push_back(index);

    compute(missing, writer);
    stats.computed = writer.written();

    // A resume that skipped points out of order (kept = {0, 2},
    // computed = {1, 3}) appended behind the kept block; restore
    // flat-index order (atomically) so a resumed file is
    // byte-identical to an uninterrupted run's.
    if (!kept.empty() && !missing.empty() &&
        missing.front() < kept.rbegin()->first) {
        std::vector<PointRecord> all =
            readRecordFile(path, /*tolerate_partial_tail=*/false);
        std::sort(all.begin(), all.end(),
                  [](const PointRecord &a, const PointRecord &b) {
                      return a.flatIndex < b.flatIndex;
                  });
        rewriteRecordsAtomic(path, all);
    }
    return stats;
}

} // namespace sbn

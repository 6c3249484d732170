/**
 * @file
 * Writing a subset of a sweep's points to a record file, with resume.
 *
 * runShardPoints() drives one record file - an owned shard's
 * canonical file or a thief's own file - through the points a
 * caller-supplied compute step produces, flushing one PointRecord per
 * finished point so a killed worker loses at most the line it was
 * writing. What a point computes (plain or adaptive) is the compute
 * step's business (service/sweeprun's runSweepPoints); this layer only
 * owns the file.
 *
 * Resume (@p resume = true) first reads the existing file leniently
 * (a truncated final line - the kill artifact - is dropped), keeps
 * every record whose run fingerprint matches the point the sweep
 * expects at that index, and only computes the points still missing.
 * Records from a different grid, seed or precision setup never match
 * and are discarded with a warning, so a stale file cannot poison a
 * resumed run. A clean file (exactly the kept records, canonical
 * order - the common case) is appended to in place; otherwise -
 * including every fresh start - the file is first replaced via an
 * atomic temp+rename rewrite, so the durability bound above survives
 * crashes at any point and a finished resumed file is byte-identical
 * to an uninterrupted run's.
 */

#ifndef SBN_SHARD_RUNNER_HH
#define SBN_SHARD_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "shard/result_io.hh"

namespace sbn {

/** What one record-file run did. */
struct ShardRunStats
{
    std::size_t owned = 0;    //!< points the run is responsible for
    std::size_t skipped = 0;  //!< satisfied by resumed records
    std::size_t computed = 0; //!< freshly simulated this run
};

/**
 * Computes the records of @p missing (strictly increasing flat
 * indices), or of a prefix whose rest moved to a thief, and appends
 * them to @p writer in increasing-index order.
 */
using ShardCompute = std::function<void(
    const std::vector<std::size_t> &missing, RecordWriter &writer)>;

/**
 * Make @p path hold exactly one record per flat index of @p subset
 * (strictly increasing), in flat-index order.
 *
 * @param expectedRunFp per-point run fingerprints of the whole grid
 *                      (MergeCheck::expectedRunFp), indexed by flat
 *                      index; a resumed record survives only if it
 *                      addresses a subset point and carries exactly
 *                      that point's fingerprint
 * @param resume        keep matching records already in @p path;
 *                      false starts the file empty
 * @param compute       produces the points resume did not satisfy
 */
ShardRunStats runShardPoints(const std::vector<std::size_t> &subset,
                             const std::vector<std::uint64_t> &expectedRunFp,
                             const std::string &path, bool resume,
                             const ShardCompute &compute);

} // namespace sbn

#endif // SBN_SHARD_RUNNER_HH

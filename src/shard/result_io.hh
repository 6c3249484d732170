/**
 * @file
 * Serialized per-point sweep results: one self-describing JSONL
 * record per completed grid point.
 *
 * Records are the unit of exchange between shard workers, the merge
 * layer and resume: a worker appends one line per finished point; a
 * resumed worker skips points whose records already exist and
 * fingerprint-match; the merger reassembles shard files into the
 * flat-grid ordered stream.
 *
 * Every double is written twice: a %.17g decimal (human-readable,
 * round-trips exactly) and the raw IEEE-754 bit pattern ("0x%016x").
 * The bits are authoritative - parsing validates that the decimal
 * re-parses to the same bit pattern - which is what lets the merged
 * stream be *bit*-identical to the single-process run rather than
 * merely close. The record layout itself is deterministic (fixed key
 * order, fixed number formatting), so the same point always
 * serializes to the same bytes no matter which shard, process or host
 * computed it.
 */

#ifndef SBN_SHARD_RESULT_IO_HH
#define SBN_SHARD_RESULT_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/adaptive.hh"

namespace sbn {

/** Execution mode a record was produced under. */
enum class RunMode
{
    Sweep,    //!< one seeded run per point (plain sweep)
    Adaptive, //!< adaptive-precision replications per point
};

/** Canonical record name of a mode ("sweep" / "adaptive"). */
const char *runModeName(RunMode mode);

/**
 * One completed grid point, as serialized to a shard file.
 *
 * Provenance fields: flatIndex addresses the point in the documented
 * SweepSpec grid order; configFp is configFingerprint() of the
 * materialized point (including its seed - the seed provenance);
 * runFp additionally mixes in the run mode and, for adaptive runs,
 * the PrecisionTarget/RoundSchedule, so records from a different
 * experiment setup never silently satisfy a resume or merge.
 */
struct PointRecord
{
    std::size_t flatIndex = 0;
    std::uint64_t configFp = 0;
    std::uint64_t runFp = 0;
    std::uint64_t masterSeed = 0;    //!< the point's config.seed
    RunMode mode = RunMode::Sweep;

    /**
     * Canonical workload serialization (formatWorkload) of the
     * point's config - human-readable provenance of the scenario the
     * value was computed under. The config fingerprint already binds
     * the workload cryptographically; this names it.
     */
    std::string workload = "uniform";

    std::uint64_t replications = 0;  //!< runs behind the value (>= 1)
    std::uint32_t rounds = 0;        //!< adaptive rounds (0 for sweep)
    bool converged = true;           //!< false: adaptive cap reached
    double mean = 0.0;               //!< point value / estimate mean
    double halfWidth = 0.0;          //!< CI half-width (0 for sweep)

    /**
     * Latency quantile summary (sbn.point.v3): present on plain-sweep
     * records produced with config.collectLatency. Optional in the
     * record grammar - latency-off records omit the lat_* keys
     * entirely, keeping their byte layout v2-shaped apart from the
     * type tag.
     */
    bool hasLatency = false;
    LatencySummary latency;

    /** Field-wise equality with doubles compared bit-for-bit. */
    bool bitIdentical(const PointRecord &other) const;

    /**
     * Whether the lat_* group's presence agrees with the run
     * fingerprint: a sweep record carries the group exactly when its
     * run fingerprint is the latency one, an adaptive record never.
     * A latency record written before latency records got their own
     * run fingerprint fails this; resume drops it and merge refuses
     * it.
     */
    bool latencyMatchesRunFp() const;
};

/**
 * Run fingerprint of a plain sweep over the point with @p config_fp.
 * A run that collects latency mixes in the latency binning rule
 * (Histogram::kBinningRule), so latency-on and latency-off records,
 * and quantiles binned under different rules, never resume or merge
 * together. Without latency it is the rule-free fingerprint every
 * latency-off record has always carried.
 */
std::uint64_t sweepRunFingerprint(std::uint64_t config_fp, bool latency);

/** Run fingerprint of an adaptive run (mixes target + schedule). */
std::uint64_t adaptiveRunFingerprint(std::uint64_t config_fp,
                                     const PrecisionTarget &target,
                                     const RoundSchedule &schedule);

/** The record of one plain-sweep point (reps 1, half-width 0): the
 *  sample's EBW, plus its latency summary when it collected one. */
PointRecord makeSweepRecord(std::size_t flat_index,
                            const SystemConfig &config,
                            const PointSample &sample);

/** The record of one adaptive-precision point. */
PointRecord makeAdaptiveRecord(std::size_t flat_index,
                               const SystemConfig &config,
                               const AdaptiveEstimate &estimate,
                               const PrecisionTarget &target,
                               const RoundSchedule &schedule);

/** Serialize to the canonical one-line JSON form (no newline). */
std::string formatRecord(const PointRecord &record);

/**
 * Parse one record line. Strict: the line must be a flat JSON object
 * carrying exactly the expected keys (any order), with types, the
 * "sbn.point.v3" type tag, a known mode, and decimal/bit double pairs
 * that agree. The lat_* latency keys are the one optional group: all
 * present (and consistent) or all absent. On failure returns false
 * and sets @p error.
 */
bool parseRecord(const std::string &line, PointRecord &out,
                 std::string &error);

/**
 * Read every record of a shard file.
 *
 * In strict mode (@p tolerate_partial_tail false) any malformed line
 * is fatal, naming the file and line number. With
 * @p tolerate_partial_tail true, a malformed *final* line is dropped
 * with a warning instead - a worker killed mid-append leaves exactly
 * that artifact, and resume must be able to pick up behind it; a
 * malformed line elsewhere is still fatal.
 *
 * A nonexistent file is fatal in strict mode and reads as empty (a
 * fresh shard has no file yet) otherwise; a file that exists but
 * cannot be opened is fatal in both modes, so a permissions or I/O
 * error can never make a resume silently restart from zero.
 */
std::vector<PointRecord> readRecordFile(const std::string &path,
                                        bool tolerate_partial_tail);

/**
 * Atomically replace @p path with exactly @p records (one line
 * each, given order): writes a process-unique temp file
 * (path+".tmp.<pid>"), fsync()s it, then rename()s it over the
 * original, so a crash mid-rewrite leaves either the old file or the
 * new one - never a half-written mix - and the new file's bytes are
 * durable before they become visible under the canonical name. Used
 * by resume's cleanup rewrites, which must not weaken the "a kill
 * loses at most the line being written" durability bound.
 */
void rewriteRecordsAtomic(const std::string &path,
                          const std::vector<PointRecord> &records);

/** write() all @p size bytes of @p data to @p fd, riding out EINTR;
 *  false on any other error (errno says which). */
bool writeAll(int fd, const char *data, std::size_t size);

/**
 * Atomically publish @p content as @p path, the way
 * rewriteRecordsAtomic() publishes records: a process-unique temp
 * file (path+".tmp.<pid>"), fsync()ed, rename()d over @p path, then
 * the parent directory fsync()ed (best effort) so the rename is
 * durable too. A reader sees the old file or the whole new one, and
 * the new bytes are durable before they become visible. Fatal on any
 * write or rename error. Used for small whole-file state: the
 * missing-points manifest and the daemon's port and heartbeat files.
 */
void atomicWriteFile(const std::string &path, const std::string &content);

/**
 * Remove leftover rewrite temp files of @p path (path+".tmp*"): the
 * artifact of a process killed between opening the temp and the
 * rename. Resume calls this before touching the shard file, so a
 * crashed rewrite can never accumulate stale partials beside the
 * canonical file. Best-effort; returns the number removed.
 */
std::size_t removeStaleRewriteTemps(const std::string &path);

/**
 * Create @p dir if needed and prove it is a writable directory by
 * creating (and removing) a probe file inside it. Fatal with a
 * clear diagnostic otherwise - shard runs must fail *before* any
 * point computes, not mid-run at the first record write.
 */
void ensureWritableShardDir(const std::string &dir);

/**
 * Append-style record writer: one add() = one unbuffered line write,
 * so a record is either fully on disk or (on a crash mid-write) a
 * truncated final line that lenient reads drop. Writes through a raw
 * descriptor (no stdio buffer), which is also where the fault plane
 * (shard/fault.hh) injects write failures and record-boundary kills.
 */
class RecordWriter
{
  public:
    /** Opens @p path (append when @p append, else truncate). Fatal on
     *  failure to open. */
    RecordWriter(const std::string &path, bool append);

    ~RecordWriter();

    RecordWriter(const RecordWriter &) = delete;
    RecordWriter &operator=(const RecordWriter &) = delete;

    /** Serialize + write one record. Fatal on write error. */
    void add(const PointRecord &record);

    /** fsync() the file. Fatal on failure. */
    void sync();

    const std::string &path() const { return path_; }
    std::size_t written() const { return written_; }

  private:
    std::string path_;
    int fd_ = -1;
    std::size_t written_ = 0;
};

} // namespace sbn

#endif // SBN_SHARD_RESULT_IO_HH

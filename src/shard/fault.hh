/**
 * @file
 * Deterministic fault injection for the sharded-sweep stack.
 *
 * The fault plane lets tests and CI kill shard workers at exact
 * record boundaries, tear JSONL tails the way a real kill does,
 * simulate write failures, wedge a worker (liveness testing), and
 * crash the merge stage - all reproducibly, from the environment:
 *
 *   SBN_FAULT=shard=1,kill_after_records=3,truncate_tail=40
 *
 * Grammar: comma-separated clauses.
 *
 *   shard=K | shard=any        which worker the fault targets. "any"
 *                              matches every process, including the
 *                              orchestrator (needed by
 *                              abort_in_merge). Default: any.
 *   attempt=A | attempt=any    which launch attempt fires the fault
 *                              (0 = the first). A supervised respawn
 *                              raises the attempt, so the default
 *                              attempt=0 kills only the first launch
 *                              and the retry runs clean; attempt=any
 *                              crashes every attempt, which is how
 *                              retry-budget exhaustion is tested.
 *   kill_after_records=K       after appending the K-th record, die
 *                              by SIGKILL (no cleanup, no flushed
 *                              buffers - the honest crash).
 *   truncate_tail=B            modifier for kill_after_records: just
 *                              before dying, append the first B bytes
 *                              of the last record as a torn extra
 *                              line, the artifact of a kill
 *                              mid-append.
 *   hang_after_records=K       after appending the K-th record, stop
 *                              making progress forever (liveness /
 *                              hang-timeout testing).
 *   fail_write_at=N            the N-th record append (1-based)
 *                              reports a simulated write error
 *                              through the normal fatal path.
 *   abort_in_merge             abort() at the start of
 *                              mergeRecordFiles().
 *
 * Service-level faults (the sbn_sweepd job plane, docs/service.md):
 *
 *   crash_after_journal=STATE  die by SIGKILL immediately after the
 *                              job journal durably records a
 *                              transition to STATE (submitted,
 *                              running, merging, done, failed,
 *                              cancelled) - the kill-anywhere probe
 *                              for daemon crash recovery. Fires in
 *                              the process that appends the journal
 *                              line (the daemon).
 *   crash_in_merge             die by SIGKILL at the start of a job
 *                              runner's merge/publish stage - after
 *                              every shard completed, before the
 *                              merged result becomes visible.
 *   stall_accept               wedge the daemon's accept loop
 *                              forever: the process stays alive but
 *                              stops serving, which is what makes
 *                              the heartbeat file go stale
 *                              (watchdog testing).
 *
 * The plane is entirely opt-in: with SBN_FAULT unset every hook is a
 * cheap no-op. Worker processes declare their identity with
 * setFaultProcessScope() (the supervisor does this in the child right
 * after fork; `sbn_sweep --shard=i/N` does it from the CLI spec), and
 * a fault clause only fires in processes whose scope it names.
 */

#ifndef SBN_SHARD_FAULT_HH
#define SBN_SHARD_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace sbn {

/** Environment variable holding the fault grammar. */
extern const char *const kFaultEnvVar;

/** shard=any / attempt=any wildcard values. */
constexpr std::size_t kFaultAnyShard =
    std::numeric_limits<std::size_t>::max();
constexpr unsigned kFaultAnyAttempt =
    std::numeric_limits<unsigned>::max();

/** Scope value of a process that is not a shard worker. */
constexpr std::size_t kFaultNoShard =
    std::numeric_limits<std::size_t>::max() - 1;

/** One parsed SBN_FAULT plan. Inactive default = every hook no-ops. */
struct FaultPlan
{
    bool active = false;
    std::size_t shard = kFaultAnyShard; //!< target worker, or any
    unsigned attempt = 0;               //!< target attempt, or any
    std::uint64_t killAfterRecords = 0; //!< 0 = off
    std::uint64_t truncateTail = 0;     //!< torn-line bytes at kill
    std::uint64_t hangAfterRecords = 0; //!< 0 = off
    std::uint64_t failWriteAt = 0;      //!< 1-based ordinal; 0 = off
    bool abortInMerge = false;

    // Service-level faults (sbn_sweepd).
    std::string crashAfterJournal; //!< job state name; empty = off
    bool crashInMerge = false;     //!< SIGKILL the job runner's merge
    bool stallAccept = false;      //!< wedge the daemon accept loop
};

/**
 * Parse the SBN_FAULT grammar. Returns false and sets @p error on a
 * malformed spec (unknown clause, bad number, truncate_tail without
 * kill_after_records). An empty string parses to an inactive plan.
 */
bool parseFaultPlan(const std::string &text, FaultPlan &out,
                    std::string &error);

/**
 * The process's current fault plan: SBN_FAULT parsed fresh from the
 * environment (hooks fire at record-append frequency, where a getenv
 * plus a tiny parse is noise next to the write+flush). Fatal on a
 * malformed value - a typo must not silently disable an injected
 * fault and let a test pass vacuously.
 */
FaultPlan currentFaultPlan();

/**
 * Declare what this process is, for fault targeting: shard index (or
 * kFaultNoShard) and launch attempt. The supervisor calls this in the
 * forked child; sbn_sweep's --shard path calls it with the CLI spec
 * and attempt 0.
 */
void setFaultProcessScope(std::size_t shard_index, unsigned attempt);

/** True when @p plan targets this process (shard + attempt match). */
bool faultArmed(const FaultPlan &plan);

/**
 * Record-append hook, called by RecordWriter just before writing its
 * @p ordinal-th record (1-based). Returns true when the write must
 * fail as if the device had (fail_write_at).
 */
bool faultInjectWriteFailure(std::size_t ordinal);

/**
 * Record-boundary hook, called by RecordWriter right after record
 * @p ordinal (1-based) is durably on disk. @p line is the serialized
 * record just written and @p fd the open descriptor. Implements
 * kill_after_records (+ truncate_tail) and hang_after_records; does
 * not return when the fault fires.
 */
void faultAtRecordBoundary(std::size_t ordinal, const std::string &line,
                           int fd);

/** Merge-stage hook (abort_in_merge): abort()s when armed. */
void faultMaybeAbortInMerge();

/**
 * The journal-state names crash_after_journal= accepts. Mirrors the
 * sbn_sweepd job lifecycle (service/journal.hh); the two lists are
 * pinned against each other by tests/test_service.cc, since this
 * layer must not depend on the service layer.
 */
extern const char *const kFaultJournalStates[6];

/**
 * Journal hook, called by the job journal right after a transition
 * to @p state is durably on disk (fsync'ed). Implements
 * crash_after_journal=STATE; does not return when the fault fires.
 */
void faultAfterJournalState(const char *state);

/** Job-runner merge/publish hook (crash_in_merge): SIGKILLs this
 *  process when armed - the shards are done, the result is not yet
 *  visible. */
void faultMaybeCrashInMerge();

/** Daemon accept-loop hook (stall_accept): hangs forever when armed,
 *  leaving the process alive but unresponsive. */
void faultMaybeStallAccept();

} // namespace sbn

#endif // SBN_SHARD_FAULT_HH

/**
 * @file
 * Fault-tolerant supervision of a sharded-sweep worker fleet.
 *
 * ShardSupervisor owns the worker processes of a multi-shard sweep:
 * it forks one worker per shard, watches them, and drives a per-task
 * state machine
 *
 *     Pending -> Running -> Done
 *                   |  \
 *                   |   (crash / hang) -> Backoff -> Running ...
 *                   |                        |
 *                   |                        (budget spent)
 *                   v                        v
 *                  Done                  Exhausted
 *
 * with three mechanisms layered on the shard layer's determinism
 * contract (docs/sharding.md):
 *
 *  - **Retry with capped exponential backoff.** A worker that exits
 *    nonzero or dies on a signal is re-forked with resume semantics:
 *    it keeps every record the dead one flushed and recomputes only
 *    the missing points, within a bounded retry budget.
 *  - **Liveness via record-file progress.** A worker whose record
 *    file has not grown within the hang timeout is declared hung,
 *    SIGKILLed, and retried like a crash. The progress signal is the
 *    output itself, so a worker alive but wedged is caught too.
 *  - **Work splitting.** A worker claims each point in its task's
 *    PointClaim word before starting it. A free slot takes the upper
 *    half of the unstarted points of the task with the most of them:
 *    a *thief* with a word and a record file of its own. Every point
 *    is computed once. The points an exhausted task lost, found from
 *    the record files, go to a thief too.
 *
 * Points that nothing could cover are listed in the report;
 * writeMissingPointsManifest() persists them, and the orchestrator
 * emits the merged partial output with kPartialResultExit.
 *
 * The supervisor is policy; execution stays in the worker body
 * callback, which runs in the forked child (for sbn_sweep,
 * runShardPoints over the task's points through runSweepPoints). The
 * fault plane (shard/fault.hh) targets workers by the scope the
 * supervisor sets in each child, which is how ctest and CI exercise
 * every one of these paths on purpose.
 */

#ifndef SBN_SHARD_SUPERVISOR_HH
#define SBN_SHARD_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "shard/merge.hh"
#include "shard/plan.hh"
#include "trace/span.hh"
#include "util/exit_codes.hh" // kPartialResultExit lives there now

namespace sbn {

/** Lifecycle of one shard under supervision. */
enum class ShardState
{
    Pending,   //!< not yet launched
    Running,   //!< worker process alive
    Backoff,   //!< failed; waiting out the backoff delay
    Done,      //!< worker exited 0
    Exhausted, //!< retry budget spent without success
};

/** Canonical lowercase name of a ShardState. */
const char *shardStateName(ShardState state);

/**
 * Which of a task's points its worker may still start, shared by the
 * worker and the supervisor in memory mapped before the first fork.
 * One lock-free word packs two flat indices: `next`, one past the
 * highest index the task has started, and `end`, the exclusive bound.
 * A claim raises `next`; a split lowers `end`, never below `next`, so
 * each point is started by exactly one task.
 */
class PointClaim
{
  public:
    explicit PointClaim(std::size_t end) : word_(end) {} //!< none started

    /** Worker side: true when @p index < end, raising next to at least
     *  index + 1. A refused index and every larger one belong to a
     *  thief. Threads may claim out of order: next is a high mark. */
    bool claim(std::size_t index);

    /** How many of @p list (strictly increasing) lie in [next, end). */
    std::size_t unstarted(const std::vector<std::size_t> &list) const;

    /** Supervisor side: of the k unstarted points of @p list, keep the
     *  lower ceil(k/2) and return the upper floor(k/2) for a thief;
     *  nothing when k < 2. */
    std::vector<std::size_t> split(const std::vector<std::size_t> &list);

    std::size_t next() const { return word_.load() >> 32; }
    std::size_t end() const { return word_.load() & 0xffffffffu; }

  private:
    static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                  "a claim word must be address-free across fork");
    std::atomic<std::uint64_t> word_; //!< next << 32 | end
};

/** One unit of work executed in a forked child: a shard (canonical
 *  shard file) or a thief (its own file), resumed on respawn. */
struct WorkerTask
{
    bool steal = false;
    ShardSpec shard;                 //!< the shard (unused by a thief)
    std::vector<std::size_t> points; //!< flat indices, increasing
    std::string outPath;             //!< record file this task writes
    unsigned attempt = 0;            //!< prior launches of this task
    PointClaim *claim = nullptr;     //!< null: compute every point
};

/**
 * Executes a WorkerTask in the forked child. Must write one record
 * per computed point to task.outPath and return normally on success;
 * any exception (or process death) is a worker failure. Runs after
 * fork: single-threaded, must build its own execution resources.
 */
using WorkerBody = std::function<void(const WorkerTask &)>;

/** Supervision policy knobs. */
struct SupervisorConfig
{
    std::size_t shardCount = 1;
    std::string dir; //!< shard-file directory (canonical + steal files)
    ShardLayout layout = ShardLayout::Contiguous;

    /**
     * Per-point expected run fingerprints (index = flat grid index).
     * Defines the grid size and lets the supervisor decide point
     * completeness the same way resume and merge do.
     */
    std::vector<std::uint64_t> expectedRunFp;

    unsigned maxRetries = 2;    //!< respawns allowed per shard
    double backoffInitialSeconds = 0.25;
    double backoffGrowth = 2.0;
    double backoffCapSeconds = 5.0;

    /** Seconds without record-file growth before a running worker is
     *  declared hung and killed. 0 disables liveness detection. */
    double hangTimeoutSeconds = 0.0;

    bool workStealing = true;
};

/** Thief launches a fleet allows per shard, splits and rescues
 *  together. Sizes the claim page and bounds the loop when rescued
 *  work itself keeps failing. */
constexpr std::size_t kStealLaunchesPerShard = 4;

/**
 * The capped-exponential retry delay before a shard's next relaunch,
 * as a pure function of the policy and how many launches of that
 * shard have already failed (@p failures >= 1 - the first failure is
 * failure 1):
 *
 *     min(backoffCapSeconds,
 *         backoffInitialSeconds * backoffGrowth^(failures - 1))
 *
 * Factored out of the supervision loop so the schedule is unit-
 * testable against a deterministic clock (tests/test_supervisor.cc)
 * instead of being pinned by wall-clock sleeps.
 */
double supervisorBackoffSeconds(const SupervisorConfig &config,
                                unsigned failures);

/** Terminal accounting for one shard. */
struct ShardOutcome
{
    ShardState state = ShardState::Pending;
    unsigned launches = 0; //!< processes forked for this shard
    int lastStatus = 0;    //!< raw waitpid status of the last failure
    bool everHung = false; //!< a launch was killed by the hang timer
    std::size_t splitPoints = 0; //!< points split off to thieves
};

/** What a supervised run accomplished. */
struct SupervisorReport
{
    bool complete = false; //!< every grid point has a valid record
    /**
     * Nonzero when run() stopped because the supervisor itself caught
     * SIGINT/SIGTERM: every live worker was SIGKILLed and reaped
     * before returning, and `complete` reflects whatever records
     * survived. Orchestrators should exit 128 + interruptSignal.
     */
    int interruptSignal = 0;
    std::vector<ShardOutcome> shards;
    std::vector<std::size_t> missingPoints; //!< ascending flat indices
    /** Record files that exist: canonical shard files + steal files,
     *  in merge order. */
    std::vector<std::string> recordFiles;
    std::size_t respawns = 0;      //!< failure-triggered relaunches
    std::size_t stealLaunches = 0; //!< thieves forked: splits + rescues
    std::size_t stolenPoints = 0;  //!< points handed to thieves
    std::size_t splits = 0;        //!< thieves forked by a split
    std::size_t splitPoints = 0;   //!< points those splits moved
};

/**
 * Supervises one fleet of shard workers to completion or budget
 * exhaustion. Construct, then call run() exactly once. The
 * supervisor forks; call it before creating any thread pool in the
 * parent (sbn_sweep's --spawn discipline).
 */
class ShardSupervisor
{
  public:
    ShardSupervisor(SupervisorConfig config, WorkerBody body);
    ~ShardSupervisor(); // out-of-line: Task is incomplete here

    /**
     * Run the fleet; blocks until every shard and thief is Done or
     * Exhausted - or until the supervisor
     * process catches SIGINT/SIGTERM, in which case every live worker
     * is SIGKILLed and reaped (no orphans) and the report carries the
     * signal in interruptSignal. The SIGINT/SIGTERM handlers, and a
     * SIGCHLD handler that wakes the loop when a worker exits, are
     * installed for the duration of run() and restored on return.
     */
    SupervisorReport run();

  private:
    struct Task;

    void spawn(Task &task);
    void killAndReapAllWorkers();
    void reapExited();
    void killHungWorkers();
    void launchDueRespawns();
    bool rescueExhausted();
    bool splitLargest();
    void launchSteal(std::vector<std::size_t> points, bool split);
    std::size_t maxStealLaunches() const
    {
        return kStealLaunchesPerShard * config_.shardCount;
    }
    bool mayLaunchThief() const
    {
        return config_.workStealing &&
               report_.stealLaunches < maxStealLaunches();
    }
    void handleFailure(Task &task, int status, bool hung);
    void closeAttemptSpan(Task &task, const char *outcome, int status,
                          bool hung);
    std::vector<std::size_t> missingPoints() const;
    std::vector<std::string> existingRecordFiles() const;
    std::size_t runningCount() const;

    SupervisorConfig config_;
    WorkerBody body_;
    std::vector<Task> tasks_;      //!< the shards, then the thieves
    PointClaim *claims_ = nullptr; //!< one word per task, during run()
    SupervisorReport report_;

    // Span tracing (trace/span.hh); all zero when SBN_TRACE_DIR is
    // unset. Each worker launch is one "attempt" span whose id is
    // allocated before the fork and exported to the child, so worker
    // processes parent their own spans under it.
    TraceContext trace_;          //!< this fleet's trace coordinates
    std::uint64_t runSpanId_ = 0; //!< the whole run's "supervise" span
    std::uint64_t runStartUs_ = 0;
};

/** Canonical manifest path: dir/missing-points.json. */
std::string missingManifestPath(const std::string &dir);

/**
 * Persist the machine-readable missing-points manifest durably
 * (atomicWriteFile): one JSON object naming every missing flat
 * index and, when @p check carries shard attribution, the shard file
 * expected to own it.
 */
void writeMissingPointsManifest(const std::string &path,
                                const MergeCheck &check,
                                const std::vector<std::size_t> &missing);

} // namespace sbn

#endif // SBN_SHARD_SUPERVISOR_HH

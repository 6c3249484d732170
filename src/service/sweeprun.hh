/**
 * @file
 * Shared sweep-run plumbing between the sbn_sweep CLI and the
 * sbn_sweepd job runner.
 *
 * Both front ends execute the same thing - an EBW sweep over the
 * paper's parameter grid, optionally under ShardSupervisor - so the
 * option grammar, the sweep-point core (runSweepPoints), the worker
 * bodies and the supervised-run core live here once; the reproduction
 * benches run their grids through the same core. A daemon job's
 * "spec" is literally an sbn_sweep flag
 * string (`--n=8 --m=16 --p=0.2,0.6 --spawn=2 ...`), tokenized and
 * parsed by the same code path that parses the CLI, which is what
 * guarantees a submitted job computes byte-for-byte what the
 * equivalent local command would.
 *
 * A spec deliberately has no say over *where* results land: --dir,
 * --resume and the stage selectors (--merge/--shard/--spawn-as-mode)
 * stay with the front ends (the daemon assigns each job its own
 * directory under the state dir). --spawn inside a spec names the
 * worker count the job wants; the daemon honors it.
 */

#ifndef SBN_SERVICE_SWEEPRUN_HH
#define SBN_SERVICE_SWEEPRUN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/adaptive.hh"
#include "exec/sweep.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "shard/runner.hh"
#include "shard/supervisor.hh"

namespace sbn {

/** Everything a sweep run needs to know about WHAT to compute and
 *  how to supervise it - nothing about where the files go. */
struct SweepRunOptions
{
    SweepSpec spec;
    bool adaptive = false;
    PrecisionTarget target;
    RoundSchedule schedule;
    unsigned threads = 0; //!< 0 = defaultExecThreads(); see sweepThreads()
    ShardLayout layout = ShardLayout::Contiguous;

    // Supervision policy (--spawn fleets).
    unsigned retries = 2;         //!< respawns allowed per shard
    double hangTimeout = 0.0;     //!< seconds; 0 = liveness off
    double backoffInitial = 0.25; //!< first-retry backoff seconds
    bool steal = true;            //!< work stealing on by default

    /** --spawn=K worker count; 0 = the flag was not given. */
    std::size_t spawnShards = 0;

    /**
     * --telemetry[=FILE]: collect run telemetry (src/telemetry) for
     * this sweep. Shard workers append per-launch JSONL sidecars
     * (telemetry-shard-*.jsonl) next to their record files; the CLI
     * front end additionally dumps a whole-process snapshot at exit
     * to @c telemetryDump ("-" = stderr).
     */
    bool telemetry = false;
    std::string telemetryDump = "-";

    /**
     * --latency: collect per-request wait/residence histograms in
     * every plain-sweep point run (config.collectLatency) and carry
     * their p50/p90/p99/max summary in the point records. Passive:
     * EBW values and config fingerprints are unchanged, but a latency
     * record's run fingerprint also mixes in Histogram::kBinningRule
     * (sweepRunFingerprint), so resume and merge never mix the two
     * kinds. Adaptive records do not carry latency (their value is a
     * replication aggregate, not one run), so adaptive replications
     * run without it (adaptiveReplicationConfig()).
     */
    bool latency = false;

    /**
     * --trace[=DIR]: cross-process span tracing (trace/span.hh).
     * Every process of the run appends sbn.trace.v1 spans to its own
     * shard under DIR; bare --trace lets the front end pick the
     * directory (the sweep's --dir, or the daemon job's directory).
     * Arm with armSweepTracing() once the directory is known.
     */
    bool trace = false;
    std::string traceDir;
};

class CommandLine;

/**
 * Help text for every flag parseSweepRunOptions() understands - the
 * vocabulary legal inside a submitted job spec. Front ends merge
 * their own stage/transport flags on top.
 */
const std::map<std::string, std::string> &sweepFlagHelp();

/**
 * Parse the sweep portion of a command line. Every malformed value is
 * reported through @p cli: fatal on a tool's command line, the first
 * error of the sink on a job spec's (CommandLine's constructor).
 * Changes no process-wide state: a front end whose options ask for
 * --telemetry arms collection itself.
 */
SweepRunOptions parseSweepRunOptions(const CommandLine &cli);

/**
 * Split a spec string into argv-style tokens on runs of whitespace.
 * No quoting: sweep flags never need embedded spaces, and rejecting
 * quote characters keeps the daemon's input surface boring. Returns
 * false with a message in @p error on a quote or backslash.
 */
bool tokenizeSpecString(const std::string &spec,
                        std::vector<std::string> &out, std::string &error);

/**
 * Parse a full spec string ("--n=8 --m=16 --spawn=2 ...") into
 * @p out: tokenize, then parse with exactly the sweepFlagHelp()
 * vocabulary, so "--help" is as unknown as "--dir". Returns false
 * with the first error in @p error - the message sbn_sweep would
 * print after "fatal: " for the same flags. Changes no process-wide
 * state, so the daemon validates a submit with it in process.
 */
bool parseSweepSpecString(const std::string &spec, SweepRunOptions &out,
                          std::string &error);

/**
 * The daemon job runner's parse: parseSweepSpecString(spec, out,
 * error), fatal on a rejection, then arming telemetry when the spec
 * carries --telemetry, as the equivalent local command would.
 */
SweepRunOptions parseSweepSpecString(const std::string &spec);

/**
 * Arm span tracing for this process when @p opt asked for it: sets
 * SBN_TRACE_DIR to opt.traceDir (or @p default_dir for a bare
 * --trace) unless tracing is already armed - an inherited
 * SBN_TRACE_DIR from a parent process always wins, so a supervised
 * worker or daemon runner never re-points the shard directory. Call
 * from single-threaded front-end context, like every setenv.
 */
void armSweepTracing(const SweepRunOptions &opt,
                     const std::string &default_dir);

/** The MergeCheck matching @p opt's mode - plain-sweep or adaptive
 *  fingerprints over @p points. */
MergeCheck sweepRunMergeCheck(const SweepRunOptions &opt,
                              const std::vector<SystemConfig> &points);

/**
 * The worker-thread count runSweepPoints() runs @p opt on:
 * opt.threads, or defaultExecThreads() when that is 0.
 */
unsigned sweepThreads(const SweepRunOptions &opt);

/**
 * The config one adaptive replication of @p cfg runs: @p seed as its
 * seed and latency collection off, since an adaptive record carries
 * no latency summary. collectLatency is outside the config
 * fingerprint, so the replication's FastStat streams are the same
 * either way.
 */
SystemConfig adaptiveReplicationConfig(const SystemConfig &cfg,
                                       std::uint64_t seed);

/** Receives one finished point record. */
using PointRecordCallback = std::function<void(const PointRecord &)>;

/**
 * The sweep-point core every sweep path runs: compute the records of
 * the flat indices in @p subset of @p opt's sweep over @p points and
 * pass them to @p emit in increasing index order, each as soon as it
 * and every earlier subset point are done. @p subset must be strictly
 * increasing with every index < points.size(); anything else is
 * fatal.
 *
 * This is the one place that decides how a point is computed: a
 * plain sweep runs one seeded evaluateSweepPointSample() per point
 * (ParallelRunner::stream); an adaptive sweep (opt.adaptive)
 * replicates the selected points to opt.target under opt.schedule
 * (AdaptiveReplicator::runPoints). Work runs on a runner of
 * sweepThreads(opt) threads built for the call, whose threads are
 * gone when it returns.
 *
 * A record depends only on its own point, never on which other
 * points share the subset, so index i yields the same bytes alone,
 * in a shard, in a thief's list or in the full grid, at any thread
 * count. Sharded runs and their merge rest on this.
 *
 * With a @p claim (a supervised worker's), a plain sweep claims each
 * point just before starting it, and an adaptive sweep claims its
 * points once, before its first round. The first refused point and
 * every later one belong to a thief: they are skipped and not
 * emitted.
 */
void runSweepPoints(const SweepRunOptions &opt,
                    const std::vector<SystemConfig> &points,
                    const std::vector<std::size_t> &subset,
                    const PointRecordCallback &emit,
                    PointClaim *claim = nullptr);

/**
 * Compute the flat indices in @p subset of @p opt's sweep over
 * @p points, as far as @p claim admits, into the record file
 * @p path: runShardPoints() owns the file (resume, atomic rewrites,
 * one flushed line per point) and runSweepPoints() computes what
 * resume left missing. Every record-file path shares this one entry
 * point: shards, thieves, bench shard mode and the tests that stand
 * in for them.
 */
ShardRunStats writeSweepPoints(const SweepRunOptions &opt,
                               const std::vector<SystemConfig> &points,
                               const std::vector<std::size_t> &subset,
                               const std::string &path, bool resume,
                               PointClaim *claim = nullptr);

/** Run one full shard of @p opt's sweep, as far as @p claim admits,
 *  into its canonical file under @p dir, reporting stats on stderr
 *  (the worker body and --shard mode share this). */
ShardRunStats runSweepShard(const SweepRunOptions &opt,
                            const ShardSpec &shard,
                            const std::string &dir, bool resume,
                            PointClaim *claim = nullptr);

/** The one-seeded-run-per-point evaluator (plain sweeps). */
double evaluateSweepPoint(const SystemConfig &cfg);

/** evaluateSweepPoint() returning the full PointSample (EBW +
 *  latency summary when cfg.collectLatency). */
PointSample evaluateSweepPointSample(const SystemConfig &cfg);

/**
 * The WorkerBody a supervised sweep forks per task: shards and
 * thieves compute their points under their claim, with resume
 * semantics on respawn. Each worker runs opt.threads threads, or one
 * when that is 0 (sbn_sweepd fills in its core share before this).
 * @p points must outlive the returned body.
 */
WorkerBody makeSweepWorkerBody(const SweepRunOptions &opt,
                               const std::vector<SystemConfig> &points,
                               const std::string &dir,
                               bool resume_first_launch);

/** What a supervised sweep run produced. */
struct SupervisedSweepOutcome
{
    SupervisorReport report;
    MergeCheck check;
    /** Tolerant-tail collection of every record the fleet wrote, in
     *  flat order. Empty when the run was interrupted by a signal
     *  (an interrupted fleet's output is not a result). */
    PartialMerge merged;
};

/**
 * Run a @p shard_count-worker supervised fleet of @p opt's sweep
 * into @p dir (created/probed first), collect the records, then fold
 * the thieves' records back (foldBackThieves()).
 * Forks, from any thread outside a fan-out: no runner thread
 * outlives its fan-out, so each worker starts single-threaded.
 */
SupervisedSweepOutcome runSupervisedSweep(const SweepRunOptions &opt,
                                          std::size_t shard_count,
                                          const std::string &dir,
                                          bool resume_first_launch);

/**
 * Leave a complete fleet's directory as a fleet without thieves
 * would: rewrite (atomically) each canonical shard file that lost
 * points to its plan's records from @p outcome's merged set, then
 * remove the run's steal-*.jsonl files. `sbn_sweep --merge`, --resume
 * and the daemon's relaunch read only canonical files. An incomplete
 * or interrupted run, or one without thieves, is left as it is.
 */
void foldBackThieves(const SupervisedSweepOutcome &outcome);

} // namespace sbn

#endif // SBN_SERVICE_SWEEPRUN_HH

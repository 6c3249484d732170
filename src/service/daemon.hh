/**
 * @file
 * sbn_sweepd: the crash-safe sweep job daemon.
 *
 * One single-threaded poll() loop accepts line-delimited JSON
 * requests (service/protocol.hh) on a 127.0.0.1 TCP socket, keeps a
 * bounded queue of sweep jobs, and runs each job in a forked *runner*
 * process that drives the existing ShardSupervisor fleet
 * (service/sweeprun.hh). The daemon is the ONLY writer of the job
 * journal (service/journal.hh); every state transition is fsync()ed
 * before its effect becomes visible, which is what makes
 * kill-anywhere recovery work:
 *
 *   submit   journal submitted  -> then acknowledge the client
 *   start    journal running    -> then fork the runner
 *   merging  runner reports the phase over a status pipe ->
 *            journal merging
 *   reap     journal done/failed with the runner's disposition
 *   cancel   journal cancelled  -> then SIGTERM (SIGKILL after a
 *            grace period) the runner
 *
 * On startup the daemon replays the journal: submitted jobs re-queue,
 * running/merging jobs relaunch with resume (their shard record
 * files survived in the job directory, so the recovered merged
 * output is byte-identical - shard/result_io.hh's contract), and
 * terminal jobs stay queryable. merged.jsonl is published via atomic
 * temp+rename, so it is absent or complete, never torn.
 *
 * No orphans: the runner arms PR_SET_PDEATHSIG(SIGTERM), so if the
 * daemon dies the runner's supervisor catches the TERM, kills and
 * reaps its workers, and exits; supervisor workers additionally arm
 * PDEATHSIG(SIGKILL) against the runner. Cancel and daemon shutdown
 * ride the same path.
 *
 * Liveness is observable without the socket: every heartbeat period
 * the daemon rewrites <state-dir>/heartbeat (atomic temp+rename)
 * with its counters, so a watchdog can tell "daemon wedged"
 * (SBN_FAULT=stall_accept keeps serving nothing but the process
 * alive) from "daemon busy". The bound port is published to
 * <state-dir>/port the same way once listening.
 */

#ifndef SBN_SERVICE_DAEMON_HH
#define SBN_SERVICE_DAEMON_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace sbn {

/** Daemon policy knobs (tools/sbn_sweepd.cc flags). */
struct DaemonConfig
{
    std::string stateDir; //!< journal, job dirs, port + heartbeat files
    int port = 0;         //!< TCP port; 0 = kernel-assigned ephemeral
    /** Cap on jobs queued awaiting a runner (running jobs are capped
     *  separately by maxRunning); submits beyond it get the
     *  machine-readable queue_full rejection. */
    std::size_t queueLimit = 8;
    /** Concurrent runner processes. Each running job's workers
     *  share hardwareThreads() / maxRunning cores (jobWorkerThreads())
     *  unless its spec names --threads. */
    std::size_t maxRunning = 1;
    double heartbeatSeconds = 1.0;
    /** Relaunches allowed when a runner dies on a signal (a crash,
     *  not a deterministic failure); each relaunch resumes from the
     *  job's surviving shard records. */
    unsigned jobRetries = 2;
    /** Worker count for specs that carry no --spawn. */
    std::size_t defaultShards = 1;
};

/**
 * Threads per worker for a job whose spec names no --threads: the
 * job's share of @p cpus, floor(cpus / max_running), split across its
 * @p shards workers, and never less than one. The runner derives it
 * at every launch, so a job recovered on another host takes that
 * host's share; records do not depend on it.
 * @pre max_running >= 1 and shards >= 1
 */
unsigned jobWorkerThreads(unsigned cpus, std::size_t max_running,
                          std::size_t shards);

/** <state-dir>/jobs.jsonl - the job journal. */
std::string daemonJournalPath(const std::string &state_dir);

/** <state-dir>/port - the bound TCP port, one decimal line. */
std::string daemonPortFilePath(const std::string &state_dir);

/** <state-dir>/heartbeat - one flat JSON liveness line. */
std::string daemonHeartbeatPath(const std::string &state_dir);

/** <state-dir>/job-<id>/ - one job's shard files and outputs. */
std::string daemonJobDir(const std::string &state_dir,
                         std::uint64_t job);

/** <job-dir>/merged.jsonl - the published result stream. */
std::string daemonMergedPath(const std::string &job_dir);

/**
 * Run the daemon until drained (exit 0), fatally misconfigured
 * (exit 1), or terminated by SIGINT/SIGTERM (exit 128+signal; live
 * runners shut their fleets down via PDEATHSIG and the journal's
 * running entries drive recovery on the next start). Blocks; the
 * returned value is the process exit code.
 */
int runSweepDaemon(const DaemonConfig &config);

} // namespace sbn

#endif // SBN_SERVICE_DAEMON_HH

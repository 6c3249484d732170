/**
 * @file
 * sbn_sweepd: crash-safe sweep job daemon.
 *
 *   sbn_sweepd --state=DIR [--port=P] [--queue-limit=N]
 *              [--max-running=N] [--heartbeat=S]
 *
 * Accepts sweep jobs over a line-delimited JSON TCP protocol
 * (docs/service.md), journals every job-state transition to
 * DIR/jobs.jsonl before acting on it, and runs each job through the
 * ShardSupervisor fleet in a forked runner process. Kill the daemon
 * at any instant and restart it with the same --state: every
 * acknowledged job resumes from its journal entry and shard records,
 * and recovered results are byte-identical to uninterrupted ones.
 *
 * The bound port is published to DIR/port once listening; a liveness
 * heartbeat is rewritten to DIR/heartbeat every --heartbeat seconds.
 * `{"cmd":"drain"}` stops intake, finishes the queue, and exits 0.
 */

#include <map>
#include <string>

#include "service/daemon.hh"
#include "util/cli.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    using namespace sbn;

    const std::map<std::string, std::string> known{
        {"state", "state directory: job journal, job dirs, port and "
                  "heartbeat files (required)"},
        {"port", "TCP port on 127.0.0.1 (default 0 = "
                 "kernel-assigned; see the state dir's port file)"},
        {"queue-limit", "max queued jobs before submits get "
                        "queue_full (default 8)"},
        {"max-running", "max concurrent job runner processes "
                        "(default 1)"},
        {"heartbeat", "seconds between heartbeat-file rewrites "
                      "(default 1)"},
    };
    const CommandLine cli(argc, argv, known);

    DaemonConfig config;
    config.stateDir = cli.getString("state", "");
    const std::int64_t port = cli.getInt("port", 0);
    if (port < 0 || port > 65535)
        sbn_fatal("--port must be 0..65535 (got ", port, ")");
    config.port = static_cast<int>(port);
    const std::int64_t queueLimit = cli.getInt("queue-limit", 8);
    if (queueLimit < 1)
        sbn_fatal("--queue-limit must be >= 1 (got ", queueLimit,
                  ")");
    config.queueLimit = static_cast<std::size_t>(queueLimit);
    const std::int64_t maxRunning = cli.getInt("max-running", 1);
    if (maxRunning < 1)
        sbn_fatal("--max-running must be >= 1 (got ", maxRunning,
                  ")");
    config.maxRunning = static_cast<std::size_t>(maxRunning);
    config.heartbeatSeconds = cli.getDouble("heartbeat", 1.0);
    if (!(config.heartbeatSeconds > 0))
        sbn_fatal("--heartbeat must be > 0 seconds");

    return runSweepDaemon(config);
}

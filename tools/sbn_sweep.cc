/**
 * @file
 * Sharded-sweep orchestrator: run, shard, spawn, merge, resume - and
 * client of the sbn_sweepd job daemon.
 *
 * One binary drives every stage of a distributed EBW sweep over the
 * paper's parameter grid:
 *
 *   sbn_sweep --n=8 --m=16 --r=4,8 --p=0.1,0.5,1.0
 *       Serial run: evaluate the whole grid in-process and write the
 *       ordered record stream (JSONL, one line per point) to stdout.
 *
 *   sbn_sweep ... --shard=1/4 --dir=out/
 *       Run only shard 1 of 4, appending records to
 *       out/shard-1-of-4.jsonl. Add --resume to skip points whose
 *       records already exist and fingerprint-match (e.g. after a
 *       kill). Any machine can run any shard; the plan is a pure
 *       function of the grid.
 *
 *   sbn_sweep ... --merge --shards=4 --dir=out/
 *       Validate and reassemble the shard files into the flat-grid
 *       ordered stream on stdout - byte-identical to the serial run.
 *       A directory with no record files at all exits with the
 *       distinct no-input code (66) and one structured stderr line.
 *
 *   sbn_sweep ... --spawn=4 --dir=out/
 *       Run the 4-shard fleet under ShardSupervisor: one worker per
 *       shard with crash/hang detection, capped-backoff retries with
 *       resume (--retries, --hang-timeout), and work splitting: a
 *       free slot takes the upper half of a straggler's unstarted
 *       points (--steal). On
 *       success the merged stream on stdout is byte-identical to the
 *       serial run. When a shard exhausts its retry budget the tool
 *       degrades gracefully: merged partial output on stdout, a
 *       machine-readable missing-points manifest in --dir, one
 *       structured failure line on stderr, and exit code 75
 *       (EX_TEMPFAIL) so callers can tell "rerun the named points"
 *       from "the sweep is broken".
 *
 *   sbn_sweep --connect=STATE_DIR_OR_PORT --submit="--n=8 ... --spawn=2"
 *   sbn_sweep --connect=... --status [--job=N]
 *   sbn_sweep --connect=... --results --job=N [--wait]
 *   sbn_sweep --connect=... --cancel --job=N
 *   sbn_sweep --connect=... --drain
 *       Talk to a running sbn_sweepd (docs/service.md). --submit
 *       with --wait blocks until the job is terminal and streams the
 *       merged records to stdout, exiting with the job's own exit
 *       disposition (0 complete, 75 partial). A daemon that cannot
 *       be reached exits 69 (EX_UNAVAILABLE).
 *
 * --adaptive switches every mode to adaptive-precision estimation
 * (per-point replications grown until --rel/--abs or --cap); records
 * then carry replication counts, rounds and the CI half-width, and
 * the fingerprints bind them to the precision setup so mixed-mode
 * merges are rejected.
 */

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "service/client.hh"
#include "service/journal.hh"
#include "service/sweeprun.hh"
#include "shard/fault.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "shard/supervisor.hh"
#include "telemetry/telemetry.hh"
#include "util/cli.hh"
#include "util/exit_codes.hh"
#include "util/logging.hh"

namespace {

using namespace sbn;

/** Everything parsed from the command line. */
struct Options
{
    SweepRunOptions run;
    std::string dir = "sbn-sweep-out";
    bool resume = false;
};

Options
parseOptions(const CommandLine &cli)
{
    Options opt;
    opt.run = parseSweepRunOptions(cli);
    opt.dir = cli.getString("dir", opt.dir);
    opt.resume = cli.getBool("resume", false);
    return opt;
}

std::string g_telemetryDumpPath = "-";

/**
 * atexit hook: dump one flat-JSON telemetry line whatever the exit
 * path - success, the partial exit 75 in spawnAndMerge, or a merge
 * fatal. Forked shard workers leave via _exit and never run it, so
 * the dump always describes this orchestrating process. The entered
 * guard keeps a dump failure (sbn_fatal -> exit during exit) from
 * recursing.
 */
void
dumpTelemetryAtExit()
{
    static bool entered = false;
    if (entered)
        return;
    entered = true;
    writeTelemetryDump(g_telemetryDumpPath, /*include_timers=*/true);
}

/**
 * Merge shard record files and stream the records to stdout. The
 * files are either the canonical dir/shard-i-of-N.jsonl set
 * (@p shard_count != 0) or an explicit @p files list (e.g. the
 * per-sweep files the bench binaries write in --shard mode). With
 * @p structural_size != 0 the merge validates structure only (for
 * record files whose grid flags are not at hand); otherwise the
 * records must fingerprint-match the spec's grid.
 */
void
mergeShards(const Options &opt, std::size_t shard_count,
            const std::vector<std::string> &files,
            std::size_t structural_size)
{
    MergeCheck check =
        structural_size != 0
            ? structuralMergeCheck(structural_size)
            : sweepRunMergeCheck(opt.run, opt.run.spec.materialize());
    if (files.empty()) {
        // Canonical shard set: give the check shard attribution so a
        // strict-merge failure names the exact missing indices and
        // the shard file expected to own each of them.
        check.shardCount = shard_count;
        check.layout = opt.run.layout;
        check.dir = opt.dir;
    }
    const std::vector<std::string> paths =
        files.empty() ? shardFilePaths(opt.dir, shard_count) : files;

    // Zero record files is its own failure mode - a wrong --dir or a
    // sweep that never ran - and deserves a distinct diagnosis and
    // exit code, not the per-file "cannot open" fatal (which is for
    // a *partially* missing set, where naming the one absent shard
    // is the useful message).
    std::size_t present = 0;
    for (const std::string &path : paths) {
        struct stat info;
        if (::stat(path.c_str(), &info) == 0)
            ++present;
    }
    if (present == 0) {
        std::fprintf(stderr,
                     "sbn_sweep: --merge: no record files: none of "
                     "the %zu expected file(s) exist under '%s' "
                     "(first: %s); wrong --dir, or the sweep never "
                     "ran\n",
                     paths.size(), opt.dir.c_str(),
                     paths.empty() ? "-" : paths.front().c_str());
        std::exit(kExitNoInput);
    }

    const std::vector<PointRecord> merged =
        mergeRecordFiles(paths, check);
    writeRecords(std::cout, merged);
    std::fprintf(stderr, "merged %zu record(s) from %zu file(s)\n",
                 merged.size(), paths.size());
}

/** Serial reference run: full grid in-process, records to stdout. */
void
runSerial(const Options &opt)
{
    const std::vector<SystemConfig> points =
        opt.run.spec.materialize();
    std::vector<std::size_t> every(points.size());
    std::iota(every.begin(), every.end(), std::size_t{0});
    runSweepPoints(opt.run, points, every, [](const PointRecord &record) {
        std::cout << formatRecord(record) << '\n';
    });
    std::fprintf(stderr, "swept %zu point(s)\n", points.size());
}

/**
 * Run the shard fleet under ShardSupervisor, then merge to stdout.
 * Complete runs exit 0 with the byte-identical merged stream;
 * budget-exhausted runs emit the merged partial stream, persist the
 * missing-points manifest, report every failed shard in one
 * structured stderr line, and exit kPartialResultExit.
 */
void
spawnAndMerge(const Options &opt, std::size_t shard_count)
{
    const SupervisedSweepOutcome outcome = runSupervisedSweep(
        opt.run, shard_count, opt.dir, opt.resume);
    const SupervisorReport &report = outcome.report;

    if (report.interruptSignal != 0) {
        // The supervisor already SIGKILLed and reaped every live
        // worker; nothing is left to clean up here. Skip the merge -
        // an interrupted fleet's output is not a result, partial or
        // otherwise - and die with the conventional signal exit code
        // so shells and CI see the interruption as such.
        std::fprintf(stderr,
                     "--spawn: interrupted by signal %d; workers "
                     "killed and reaped, no merge attempted (shard "
                     "files in %s support --resume)\n",
                     report.interruptSignal, opt.dir.c_str());
        std::exit(exitCodeForSignal(report.interruptSignal));
    }

    // Splits are load balancing; only respawns and rescues recover.
    const std::size_t rescues = report.stealLaunches - report.splits;
    if (report.respawns != 0 || rescues != 0)
        std::fprintf(stderr,
                     "--spawn: supervision recovered: %zu respawn(s), "
                     "%zu rescue launch(es) covering %zu point(s)\n",
                     report.respawns, rescues,
                     report.stolenPoints - report.splitPoints);
    if (report.splits != 0) {
        std::string line = "--spawn: load balancing: " +
                           std::to_string(report.splits) +
                           " split(s) moved " +
                           std::to_string(report.splitPoints) +
                           " point(s); split off per shard:";
        for (std::size_t i = 0; i < report.shards.size(); ++i)
            line += " " + std::to_string(i) + "/" +
                    std::to_string(shard_count) + "=" +
                    std::to_string(report.shards[i].splitPoints);
        std::fprintf(stderr, "%s\n", line.c_str());
    }

    writeRecords(std::cout, outcome.merged.records);

    if (!report.complete) {
        // Graceful degradation: persist the exact uncovered points
        // machine-readably and report every failed shard - index,
        // wait status, launches - in ONE structured stderr line.
        const std::string manifest = missingManifestPath(opt.dir);
        writeMissingPointsManifest(manifest, outcome.check,
                                   report.missingPoints);
        std::string line = "--spawn: incomplete:";
        for (std::size_t i = 0; i < report.shards.size(); ++i) {
            const ShardOutcome &shard = report.shards[i];
            if (shard.state != ShardState::Exhausted)
                continue;
            line += " shard " + std::to_string(i) + "/" +
                    std::to_string(shard_count) + " {" +
                    describeWaitStatus(shard.lastStatus) + ", " +
                    std::to_string(shard.launches) + " launch(es)" +
                    (shard.everHung ? ", hung" : "") + "}";
        }
        line += "; " + std::to_string(report.missingPoints.size()) +
                "/" + std::to_string(outcome.check.gridSize) +
                " point(s) missing; merged partial stream written; "
                "manifest: " +
                manifest;
        std::fprintf(stderr, "%s\n", line.c_str());
        std::exit(kPartialResultExit);
    }

    std::fprintf(stderr, "merged %zu record(s) from %zu file(s)\n",
                 outcome.merged.records.size(),
                 report.recordFiles.size());
}

// ---------------------------------------------------------------------
// Daemon client mode (--connect).
// ---------------------------------------------------------------------

/** One request/response over a fresh connection. */
ClientResponse
callDaemon(const std::string &endpoint, const Request &request)
{
    DaemonClient client(endpoint);
    return client.call(request);
}

/** Re-serialize a parsed flat object (key order = map order). */
std::string
formatFlatObject(const JsonObject &fields)
{
    std::string out = "{";
    bool first = true;
    for (const auto &pair : fields) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + pair.first + "\":";
        switch (pair.second.kind) {
        case JsonScalar::Kind::String:
            out += '"' + jsonEscape(pair.second.text) + '"';
            break;
        case JsonScalar::Kind::Number:
            out += pair.second.text;
            break;
        case JsonScalar::Kind::Bool:
            out += pair.second.boolean ? "true" : "false";
            break;
        case JsonScalar::Kind::Null:
            out += "null";
            break;
        }
    }
    out += '}';
    return out;
}

/** Print a protocol-level failure and exit nonzero. */
[[noreturn]] void
dieOnErrorResponse(const char *what, const ClientResponse &response)
{
    std::fprintf(stderr, "sbn_sweep: %s failed: %s: %s\n", what,
                 response.errorCode().c_str(),
                 response.text("message").c_str());
    std::exit(kExitFatal);
}

/** Poll the daemon until @p job reaches a terminal state. */
ClientResponse
waitForTerminal(const std::string &endpoint, std::uint64_t job)
{
    Request status;
    status.kind = RequestKind::Status;
    status.hasJob = true;
    status.job = job;
    for (;;) {
        const ClientResponse response = callDaemon(endpoint, status);
        if (!response.ok())
            dieOnErrorResponse("status", response);
        JobState state = JobState::Submitted;
        if (parseJobState(response.text("state"), state) &&
            jobStateTerminal(state))
            return response;
        timespec delay{0, 200 * 1000 * 1000};
        ::nanosleep(&delay, nullptr);
    }
}

/**
 * Fetch a finished job's merged records to stdout and exit with the
 * job's own disposition (0 complete, kPartialResultExit partial).
 */
[[noreturn]] void
fetchResultsAndExit(const std::string &endpoint, std::uint64_t job)
{
    Request request;
    request.kind = RequestKind::Results;
    request.hasJob = true;
    request.job = job;
    const ClientResponse response = callDaemon(endpoint, request);
    if (!response.ok())
        dieOnErrorResponse("results", response);
    std::fwrite(response.payload.data(), 1, response.payload.size(),
                stdout);
    const int exit = static_cast<int>(response.number("exit", 0));
    if (exit == kPartialResultExit)
        std::fprintf(stderr,
                     "sbn_sweep: job %llu finished partial; see the "
                     "job's missing-points manifest in the daemon "
                     "state dir\n",
                     static_cast<unsigned long long>(job));
    std::exit(exit == kPartialResultExit ? kPartialResultExit
                                         : kExitOk);
}

[[noreturn]] void
runClientMode(const CommandLine &cli, const std::string &endpoint)
{
    const bool wait = cli.getBool("wait", false);

    if (cli.has("submit")) {
        Request request;
        request.kind = RequestKind::Submit;
        request.spec = cli.getString("submit", "");
        request.timeoutSeconds = cli.getDouble("job-timeout", 0.0);
        if (request.timeoutSeconds < 0)
            sbn_fatal("--job-timeout must be >= 0 seconds");
        const ClientResponse response = callDaemon(endpoint, request);
        if (!response.ok())
            dieOnErrorResponse("submit", response);
        const std::uint64_t job =
            static_cast<std::uint64_t>(response.number("job", 0));
        std::fprintf(stderr, "sbn_sweep: submitted job %llu\n",
                     static_cast<unsigned long long>(job));
        if (!wait) {
            std::printf("%llu\n",
                        static_cast<unsigned long long>(job));
            std::exit(kExitOk);
        }
        const ClientResponse last = waitForTerminal(endpoint, job);
        JobState state = JobState::Submitted;
        parseJobState(last.text("state"), state);
        if (state != JobState::Done) {
            std::fprintf(stderr,
                         "sbn_sweep: job %llu ended %s (%s)\n",
                         static_cast<unsigned long long>(job),
                         jobStateName(state),
                         last.text("reason").c_str());
            std::exit(kExitFatal);
        }
        fetchResultsAndExit(endpoint, job);
    }

    if (cli.getBool("results", false)) {
        const std::int64_t job = cli.getInt("job", -1);
        if (job < 0)
            sbn_fatal("--results needs --job=N");
        if (wait)
            waitForTerminal(endpoint,
                            static_cast<std::uint64_t>(job));
        fetchResultsAndExit(endpoint,
                            static_cast<std::uint64_t>(job));
    }

    if (cli.getBool("cancel", false)) {
        const std::int64_t job = cli.getInt("job", -1);
        if (job < 0)
            sbn_fatal("--cancel needs --job=N");
        Request request;
        request.kind = RequestKind::Cancel;
        request.hasJob = true;
        request.job = static_cast<std::uint64_t>(job);
        const ClientResponse response = callDaemon(endpoint, request);
        if (!response.ok())
            dieOnErrorResponse("cancel", response);
        std::fprintf(stderr, "sbn_sweep: job %lld cancelled\n",
                     static_cast<long long>(job));
        std::exit(kExitOk);
    }

    if (cli.getBool("drain", false)) {
        Request request;
        request.kind = RequestKind::Drain;
        const ClientResponse response = callDaemon(endpoint, request);
        if (!response.ok())
            dieOnErrorResponse("drain", response);
        std::fprintf(stderr, "sbn_sweep: daemon draining\n");
        std::exit(kExitOk);
    }

    if (cli.getBool("metrics", false)) {
        Request request;
        request.kind = RequestKind::Metrics;
        if (cli.has("job")) {
            request.hasJob = true;
            request.job =
                static_cast<std::uint64_t>(cli.getInt("job", 0));
        }
        const ClientResponse response = callDaemon(endpoint, request);
        if (!response.ok())
            dieOnErrorResponse("metrics", response);
        // One flat-JSON line, same shape as --status: machine
        // consumers parse it, humans can read it.
        std::printf("%s\n", formatFlatObject(response.fields).c_str());
        std::exit(kExitOk);
    }

    // Default: status (daemon summary, or one job with --job=N).
    Request request;
    request.kind = RequestKind::Status;
    if (cli.has("job")) {
        request.hasJob = true;
        request.job =
            static_cast<std::uint64_t>(cli.getInt("job", 0));
    }
    const ClientResponse response = callDaemon(endpoint, request);
    if (!response.ok())
        dieOnErrorResponse("status", response);
    // The status line is already machine-readable; pass it through.
    std::printf("%s\n", formatFlatObject(response.fields).c_str());
    std::exit(kExitOk);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> known = sweepFlagHelp();
    known.insert({
        {"shard", "run one shard: i/N (0-based)"},
        {"shards", "shard count for --merge"},
        {"files", "merge: explicit record files instead of the "
                  "canonical shard-i-of-N.jsonl set"},
        {"size", "merge: validate structure only, for a grid of this "
                 "many points (skips fingerprint checks)"},
        {"dir", "shard file directory"},
        {"resume", "skip points with matching records on disk"},
        {"merge", "merge shard files to stdout"},
        {"connect", "client mode: daemon state dir, PORT or "
                    "host:PORT (see docs/service.md)"},
        {"submit", "client: submit a job; value = sbn_sweep-style "
                   "spec string"},
        {"job-timeout", "client: wall-clock budget in seconds for "
                        "the submitted job (0 = none)"},
        {"status", "client: daemon summary, or one job with --job"},
        {"results", "client: fetch a finished job's merged records "
                    "(needs --job)"},
        {"cancel", "client: cancel a job (needs --job)"},
        {"drain", "client: stop intake, finish queued jobs, exit 0"},
        {"metrics", "client: daemon metrics snapshot (flat JSON), or "
                    "one job's with --job"},
        {"job", "client: job id for "
                "--status/--results/--cancel/--metrics"},
        {"wait", "client: block until the job is terminal"},
    });
    const CommandLine cli(argc, argv, known);

    if (cli.has("connect"))
        runClientMode(cli, cli.getString("connect", ""));

    const Options opt = parseOptions(cli);

    if (opt.run.telemetry) {
        g_telemetryDumpPath = opt.run.telemetryDump;
        std::atexit(dumpTelemetryAtExit);
    }

    // A bare --trace shards spans into --dir; --trace=DIR overrides.
    // An SBN_TRACE_DIR inherited from a parent (supervisor, daemon)
    // always wins - armSweepTracing never re-points it.
    armSweepTracing(opt.run, opt.dir);

    const bool has_shard = cli.has("shard");
    const bool has_merge = cli.getBool("merge", false);
    const bool has_spawn = opt.run.spawnShards != 0;
    if (has_shard + has_merge + has_spawn > 1)
        sbn_fatal("--shard, --merge and --spawn are mutually "
                  "exclusive (shard and merge are separate stages; "
                  "spawn is both)");

    if (has_shard) {
        ensureWritableShardDir(opt.dir);
        const ShardSpec shard =
            ShardSpec::parse(cli.getString("shard", ""));
        // Declare identity for the fault plane: a manually-launched
        // worker is attempt 0 unless SBN_FAULT_ATTEMPT says otherwise
        // (the supervisor sets the scope in its forked children
        // directly).
        unsigned attempt = 0;
        if (const char *env = std::getenv(kFaultAttemptEnvVar);
            env != nullptr && *env != '\0') {
            char *end = nullptr;
            errno = 0;
            const unsigned long parsed = std::strtoul(env, &end, 10);
            if (*end != '\0' || errno == ERANGE)
                sbn_fatal(kFaultAttemptEnvVar,
                          " must be a non-negative integer, got '",
                          env, "'");
            attempt = static_cast<unsigned>(parsed);
        }
        setFaultProcessScope(shard.index, attempt);
        runSweepShard(opt.run, shard, opt.dir, opt.resume);
    } else if (has_merge) {
        const std::vector<std::string> files =
            cli.getStringList("files", {});
        const std::int64_t shards = cli.getInt("shards", 0);
        if (files.empty() && shards < 1)
            sbn_fatal("--merge needs --shards=N (the canonical "
                      "dir/shard-i-of-N.jsonl set) or --files=a,b,... "
                      "(explicit record files, e.g. bench shards)");
        const std::int64_t size = cli.getInt("size", 0);
        if (size < 0)
            sbn_fatal("--size must be a positive point count");
        mergeShards(opt, static_cast<std::size_t>(shards), files,
                    static_cast<std::size_t>(size));
    } else if (has_spawn) {
        spawnAndMerge(opt, opt.run.spawnShards);
    } else {
        runSerial(opt);
    }
    return 0;
}

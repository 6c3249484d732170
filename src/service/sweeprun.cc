#include "service/sweeprun.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "core/experiment.hh"
#include "exec/parallel_runner.hh"
#include "shard/result_io.hh"
#include "telemetry/telemetry.hh"
#include "trace/span.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

/**
 * Append this process's telemetry snapshot as one JSONL record next
 * to @p record_path: "dir/shard-1-of-4.jsonl" gains a sibling
 * "dir/telemetry-shard-1-of-4.jsonl". The "telemetry-" prefix keeps
 * sidecars invisible to merge and resume, which open exact shard
 * paths and never glob the directory. Appending (not truncating)
 * means a respawned worker adds a second record instead of erasing
 * the crashed attempt's numbers. Best effort: a sidecar write
 * failure must not fail the shard whose records already landed.
 */
void
appendTelemetrySidecar(const std::string &record_path)
{
    if (!telemetryEnabled())
        return;
    std::string dir;
    std::string base = record_path;
    const std::size_t slash = record_path.rfind('/');
    if (slash != std::string::npos) {
        dir = record_path.substr(0, slash + 1);
        base = record_path.substr(slash + 1);
    }
    const std::string path = dir + "telemetry-" + base;
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        std::fprintf(stderr,
                     "warning: cannot append telemetry sidecar %s\n",
                     path.c_str());
        return;
    }
    const std::string line = formatTelemetrySnapshot(
        telemetrySnapshot(), /*include_timers=*/true);
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
}

std::vector<ArbitrationPolicy>
parsePolicyList(const CommandLine &cli)
{
    std::vector<ArbitrationPolicy> policies;
    for (const std::string &name : cli.getStringList("policy", {})) {
        if (name == "proc")
            policies.push_back(ArbitrationPolicy::ProcessorPriority);
        else if (name == "mem")
            policies.push_back(ArbitrationPolicy::MemoryPriority);
        else
            cli.fail("--policy: unknown policy '", name,
                     "' (expected 'proc' or 'mem')");
    }
    return policies;
}

/**
 * The trace coordinates this process's spans live under: the
 * inherited context when a parent exported one, else a fresh trace
 * rooted here (a standalone --shard worker, a serial CLI run).
 */
TraceContext
currentTraceContext()
{
    TraceContext ctx = inheritedTraceContext();
    if (traceEnabled() && !ctx.valid())
        ctx.traceId = newTraceId();
    return ctx;
}

} // namespace

const std::map<std::string, std::string> &
sweepFlagHelp()
{
    static const std::map<std::string, std::string> help{
        {"n", "processor-count axis, e.g. 8 or 4,8,16"},
        {"m", "memory-module axis"},
        {"r", "memory/bus ratio axis"},
        {"p", "request-probability axis, e.g. 0.1,0.5,1.0"},
        {"policy", "arbitration axis: proc, mem or proc,mem"},
        {"buffered", "Section-6 buffering axis: 0, 1 or 0,1"},
        {"hot", "hot-spot workload axis: fraction h values, e.g. "
                "0.0,0.2,0.4 (forces the HotSpot pattern)"},
        {"favorite", "favorite-module workload axis: fraction f "
                     "values (forces the Favorite pattern)"},
        {"kernel", "simulation kernel: cycleskip (exact, default) or "
                   "faststat (statistically equivalent, faster)"},
        {"seed", "base RNG seed (per-point seeds derive from it)"},
        {"warmup", "warmup bus cycles per run"},
        {"measure", "measured bus cycles per run"},
        {"adaptive", "adaptive-precision replications per point"},
        {"rel", "adaptive: relative CI half-width target"},
        {"abs", "adaptive: absolute CI half-width target"},
        {"level", "adaptive: confidence level"},
        {"initial", "adaptive: first-round replications"},
        {"growth", "adaptive: round growth factor"},
        {"cap", "adaptive: replication cap"},
        {"threads", "worker threads (0 = every usable CPU)"},
        {"layout", "shard layout: contiguous or strided"},
        {"spawn", "run N supervised local shard workers, then merge"},
        {"retries", "spawn: respawns allowed per shard (default 2)"},
        {"hang-timeout", "spawn: seconds without record progress "
                         "before a worker is declared hung and "
                         "killed (0 = off)"},
        {"backoff", "spawn: initial retry backoff seconds (doubles "
                    "per failure, capped)"},
        {"steal", "spawn: let free slots split off the unstarted "
                  "points of stragglers (default 1)"},
        {"telemetry", "collect run telemetry counters/timers; the "
                      "optional value names the dump file (default "
                      "'-' = stderr). Shard workers also append "
                      "telemetry-shard-*.jsonl sidecars next to "
                      "their record files"},
        {"latency", "collect per-request wait/residence latency "
                    "histograms and carry their p50/p90/p99/max in "
                    "plain-sweep point records (passive: EBW values "
                    "are unchanged)"},
        {"trace", "record cross-process sbn.trace.v1 span shards for "
                  "this run; the optional value names the shard "
                  "directory (default: the run's own directory). "
                  "Merge with sbn_trace"},
    };
    return help;
}

SweepRunOptions
parseSweepRunOptions(const CommandLine &cli)
{
    SweepRunOptions opt;

    SweepSpec &spec = opt.spec;
    spec.base.seed =
        static_cast<std::uint64_t>(cli.getInt("seed", 20260611));

    // getInt reads an int64. Range-check before narrowing, naming the
    // flag: a negative window would wrap the unsigned Tick, and an
    // axis value past int would truncate to a different system.
    const std::int64_t warmup = cli.getInt("warmup", 20000);
    if (warmup < 0)
        cli.fail("--warmup must be >= 0 (got ", warmup, ")");
    const std::int64_t measure = cli.getInt("measure", 200000);
    if (measure < 1)
        cli.fail("--measure must be >= 1 (got ", measure, ")");
    spec.base.warmupCycles = static_cast<Tick>(warmup);
    spec.base.measureCycles = static_cast<Tick>(measure);

    auto intAxis = [&cli](const char *flag, std::vector<int> &axis) {
        for (std::int64_t v : cli.getIntList(flag, {})) {
            if (v < std::numeric_limits<int>::min() ||
                v > std::numeric_limits<int>::max())
                cli.fail("--", flag, " value ", v,
                         " is out of the int range");
            axis.push_back(static_cast<int>(v));
        }
    };
    intAxis("n", spec.processors);
    intAxis("m", spec.modules);
    intAxis("r", spec.memoryRatios);
    spec.requestProbabilities = cli.getDoubleList("p", {});
    spec.policies = parsePolicyList(cli);
    for (std::int64_t b : cli.getIntList("buffered", {})) {
        if (b != 0 && b != 1)
            cli.fail("--buffered values must be 0 or 1 (got ", b, ")");
        spec.buffering.push_back(b == 1);
    }
    spec.hotFractions = cli.getDoubleList("hot", {});
    spec.favoriteFractions = cli.getDoubleList("favorite", {});

    // Kernel selection applies to every point: materialize() copies
    // the base config, and the fingerprint's kernel marker keeps
    // FastStat records from merging into exact-kernel sweeps.
    const std::string kernel = cli.getString("kernel", "cycleskip");
    if (kernel == "cycleskip")
        spec.base.kernel = KernelKind::CycleSkip;
    else if (kernel == "faststat")
        spec.base.kernel = KernelKind::FastStat;
    else
        cli.fail("--kernel: unknown kernel '", kernel,
                 "' (expected 'cycleskip' or 'faststat')");

    // The precision target and schedule: each value must mean what
    // it says. A level the t table lacks would silently run as a
    // tabulated one, a NaN or negative target would act as 0, and a
    // count past unsigned would wrap to another schedule.
    opt.adaptive = cli.getBool("adaptive", false);
    opt.target.relative = cli.getDouble("rel", 0.05);
    if (!(opt.target.relative >= 0.0))
        cli.fail("--rel must be >= 0 (got ", opt.target.relative, ")");
    opt.target.absolute = cli.getDouble("abs", 0.0);
    if (!(opt.target.absolute >= 0.0))
        cli.fail("--abs must be >= 0 (got ", opt.target.absolute, ")");
    opt.target.level = cli.getDouble("level", 0.95);
    if (opt.target.level != 0.90 && opt.target.level != 0.95 &&
        opt.target.level != 0.99)
        cli.fail("--level must be 0.90, 0.95 or 0.99, the tabulated "
                 "confidence levels (got ", opt.target.level, ")");

    // Range-check the schedule here, naming the flags: a negative
    // value narrowed to unsigned would otherwise surface as an
    // unrelated internal assertion (or a ~4e9-replication round).
    const auto unsignedFlag = [&cli](const char *flag, std::int64_t def) {
        const std::int64_t v = cli.getInt(flag, def);
        if (v > std::numeric_limits<unsigned>::max())
            cli.fail("--", flag, " value ", v,
                     " is out of the unsigned range");
        return v;
    };
    const std::int64_t initial = unsignedFlag("initial", 4);
    if (initial < 2)
        cli.fail("--initial must be >= 2 (got ", initial,
                 "); the first round needs a confidence interval");
    const std::int64_t cap = unsignedFlag("cap", 64);
    if (cap < initial)
        cli.fail("--cap must be >= --initial (got cap=", cap,
                 ", initial=", initial, ")");
    opt.schedule.initial = static_cast<unsigned>(initial);
    opt.schedule.growth = cli.getDouble("growth", 2.0);
    if (!(opt.schedule.growth > 1.0))
        cli.fail("--growth must be > 1 (got ", opt.schedule.growth,
                 "); rounds must add replications");
    opt.schedule.cap = static_cast<unsigned>(cap);

    std::string why;
    if (cli.has("threads")) {
        if (!parseThreadsSpec(cli.getString("threads", "1").c_str(),
                              "--threads", opt.threads, why))
            cli.fail(why);
        // parseThreadsSpec keeps "0 = every usable CPU" symbolic;
        // resolve it here so 0 never reaches runSweepPoints, where 0
        // means "defaultExecThreads()" (serial unless SBN_THREADS is
        // set) instead.
        if (opt.threads == 0)
            opt.threads = hardwareThreads();
    }
    if (!parseShardLayout(cli.getString("layout", "contiguous"),
                          opt.layout, why))
        cli.fail(why);

    const std::int64_t retries = cli.getInt("retries", 2);
    if (retries < 0)
        cli.fail("--retries must be >= 0 (got ", retries, ")");
    if (retries >= kRetryLimit)
        cli.fail("--retries must be < ", kRetryLimit, " (got ", retries,
                 "); a respawn budget that large is a typo");
    opt.retries = static_cast<unsigned>(retries);
    opt.hangTimeout = cli.getDouble("hang-timeout", 0.0);
    if (opt.hangTimeout < 0.0)
        cli.fail("--hang-timeout must be >= 0 seconds (got ",
                 opt.hangTimeout, ")");
    opt.backoffInitial = cli.getDouble("backoff", 0.25);
    if (opt.backoffInitial < 0.0)
        cli.fail("--backoff must be >= 0 seconds (got ",
                 opt.backoffInitial, ")");
    opt.steal = cli.getBool("steal", true);

    const std::int64_t spawn = cli.getInt("spawn", 0);
    if (cli.has("spawn") && spawn < 1)
        cli.fail("--spawn=K needs K >= 1 worker processes");
    opt.spawnShards = static_cast<std::size_t>(spawn);

    if (cli.has("telemetry")) {
        // Bare --telemetry (the parser stores "true") and the boolean
        // spellings toggle collection; any other value names the dump
        // file for front ends that dump at exit.
        const std::string value = cli.getString("telemetry", "");
        if (value == "0" || value == "false") {
            opt.telemetry = false;
        } else {
            opt.telemetry = true;
            if (value != "true" && value != "1" && !value.empty())
                opt.telemetryDump = value;
        }
    }

    // Folding into the base config makes every materialized point
    // collect. collectLatency stays out of the config fingerprint
    // (FastStat keys its streams on it), but a latency run's records
    // get their own run fingerprint (sweepRunFingerprint), so resume
    // and merge never mix latency-on and latency-off records.
    opt.latency = cli.getBool("latency", false);
    spec.base.collectLatency = opt.latency;

    if (cli.has("trace")) {
        // Same grammar as --telemetry: bare/boolean spellings toggle,
        // any other value names the shard directory.
        const std::string value = cli.getString("trace", "");
        if (value == "0" || value == "false") {
            opt.trace = false;
        } else {
            opt.trace = true;
            if (value != "true" && value != "1" && !value.empty())
                opt.traceDir = value;
        }
    }

    if (!spec.validate(why))
        cli.fail(why);
    return opt;
}

void
armSweepTracing(const SweepRunOptions &opt,
                const std::string &default_dir)
{
    if (!traceEnabled()) {
        if (!opt.trace)
            return;
        const std::string dir =
            opt.traceDir.empty() ? default_dir : opt.traceDir;
        if (dir.empty())
            return;
        ::setenv(kTraceDirEnvVar, dir.c_str(), 1);
    }
    // Root context: without this, each traced component of one run
    // (supervisor, merge, adaptive rounds) would invent its own
    // trace id. An inherited context (the daemon's job span) wins.
    if (!inheritedTraceContext().valid())
        exportTraceContext({newTraceId(), 0});
}

bool
tokenizeSpecString(const std::string &spec,
                   std::vector<std::string> &out, std::string &error)
{
    std::vector<std::string> tokens;
    std::string current;
    for (const char c : spec) {
        if (c == '"' || c == '\'' || c == '\\')
            return failWith(error,
                            "spec strings carry no quoting (found '", c,
                            "'); sweep flags never need embedded spaces");
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
            if (!current.empty()) {
                tokens.push_back(current);
                current.clear();
            }
            continue;
        }
        current += c;
    }
    if (!current.empty())
        tokens.push_back(current);
    out = tokens;
    return true;
}

bool
parseSweepSpecString(const std::string &spec, SweepRunOptions &out,
                     std::string &error)
{
    std::vector<std::string> tokens;
    if (!tokenizeSpecString(spec, tokens, error))
        return false;
    std::vector<const char *> argv{"sbn_sweepd-spec"};
    for (const std::string &token : tokens)
        argv.push_back(token.c_str());
    error.clear();
    const CommandLine cli(static_cast<int>(argv.size()), argv.data(),
                          sweepFlagHelp(), &error);
    const SweepRunOptions opt = parseSweepRunOptions(cli);
    if (!error.empty())
        return false;
    out = opt;
    return true;
}

SweepRunOptions
parseSweepSpecString(const std::string &spec)
{
    SweepRunOptions opt;
    std::string error;
    if (!parseSweepSpecString(spec, opt, error))
        sbn_fatal(error);
    // A job spec carrying --telemetry behaves exactly like the local
    // command, which arms collection before any work runs.
    if (opt.telemetry)
        setTelemetryEnabled(true);
    return opt;
}

double
evaluateSweepPoint(const SystemConfig &cfg)
{
    return runEbw(cfg);
}

PointSample
evaluateSweepPointSample(const SystemConfig &cfg)
{
    return runPointSample(cfg);
}

MergeCheck
sweepRunMergeCheck(const SweepRunOptions &opt,
                   const std::vector<SystemConfig> &points)
{
    return opt.adaptive
               ? adaptiveMergeCheck(points, opt.target, opt.schedule)
               : sweepMergeCheck(points);
}

unsigned
sweepThreads(const SweepRunOptions &opt)
{
    return opt.threads != 0 ? opt.threads : defaultExecThreads();
}

SystemConfig
adaptiveReplicationConfig(const SystemConfig &cfg, std::uint64_t seed)
{
    SystemConfig replication = cfg;
    replication.seed = seed;
    replication.collectLatency = false;
    return replication;
}

void
runSweepPoints(const SweepRunOptions &opt,
               const std::vector<SystemConfig> &points,
               const std::vector<std::size_t> &subset,
               const PointRecordCallback &emit, PointClaim *claim)
{
    for (std::size_t k = 0; k < subset.size(); ++k) {
        sbn_assert(subset[k] < points.size(),
                   "sweep subset index out of range");
        sbn_assert(k == 0 || subset[k - 1] < subset[k],
                   "sweep subset indices must be strictly increasing");
    }
    const ParallelRunner runner(sweepThreads(opt));

    if (!opt.adaptive) {
        // Each point is claimed just before it starts; a refused one
        // belongs to a thief, and so does every later one.
        runner.stream<std::optional<PointSample>>(
            subset.size(),
            [&](std::size_t k) -> std::optional<PointSample> {
                if (claim != nullptr && !claim->claim(subset[k]))
                    return std::nullopt;
                return evaluateSweepPointSample(points[subset[k]]);
            },
            [&](std::size_t k, const std::optional<PointSample> &sample) {
                if (sample)
                    emit(makeSweepRecord(subset[k], points[subset[k]],
                                         *sample));
            });
        return;
    }

    // Adaptive rounds span every point, so the whole owned range is
    // claimed at once, before the first round.
    std::vector<SystemConfig> selected;
    selected.reserve(subset.size());
    for (const std::size_t index : subset) {
        if (claim != nullptr && !claim->claim(index))
            break;
        selected.push_back(points[index]);
    }
    const AdaptiveReplicator replicator(runner, opt.target,
                                        opt.schedule);
    replicator.runPoints(
        selected,
        [](const SystemConfig &cfg, std::uint64_t seed) {
            return runEbw(adaptiveReplicationConfig(cfg, seed));
        },
        [&](std::size_t k, const SystemConfig &cfg,
            const AdaptiveEstimate &estimate) {
            emit(makeAdaptiveRecord(subset[k], cfg, estimate,
                                    opt.target, opt.schedule));
        });
}

ShardRunStats
writeSweepPoints(const SweepRunOptions &opt,
                 const std::vector<SystemConfig> &points,
                 const std::vector<std::size_t> &subset,
                 const std::string &path, bool resume,
                 PointClaim *claim)
{
    return runShardPoints(
        subset, sweepRunMergeCheck(opt, points).expectedRunFp, path,
        resume,
        [&](const std::vector<std::size_t> &missing,
            RecordWriter &writer) {
            runSweepPoints(
                opt, points, missing,
                [&](const PointRecord &record) { writer.add(record); },
                claim);
        });
}

ShardRunStats
runSweepShard(const SweepRunOptions &opt, const ShardSpec &shard,
              const std::string &dir, bool resume, PointClaim *claim)
{
    const std::string path = shardFilePath(dir, shard);
    const TraceContext ctx = currentTraceContext();
    const std::uint64_t startUs = traceNowMicros();
    const std::vector<SystemConfig> points = opt.spec.materialize();
    const ShardPlan plan(points.size(), shard.count, opt.layout);
    const ShardRunStats stats = writeSweepPoints(
        opt, points, plan.indices(shard.index), path, resume, claim);
    const unsigned threads = sweepThreads(opt);
    // The worker's own view of the attempt: emitted from inside the
    // (possibly forked) worker process, so a supervised run's merged
    // timeline shows spans from every process of the fleet.
    traceEmitSpan(ctx, "shard_run",
                  "shard " + shard.toString() + " run", ctx.spanId,
                  startUs, traceNowMicros(),
                  {{"owned", std::to_string(stats.owned)},
                   {"resumed", std::to_string(stats.skipped)},
                   {"computed", std::to_string(stats.computed)},
                   {"adaptive", opt.adaptive ? "1" : "0"},
                   {"threads", std::to_string(threads)}});
    std::fprintf(stderr,
                 "shard %s (%s): %zu point(s) owned, %zu resumed, "
                 "%zu computed, %zu split off, %u thread(s) -> %s\n",
                 shard.toString().c_str(),
                 shardLayoutName(opt.layout), stats.owned,
                 stats.skipped, stats.computed,
                 stats.owned - stats.skipped - stats.computed, threads,
                 path.c_str());
    appendTelemetrySidecar(path);
    return stats;
}

WorkerBody
makeSweepWorkerBody(const SweepRunOptions &opt,
                    const std::vector<SystemConfig> &points,
                    const std::string &dir, bool resume_first_launch)
{
    // Each worker defaults to one thread; the daemon's runner names
    // its core share in opt.threads instead.
    SweepRunOptions worker = opt;
    if (worker.threads == 0)
        worker.threads = 1;
    return [worker, &points, dir,
            resume_first_launch](const WorkerTask &task) {
        if (task.steal) {
            const TraceContext ctx = currentTraceContext();
            const std::uint64_t startUs = traceNowMicros();
            // A relaunched thief resumes its own file, as a shard does.
            writeSweepPoints(worker, points, task.points, task.outPath,
                             /*resume=*/task.attempt > 0, task.claim);
            traceEmitSpan(ctx, "steal_run", "thief run",
                          ctx.spanId, startUs, traceNowMicros(),
                          {{"points", std::to_string(task.points.size())},
                           {"threads", std::to_string(worker.threads)}});
            appendTelemetrySidecar(task.outPath);
        } else {
            // A respawn must keep the dead worker's flushed records;
            // first launches honor the caller's resume choice.
            runSweepShard(worker, task.shard, dir,
                          resume_first_launch || task.attempt > 0,
                          task.claim);
        }
    };
}

SupervisedSweepOutcome
runSupervisedSweep(const SweepRunOptions &opt, std::size_t shard_count,
                   const std::string &dir, bool resume_first_launch)
{
    ensureWritableShardDir(dir);

    const std::vector<SystemConfig> points = opt.spec.materialize();
    MergeCheck check = sweepRunMergeCheck(opt, points);
    check.shardCount = shard_count;
    check.layout = opt.layout;
    check.dir = dir;

    SupervisorConfig config;
    config.shardCount = shard_count;
    config.dir = dir;
    config.layout = opt.layout;
    config.expectedRunFp = check.expectedRunFp;
    config.maxRetries = opt.retries;
    config.backoffInitialSeconds = opt.backoffInitial;
    config.hangTimeoutSeconds = opt.hangTimeout;
    config.workStealing = opt.steal;

    ShardSupervisor supervisor(
        config,
        makeSweepWorkerBody(opt, points, dir, resume_first_launch));

    SupervisedSweepOutcome outcome;
    outcome.report = supervisor.run();
    outcome.check = check;
    // An interrupted fleet's output is not a result, partial or
    // otherwise; leave outcome.merged empty in that case.
    if (outcome.report.interruptSignal == 0) {
        const TraceContext ctx = currentTraceContext();
        const std::uint64_t startUs = traceNowMicros();
        outcome.merged =
            collectRecordFiles(outcome.report.recordFiles, check,
                               /*tolerate_partial_tail=*/true);
        traceEmitSpan(
            ctx, "merge", "collect shard records", ctx.spanId,
            startUs, traceNowMicros(),
            {{"files",
              std::to_string(outcome.report.recordFiles.size())},
             {"grid", std::to_string(check.gridSize)}});
        foldBackThieves(outcome);
    }
    return outcome;
}

void
foldBackThieves(const SupervisedSweepOutcome &outcome)
{
    const SupervisorReport &report = outcome.report;
    const MergeCheck &check = outcome.check;
    if (!report.complete || report.interruptSignal != 0 ||
        report.stealLaunches == 0)
        return;
    sbn_assert(outcome.merged.records.size() == check.gridSize,
               "a complete fleet merges one record per point");
    const ShardPlan plan(check.gridSize, check.shardCount, check.layout);
    const std::vector<std::string> canonical =
        shardFilePaths(check.dir, check.shardCount);
    for (std::size_t i = 0; i < check.shardCount; ++i) {
        if (report.shards[i].state == ShardState::Done &&
            report.shards[i].splitPoints == 0)
            continue; // its worker wrote every point of its plan
        std::vector<PointRecord> records;
        for (const std::size_t index : plan.indices(i))
            records.push_back(outcome.merged.records[index]);
        rewriteRecordsAtomic(canonical[i], records);
    }
    for (const std::string &path : report.recordFiles)
        if (std::find(canonical.begin(), canonical.end(), path) ==
            canonical.end())
            std::remove(path.c_str());
}

} // namespace sbn

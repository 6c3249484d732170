/**
 * @file
 * Fault-tolerance tests: the SBN_FAULT grammar, the ShardSupervisor
 * recovery machinery (retry/backoff, liveness, work stealing,
 * graceful exhaustion), and the headline contract - for a fixed
 * seed, any injected single-fault schedule converges to merged
 * output byte-identical to the serial run.
 *
 * The supervisor forks real worker processes from the test binary;
 * worker bodies run single-threaded (sharedParallelRunner(1) is the
 * inline path), so a forked child never touches a thread pool whose
 * threads died at fork.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "service/sweeprun.hh"
#include "shard/fault.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "shard/runner.hh"
#include "shard/supervisor.hh"
#include "util/logging.hh"

namespace sbn {
namespace {

/** Fresh per-process directory, so concurrent test runs never
 *  collide. */
std::string
tempDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "sbn_fault_" +
                            std::to_string(::getpid()) + "_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    ensureWritableShardDir(dir);
    return dir;
}

/** Scoped environment variable; restores "unset" on destruction. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name_, value.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** The small simulation grid the recovery tests sweep (8 points). */
SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.base.numProcessors = 4;
    spec.base.numModules = 4;
    spec.base.warmupCycles = 200;
    spec.base.measureCycles = 2000;
    spec.base.seed = 99;
    spec.memoryRatios = {2, 4};
    spec.requestProbabilities = {0.3, 1.0};
    spec.policies = {ArbitrationPolicy::ProcessorPriority,
                     ArbitrationPolicy::MemoryPriority};
    return spec;
}

double
ebwOf(const SystemConfig &cfg)
{
    return runEbw(cfg);
}

std::string
serialBytes(const std::vector<SystemConfig> &points)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < points.size(); ++i)
        os << formatRecord(makeSweepRecord(
                  i, points[i], PointSample{ebwOf(points[i]), false, {}}))
           << '\n';
    return os.str();
}

/** Supervision config tuned for tests: tiny backoff. */
SupervisorConfig
testConfig(const std::string &dir, const MergeCheck &check,
           std::size_t shard_count)
{
    SupervisorConfig config;
    config.shardCount = shard_count;
    config.dir = dir;
    config.layout = ShardLayout::Contiguous;
    config.expectedRunFp = check.expectedRunFp;
    config.backoffInitialSeconds = 0.02;
    return config;
}

/** Compute @p subset of the plain sweep over @p points, as far as
 *  @p claim admits, into the record file @p path on one thread, as
 *  the shard front ends do. */
void
writePoints(const std::vector<SystemConfig> &points,
            const std::vector<std::size_t> &subset,
            const std::string &path, bool resume,
            PointClaim *claim = nullptr)
{
    SweepRunOptions opt;
    opt.threads = 1;
    writeSweepPoints(opt, points, subset, path, resume, claim);
}

/** Worker body every supervisor test uses: plain sweep, 1 thread. */
WorkerBody
sweepBody(const std::vector<SystemConfig> &points)
{
    return [&points](const WorkerTask &task) {
        writePoints(points, task.points, task.outPath,
                    /*resume=*/task.attempt > 0, task.claim);
    };
}

/** The 32-point grid of the splitting tests: 8 points per shard. */
SweepSpec
splitSpec()
{
    SweepSpec spec = testSpec();
    spec.processors = {2, 4};
    spec.buffering = {false, true};
    return spec;
}

/**
 * Worker body with a costly region: each point shard 3 of 4 owns
 * sleeps 25 ms before it is computed, whichever task computes it.
 * Points are claimed one at a time, just before they start. With
 * @p failFirstThief, the first thief's first attempt exits nonzero
 * right after flushing one record, and its relaunch appends how many
 * records it resumed to dir/thief-resumed.
 */
WorkerBody
slowShardBody(const std::vector<SystemConfig> &points,
              const std::string &dir, bool failFirstThief = false)
{
    return [&points, dir, failFirstThief](const WorkerTask &task) {
        const ShardPlan plan(points.size(), 4);
        const bool failing = failFirstThief && task.attempt == 0 &&
                             task.outPath == dir + "/steal-0.jsonl";
        SweepRunOptions opt;
        opt.threads = 1;
        const ShardRunStats stats = runShardPoints(
            task.points, sweepMergeCheck(points).expectedRunFp,
            task.outPath, /*resume=*/task.attempt > 0,
            [&](const std::vector<std::size_t> &missing,
                RecordWriter &writer) {
                for (const std::size_t index : missing) {
                    if (!task.claim->claim(index))
                        return;
                    if (plan.owner(index) == 3)
                        ::usleep(25000);
                    runSweepPoints(opt, points, {index},
                                   [&](const PointRecord &record) {
                                       writer.add(record);
                                   });
                    if (failing)
                        ::_exit(3);
                }
            });
        if (task.steal && task.attempt > 0) {
            std::ofstream log(dir + "/thief-resumed",
                              std::ios::app);
            log << stats.skipped << '\n';
        }
    };
}

/** How many records each flat index has across @p files. */
std::vector<int>
recordsPerIndex(const std::vector<std::string> &files, std::size_t grid)
{
    std::vector<int> count(grid, 0);
    for (const std::string &path : files)
        for (const PointRecord &record :
             readRecordFile(path, /*tolerate_partial_tail=*/false))
            ++count.at(record.flatIndex);
    return count;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
mergedBytes(const SupervisorReport &report, const MergeCheck &check)
{
    const PartialMerge merged = collectRecordFiles(
        report.recordFiles, check, /*tolerate_partial_tail=*/true);
    std::ostringstream os;
    writeRecords(os, merged.records);
    return os.str();
}

// ------------------------------------------------------- grammar

TEST(FaultPlanParse, AcceptsTheDocumentedClauses)
{
    FaultPlan plan;
    std::string error;

    ASSERT_TRUE(parseFaultPlan("", plan, error));
    EXPECT_FALSE(plan.active);

    ASSERT_TRUE(parseFaultPlan(
        "shard=1,attempt=2,kill_after_records=3,truncate_tail=40",
        plan, error))
        << error;
    EXPECT_TRUE(plan.active);
    EXPECT_EQ(plan.shard, 1u);
    EXPECT_EQ(plan.attempt, 2u);
    EXPECT_EQ(plan.killAfterRecords, 3u);
    EXPECT_EQ(plan.truncateTail, 40u);

    ASSERT_TRUE(parseFaultPlan(
        "shard=any,attempt=any,hang_after_records=2", plan, error))
        << error;
    EXPECT_EQ(plan.shard, kFaultAnyShard);
    EXPECT_EQ(plan.attempt, kFaultAnyAttempt);
    EXPECT_EQ(plan.hangAfterRecords, 2u);

    ASSERT_TRUE(parseFaultPlan("fail_write_at=5", plan, error))
        << error;
    EXPECT_EQ(plan.failWriteAt, 5u);
    EXPECT_EQ(plan.shard, kFaultAnyShard); // default target: any

    ASSERT_TRUE(parseFaultPlan("abort_in_merge", plan, error))
        << error;
    EXPECT_TRUE(plan.abortInMerge);
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;
    const char *bad[] = {
        "shard=x,kill_after_records=1", // non-numeric selector
        "kill_after_records=0",         // zero count
        "kill_after_records=1,,",       // stray comma
        "truncate_tail=8",              // modifier without its action
        "kill_after_records=1,hang_after_records=1", // exclusive
        "shard=1",                      // selectors only, no action
        "abort_in_merge=1",             // flag clause takes no value
        "explode=now",                  // unknown clause
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseFaultPlan(text, plan, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlanParse, AcceptsTheServiceClauses)
{
    FaultPlan plan;
    std::string error;

    // Every documented journal state is a valid crash target.
    for (const char *state : kFaultJournalStates) {
        ASSERT_TRUE(parseFaultPlan(
            std::string("crash_after_journal=") + state, plan,
            error))
            << state << ": " << error;
        EXPECT_TRUE(plan.active);
        EXPECT_EQ(plan.crashAfterJournal, state);
    }

    ASSERT_TRUE(parseFaultPlan("crash_in_merge", plan, error))
        << error;
    EXPECT_TRUE(plan.crashInMerge);

    ASSERT_TRUE(parseFaultPlan("stall_accept", plan, error)) << error;
    EXPECT_TRUE(plan.stallAccept);

    // Service clauses count as actions: selectors + a service clause
    // must not trip the "no action given" check.
    ASSERT_TRUE(parseFaultPlan("attempt=any,crash_in_merge", plan,
                               error))
        << error;
    EXPECT_EQ(plan.attempt, kFaultAnyAttempt);
    EXPECT_TRUE(plan.crashInMerge);
}

TEST(FaultPlanParse, RejectsMalformedServiceClauses)
{
    FaultPlan plan;
    std::string error;
    const char *bad[] = {
        "crash_after_journal",          // needs a state value
        "crash_after_journal=sideways", // unknown journal state
        "crash_after_journal=Running",  // states are lowercase
        "crash_in_merge=1",             // flag clause takes no value
        "stall_accept=yes",             // flag clause takes no value
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseFaultPlan(text, plan, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlanParse, ScopeGatesArming)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("shard=2,attempt=1,kill_after_records=1",
                               plan, error));

    setFaultProcessScope(2, 1);
    EXPECT_TRUE(faultArmed(plan));
    setFaultProcessScope(2, 0);
    EXPECT_FALSE(faultArmed(plan)); // wrong attempt
    setFaultProcessScope(1, 1);
    EXPECT_FALSE(faultArmed(plan)); // wrong shard
    setFaultProcessScope(kFaultNoShard, 0);
    EXPECT_FALSE(faultArmed(plan)); // orchestrators are not shard 2

    ASSERT_TRUE(parseFaultPlan("kill_after_records=1", plan, error));
    EXPECT_TRUE(faultArmed(plan)); // shard=any matches everyone
    setFaultProcessScope(kFaultNoShard, 1);
    EXPECT_FALSE(faultArmed(plan)); // ...at attempt 0 only, by default
    setFaultProcessScope(kFaultNoShard, 0);
}

// ---------------------------------------------- supervised recovery

TEST(Supervisor, CleanFleetMatchesSerialRun)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("clean");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    ShardSupervisor supervisor(testConfig(dir, check, 4),
                               sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.respawns, 0u);
    for (const ShardOutcome &outcome : report.shards) {
        EXPECT_EQ(outcome.state, ShardState::Done);
        EXPECT_EQ(outcome.launches, 1u);
    }
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, SingleFaultKillMatrixConvergesByteIdentically)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string serial = serialBytes(points);

    // Kill shard 1 (2 owned points) at each record boundary, with
    // and without a torn tail - every schedule must converge to the
    // serial bytes via one respawn.
    for (std::size_t k = 1; k <= 2; ++k) {
        for (const bool torn : {false, true}) {
            const std::string dir = tempDir(
                "kill" + std::to_string(k) + (torn ? "t" : ""));
            MergeCheck check = sweepMergeCheck(points);
            check.shardCount = 4;
            check.layout = ShardLayout::Contiguous;
            check.dir = dir;

            std::string fault = "shard=1,kill_after_records=" +
                                std::to_string(k);
            if (torn)
                fault += ",truncate_tail=40";
            const EnvGuard guard(kFaultEnvVar, fault);

            SupervisorConfig config = testConfig(dir, check, 4);
            // A split could take shard 1's second point before the
            // k = 2 kill fires, leaving no respawn to count.
            config.workStealing = false;
            ShardSupervisor supervisor(config, sweepBody(points));
            const SupervisorReport report = supervisor.run();

            ASSERT_TRUE(report.complete) << fault;
            EXPECT_EQ(report.respawns, 1u) << fault;
            EXPECT_EQ(report.shards[1].launches, 2u) << fault;
            EXPECT_EQ(mergedBytes(report, check), serial) << fault;
        }
    }
}

TEST(Supervisor, EveryShardCrashingOnceStillConverges)
{
    // The sampled multi-fault schedule: shard=any kills *each* worker
    // after its first record on attempt 0; all four respawn and
    // resume.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("allcrash");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(kFaultEnvVar,
                         "shard=any,kill_after_records=1,"
                         "truncate_tail=25");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.workStealing = false; // keep the respawn count exact
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.respawns, 4u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, InjectedWriteFailureIsRetried)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("wfail");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 2;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    // The worker's 2nd record append reports a write error through
    // the fatal path (exit 1, not a signal); the respawn runs clean.
    const EnvGuard guard(kFaultEnvVar, "shard=0,fail_write_at=2");
    ShardSupervisor supervisor(testConfig(dir, check, 2),
                               sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.shards[0].launches, 2u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, WorkerExitWakesTheLoopAtOnce)
{
    // Every attempt of the lone shard dies right after its first
    // record, so the fleet needs one relaunch per point, each
    // resuming where the last stopped. With zero backoff only the
    // worker's exit can wake the supervisor: a loop that slept a
    // 20 ms tick per relaunch would need at least 160 ms here.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("wake");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 1;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(kFaultEnvVar,
                         "shard=0,attempt=any,kill_after_records=1");
    SupervisorConfig config = testConfig(dir, check, 1);
    config.backoffInitialSeconds = 0;
    config.maxRetries = static_cast<unsigned>(points.size());
    ShardSupervisor supervisor(config, sweepBody(points));
    const auto start = std::chrono::steady_clock::now();
    const SupervisorReport report = supervisor.run();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;

    ASSERT_TRUE(report.complete);
    EXPECT_GE(report.respawns, 6u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    // A sanitized fork alone costs about one tick, so the bound only
    // tells the two loops apart in an uninstrumented build.
    EXPECT_LT(took.count(), 0.060)
        << report.respawns << " relaunches took " << took.count()
        << " s";
#endif
}

TEST(Supervisor, HungWorkerIsDetectedKilledAndRetried)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("hang");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(kFaultEnvVar,
                         "shard=2,hang_after_records=1");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.hangTimeoutSeconds = 0.3;
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_TRUE(report.shards[2].everHung);
    EXPECT_EQ(report.shards[2].launches, 2u);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, StealRescuesAShardThatNeverMakesProgress)
{
    // Shard 1's first record append fails on *every* attempt, so its
    // own workers can never contribute a single record. Work
    // stealing targets shard faults by scope, so the steal worker
    // (which is not shard 1) computes the victim's points cleanly
    // and the fleet still completes byte-identically.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("steal");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(kFaultEnvVar,
                         "shard=1,attempt=any,fail_write_at=1");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.maxRetries = 0;
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.shards[1].state, ShardState::Exhausted);
    EXPECT_GE(report.stealLaunches, 1u);
    EXPECT_GE(report.stolenPoints, 2u); // shard 1 owns {2, 3}
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, SlowShardIsSplitNotDuplicated)
{
    // Shard 3 of 4 costs 25 ms a point, the others almost nothing, so
    // three slots fall free while shard 3 has most of its points ahead
    // of it. Splitting moves the unstarted ones to thieves: every
    // point runs once, and the fold-back leaves the directory as an
    // unsplit fleet would.
    const std::vector<SystemConfig> points = splitSpec().materialize();
    ASSERT_EQ(points.size(), 32u);
    const std::string dir = tempDir("split");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    ShardSupervisor supervisor(testConfig(dir, check, 4),
                               slowShardBody(points, dir));
    SupervisedSweepOutcome outcome;
    outcome.report = supervisor.run();
    outcome.check = check;
    const SupervisorReport &report = outcome.report;

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.respawns, 0u);
    EXPECT_GE(report.stealLaunches, 1u);
    EXPECT_EQ(report.splits, report.stealLaunches);
    EXPECT_GE(report.shards[3].splitPoints, 1u);
    for (const int count : recordsPerIndex(report.recordFiles,
                                           points.size()))
        EXPECT_EQ(count, 1);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));

    outcome.merged = collectRecordFiles(report.recordFiles, check,
                                        /*tolerate_partial_tail=*/false);
    foldBackThieves(outcome);
    const std::string standalone = dir + "/standalone.jsonl";
    writePoints(points, ShardPlan(points.size(), 4).indices(3),
                standalone, false);
    EXPECT_EQ(fileBytes(shardFilePath(dir, {3, 4})),
              fileBytes(standalone));
    for (const std::string &path : report.recordFiles)
        EXPECT_TRUE(path.find("/steal-") == std::string::npos ||
                    ::access(path.c_str(), F_OK) != 0)
            << path << " was left behind";
    std::ostringstream remerged;
    writeRecords(remerged,
                 mergeRecordFiles(shardFilePaths(dir, 4), check));
    EXPECT_EQ(remerged.str(), serialBytes(points));
}

TEST(Supervisor, FailedThiefIsRetriedAndKeepsItsPoints)
{
    // The first thief dies right after flushing one record. It holds
    // its points alone, so the supervisor relaunches it with resume
    // rather than letting another worker recompute them.
    const std::vector<SystemConfig> points = splitSpec().materialize();
    const std::string dir = tempDir("thieffail");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    ShardSupervisor supervisor(
        testConfig(dir, check, 4),
        slowShardBody(points, dir, /*failFirstThief=*/true));
    const SupervisorReport report = supervisor.run();

    ASSERT_TRUE(report.complete);
    EXPECT_EQ(report.respawns, 1u);
    EXPECT_EQ(fileBytes(dir + "/thief-resumed"), "1\n");
    for (const int count : recordsPerIndex(report.recordFiles,
                                           points.size()))
        EXPECT_EQ(count, 1);
    EXPECT_EQ(mergedBytes(report, check), serialBytes(points));
}

TEST(Supervisor, ExhaustionDegradesToPartialResultAndManifest)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("exhaust");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 4;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const EnvGuard guard(
        kFaultEnvVar, "shard=1,attempt=any,kill_after_records=1");
    SupervisorConfig config = testConfig(dir, check, 4);
    config.maxRetries = 0;
    config.workStealing = false;
    ShardSupervisor supervisor(config, sweepBody(points));
    const SupervisorReport report = supervisor.run();

    ASSERT_FALSE(report.complete);
    EXPECT_EQ(report.shards[1].state, ShardState::Exhausted);
    EXPECT_EQ(report.shards[1].launches, 1u);

    // Shard 1 of 4 owns contiguous indices {2, 3}; the first record
    // (index 2) was flushed before the kill, so exactly {3} is
    // missing - and everything else merged fine.
    ASSERT_EQ(report.missingPoints,
              (std::vector<std::size_t>{3}));
    const PartialMerge merged = collectRecordFiles(
        report.recordFiles, check, /*tolerate_partial_tail=*/true);
    EXPECT_EQ(merged.records.size(), points.size() - 1);
    EXPECT_EQ(merged.missing, report.missingPoints);

    // The machine-readable manifest names the index and the shard
    // file expected to own it.
    const std::string path = missingManifestPath(dir);
    writeMissingPointsManifest(path, check, report.missingPoints);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream os;
    os << in.rdbuf();
    const std::string manifest = os.str();
    EXPECT_NE(manifest.find("\"type\":\"sbn.missing.v1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"count\":1"), std::string::npos);
    EXPECT_NE(manifest.find("\"i\":3"), std::string::npos);
    EXPECT_NE(manifest.find("\"shard\":1"), std::string::npos);
    EXPECT_NE(manifest.find(shardFilePath(dir, {1, 4})),
              std::string::npos);
}

TEST(Supervisor, MissingPointsManifestEscapesTheDirectory)
{
    // A --dir holding a quote and a backslash must still give a
    // manifest that JSON readers accept.
    MergeCheck check = structuralMergeCheck(4);
    check.shardCount = 2;
    check.layout = ShardLayout::Contiguous;
    check.dir = "fleet/q\"d\\x";

    const std::string path = tempDir("manifest-escape") + "/m.json";
    writeMissingPointsManifest(path, check, {3});
    EXPECT_EQ(fileBytes(path),
              "{\"type\":\"sbn.missing.v1\",\"grid\":4,\"shards\":2,"
              "\"layout\":\"contiguous\",\"count\":1,\"missing\":["
              "{\"i\":3,\"shard\":1,"
              "\"file\":\"fleet/q\\\"d\\\\x/shard-1-of-2.jsonl\"}]}\n");
}

TEST(Supervisor, InterruptKillsWorkersAndReportsTheSignal)
{
    // The supervisor's own SIGINT/SIGTERM contract: every live worker
    // is killed and reaped before run() returns, and the report
    // carries the signal so orchestrators can exit 128 + sig. The
    // supervisor runs in a forked child here because the test must
    // deliver a real SIGTERM to it without killing the test binary.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("interrupt");
    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 2;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;

    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Supervisor process. Workers publish their pid and hang
        // forever; only the interrupt path can end this fleet.
        const WorkerBody body = [&dir](const WorkerTask &task) {
            std::ofstream out(dir + "/worker-" +
                              std::to_string(task.shard.index) +
                              ".pid");
            out << ::getpid() << '\n';
            out.close();
            for (;;)
                ::pause();
        };
        ShardSupervisor supervisor(testConfig(dir, check, 2), body);
        const SupervisorReport report = supervisor.run();
        if (report.interruptSignal != SIGTERM)
            ::_exit(7);
        if (report.complete)
            ::_exit(8);
        ::_exit(42);
    }

    // Wait for both workers to publish their pids.
    std::vector<pid_t> workers;
    for (int spin = 0; spin < 2000 && workers.size() < 2; ++spin) {
        workers.clear();
        for (int shard = 0; shard < 2; ++shard) {
            std::ifstream in(dir + "/worker-" +
                             std::to_string(shard) + ".pid");
            pid_t pid = 0;
            if (in >> pid && pid > 0)
                workers.push_back(pid);
        }
        if (workers.size() < 2)
            ::usleep(5000);
    }
    ASSERT_EQ(workers.size(), 2u) << "workers never started";

    ASSERT_EQ(::kill(child, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << describeWaitStatus(status);
    EXPECT_EQ(WEXITSTATUS(status), 42) << describeWaitStatus(status);

    // The supervisor reaped its workers before exiting, so the pids
    // must be gone entirely - not zombies, not orphans.
    for (const pid_t pid : workers) {
        errno = 0;
        EXPECT_EQ(::kill(pid, 0), -1) << "worker " << pid
                                      << " still alive";
        EXPECT_EQ(errno, ESRCH) << "worker " << pid;
    }
}

TEST(FaultDeathTest, AbortInMergeCrashesTheMergeStage)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempDir("abortmerge");
    writePoints(points, ShardPlan(points.size(), 1).indices(0),
                shardFilePath(dir, {0, 1}), false);

    const MergeCheck check = sweepMergeCheck(points);
    EXPECT_DEATH(
        {
            ::setenv(kFaultEnvVar, "abort_in_merge", 1);
            mergeRecordFiles({shardFilePath(dir, {0, 1})}, check);
        },
        "");
}

TEST(FaultDeathTest, MalformedFaultSpecIsFatalNotIgnored)
{
    SystemConfig cfg = testSpec().materialize().front();
    const std::string dir = tempDir("badspec");
    EXPECT_DEATH(
        {
            ::setenv(kFaultEnvVar, "kill_after_records=banana", 1);
            std::vector<SystemConfig> one{cfg};
            writePoints(one, {0}, shardFilePath(dir, {0, 1}), false);
        },
        "must not silently run fault-free");
}

// -------------------------------------------------------- plumbing

TEST(Supervisor, StateNamesAreStable)
{
    EXPECT_STREQ(shardStateName(ShardState::Pending), "pending");
    EXPECT_STREQ(shardStateName(ShardState::Running), "running");
    EXPECT_STREQ(shardStateName(ShardState::Backoff), "backoff");
    EXPECT_STREQ(shardStateName(ShardState::Done), "done");
    EXPECT_STREQ(shardStateName(ShardState::Exhausted), "exhausted");
}

TEST(Supervisor, ManifestPathIsCanonical)
{
    EXPECT_EQ(missingManifestPath("out"), "out/missing-points.json");
    EXPECT_EQ(missingManifestPath("out/"), "out/missing-points.json");
}

} // namespace
} // namespace sbn

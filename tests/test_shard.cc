/**
 * @file
 * Sharded-sweep subsystem tests: deterministic partitioning, record
 * serialization, merge validation, and the core contract - for any
 * shard count, layout and thread count, merged shard output is
 * byte-identical to the single-process streamed run, and a killed
 * shard resumes without recomputing finished points.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/fingerprint.hh"
#include "exec/adaptive.hh"
#include "exec/parallel_runner.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "shard/runner.hh"
#include "service/sweeprun.hh"

namespace sbn {
namespace {

/** Per-process temp path, so concurrent test runs never collide. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "sbn_shard_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The small simulation grid the determinism tests sweep. */
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

double
ebwWithSeed(const SystemConfig &cfg, std::uint64_t seed)
{
    SystemConfig c = cfg;
    c.seed = seed;
    return runEbw(c);
}

/** Sweep options for a plain run on @p threads workers. */
SweepRunOptions
plainOptions(unsigned threads = 0)
{
    SweepRunOptions opt;
    opt.threads = threads;
    return opt;
}

/** Sweep options for an adaptive run on @p threads workers. */
SweepRunOptions
adaptiveOptions(const PrecisionTarget &target,
                const RoundSchedule &schedule, unsigned threads = 0)
{
    SweepRunOptions opt = plainOptions(threads);
    opt.adaptive = true;
    opt.target = target;
    opt.schedule = schedule;
    return opt;
}

/**
 * Run shard @p shard of @p opt's sweep over @p points into @p path,
 * as every shard front end does: the plan picks the subset and
 * writeSweepPoints fills the file.
 */
ShardRunStats
runShard(const SweepRunOptions &opt,
         const std::vector<SystemConfig> &points, const ShardSpec &shard,
         ShardLayout layout, const std::string &path,
         bool resume = false)
{
    const ShardPlan plan(points.size(), shard.count, layout);
    return writeSweepPoints(opt, points, plan.indices(shard.index), path,
                            resume);
}

// ---------------------------------------------------------------- plan

TEST(ShardPlan, PartitionsAreCompleteAndDisjoint)
{
    for (const std::size_t grid : {0ul, 1ul, 7ul, 12ul, 40ul}) {
        for (const std::size_t shards : {1ul, 2ul, 3ul, 5ul, 13ul}) {
            for (const ShardLayout layout :
                 {ShardLayout::Contiguous, ShardLayout::Strided}) {
                const ShardPlan plan(grid, shards, layout);
                std::set<std::size_t> seen;
                for (std::size_t s = 0; s < shards; ++s) {
                    const auto indices = plan.indices(s);
                    EXPECT_EQ(indices.size(), plan.shardSize(s));
                    for (std::size_t k = 0; k < indices.size(); ++k) {
                        if (k > 0) {
                            EXPECT_LT(indices[k - 1], indices[k]);
                        }
                        EXPECT_LT(indices[k], grid);
                        EXPECT_EQ(plan.owner(indices[k]), s);
                        EXPECT_TRUE(seen.insert(indices[k]).second)
                            << "index owned twice";
                    }
                }
                EXPECT_EQ(seen.size(), grid)
                    << "grid " << grid << " shards " << shards;
            }
        }
    }
}

TEST(ShardPlan, ContiguousBalancesTheRemainderUpFront)
{
    const ShardPlan plan(10, 4, ShardLayout::Contiguous);
    EXPECT_EQ(plan.shardSize(0), 3u);
    EXPECT_EQ(plan.shardSize(1), 3u);
    EXPECT_EQ(plan.shardSize(2), 2u);
    EXPECT_EQ(plan.shardSize(3), 2u);
    EXPECT_EQ(plan.indices(1), (std::vector<std::size_t>{3, 4, 5}));
}

TEST(ShardPlan, StridedSamplesTheWholeRange)
{
    const ShardPlan plan(10, 4, ShardLayout::Strided);
    EXPECT_EQ(plan.indices(1), (std::vector<std::size_t>{1, 5, 9}));
}

TEST(ShardSpecParse, AcceptsCanonicalForms)
{
    const ShardSpec spec = ShardSpec::parse("2/4");
    EXPECT_EQ(spec.index, 2u);
    EXPECT_EQ(spec.count, 4u);
    EXPECT_EQ(spec.toString(), "2/4");
}

TEST(ShardSpecParseDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH((void)ShardSpec::parse(""), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("3"), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("/4"), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("1/"), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("a/4"), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("1/4x"), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("-1/4"), "malformed");
    EXPECT_DEATH((void)ShardSpec::parse("4/4"), "out of range");
    EXPECT_DEATH((void)ShardSpec::parse("0/0"), "must be >= 1");
}

// ------------------------------------------------------------- records

PointRecord
sampleRecord()
{
    SystemConfig cfg;
    cfg.seed = 1234;
    AdaptiveEstimate estimate;
    estimate.estimate.mean = 3.0169472740767436;
    estimate.estimate.halfWidth = 0.001953125;
    estimate.estimate.samples = 8;
    estimate.rounds = 2;
    estimate.converged = true;
    return makeAdaptiveRecord(7, cfg, estimate, PrecisionTarget{},
                              RoundSchedule{});
}

TEST(PointRecordIo, RoundTripsBitExactly)
{
    const PointRecord record = sampleRecord();
    PointRecord parsed;
    std::string error;
    ASSERT_TRUE(parseRecord(formatRecord(record), parsed, error))
        << error;
    EXPECT_TRUE(parsed.bitIdentical(record));
    // Deterministic serialization: same record, same bytes.
    EXPECT_EQ(formatRecord(record), formatRecord(parsed));
}

TEST(PointRecordIo, RoundTripsAwkwardDoubles)
{
    SystemConfig cfg;
    for (const double value :
         {0.0, -0.0, 1.0 / 3.0, 1e-308, 6.3e303, 0.1}) {
        const PointRecord record =
            makeSweepRecord(0, cfg, PointSample{value, false, {}});
        PointRecord parsed;
        std::string error;
        ASSERT_TRUE(parseRecord(formatRecord(record), parsed, error))
            << error;
        EXPECT_TRUE(parsed.bitIdentical(record)) << value;
    }
}

TEST(PointRecordIo, StrictParserRejectsTampering)
{
    const std::string good = formatRecord(sampleRecord());
    PointRecord parsed;
    std::string error;

    // Unknown type tag (v2 records predate the latency group).
    std::string bad = good;
    bad.replace(bad.find("sbn.point.v3"), 12, "sbn.point.v2");
    EXPECT_FALSE(parseRecord(bad, parsed, error));

    // Empty workload name.
    bad = good;
    bad.replace(bad.find("\"workload\":\"uniform\""), 20,
                "\"workload\":\"\"");
    EXPECT_FALSE(parseRecord(bad, parsed, error));

    // Missing key.
    bad = good;
    bad.replace(bad.find(",\"seed\""), 1, "");
    EXPECT_FALSE(parseRecord(bad, parsed, error));

    // Decimal/bits disagreement: nudge the decimal mean only.
    bad = good;
    const std::size_t mean_pos = bad.find("\"mean\":");
    bad.replace(mean_pos + 7, 1, "4");
    EXPECT_FALSE(parseRecord(bad, parsed, error));
    EXPECT_NE(error.find("disagrees"), std::string::npos) << error;

    // Trailing junk.
    EXPECT_FALSE(parseRecord(good + "x", parsed, error));

    // Unknown extra key.
    bad = good;
    bad.insert(bad.size() - 1, ",\"extra\":1");
    EXPECT_FALSE(parseRecord(bad, parsed, error));

    // Nested objects are not part of the grammar.
    EXPECT_FALSE(parseRecord("{\"type\":{}}", parsed, error));
}

TEST(PointRecordIo, LenientReadDropsOnlyATruncatedTail)
{
    const std::string path = tempPath("lenient.jsonl");
    const PointRecord record = sampleRecord();
    {
        std::ofstream out(path);
        out << formatRecord(record) << '\n'
            << formatRecord(record).substr(0, 40); // killed mid-append
    }
    const auto records =
        readRecordFile(path, /*tolerate_partial_tail=*/true);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].bitIdentical(record));
    std::remove(path.c_str());
}

TEST(PointRecordIoDeathTest, StrictReadRejectsTruncatedTail)
{
    const std::string path = tempPath("strict.jsonl");
    {
        std::ofstream out(path);
        out << formatRecord(sampleRecord()) << '\n' << "{\"type\":";
    }
    EXPECT_DEATH((void)readRecordFile(path, false), "malformed");
    std::remove(path.c_str());
}

TEST(ShardDir, WritableDirectoryPasses)
{
    const std::string dir = tempPath("writable_dir");
    ensureWritableShardDir(dir); // creates it
    ensureWritableShardDir(dir); // and accepts it existing
    ::rmdir(dir.c_str());
}

TEST(ShardDirDeathTest, FatalWhenShardDirIsAFile)
{
    // The classic mid-run failure: --shard-dir points at an existing
    // regular file. This must fail up front with a clear message (and
    // unlike a permissions probe it fails for root too).
    const std::string path = tempPath("dir_is_a_file");
    {
        std::ofstream out(path);
        out << "not a directory\n";
    }
    EXPECT_DEATH(ensureWritableShardDir(path), "not a directory");
    std::remove(path.c_str());
}

TEST(ShardDirDeathTest, FatalWhenParentMissing)
{
    const std::string dir =
        tempPath("no_such_parent") + "/nested/shards";
    EXPECT_DEATH(ensureWritableShardDir(dir),
                 "cannot create shard directory");
}

TEST(ShardDirDeathTest, FatalWhenDirectoryIsReadOnly)
{
    if (::geteuid() == 0)
        GTEST_SKIP() << "running as root: permission bits are "
                        "advisory, the write probe would succeed";
    const std::string dir = tempPath("readonly_dir");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0) << dir;
    ASSERT_EQ(::chmod(dir.c_str(), 0555), 0);
    EXPECT_DEATH(ensureWritableShardDir(dir), "is not writable");
    ::chmod(dir.c_str(), 0777);
    ::rmdir(dir.c_str());
}

// --------------------------------------------------------------- merge

TEST(Merge, AcceptsBitIdenticalDuplicatesAcrossFiles)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string a = tempPath("dup_a.jsonl");
    const std::string b = tempPath("dup_b.jsonl");
    runShard(plainOptions(), points, {0, 2}, ShardLayout::Contiguous, a);
    // Shard 1's file recomputes the whole grid: overlap with shard 0
    // is bit-identical, so the merge keeps one copy of each.
    runShard(plainOptions(), points, {0, 1}, ShardLayout::Contiguous, b);
    const auto merged =
        mergeRecordFiles({a, b}, sweepMergeCheck(points));
    EXPECT_EQ(merged.size(), points.size());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(MergeDeathTest, RejectsHolesConflictsAndForeignRecords)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string a = tempPath("bad_a.jsonl");
    runShard(plainOptions(), points, {0, 2}, ShardLayout::Contiguous, a);

    // Holes: shard 1 of 2 never ran.
    EXPECT_DEATH(
        (void)mergeRecordFiles({a}, sweepMergeCheck(points)),
        "have no record");

    // Foreign records: same file against a different-seed sweep.
    std::vector<SystemConfig> other = points;
    for (SystemConfig &cfg : other)
        cfg.seed += 1;
    EXPECT_DEATH(
        (void)mergeRecordFiles({a}, sweepMergeCheck(other)),
        "different grid, seed, or precision");

    // Conflicting duplicate: flip a value but keep fingerprints.
    const auto records = readRecordFile(a, false);
    const std::string b = tempPath("bad_b.jsonl");
    {
        RecordWriter writer(b, false);
        PointRecord tampered = records[0];
        tampered.mean += 1.0;
        writer.add(tampered);
    }
    EXPECT_DEATH((void)mergeRecordFiles(
                     {a, b}, structuralMergeCheck(points.size())),
                 "appears twice with different contents");

    std::remove(a.c_str());
    std::remove(b.c_str());
}

// -------------------------------------------------- determinism core

/** Serial reference: the streamed run's records, serialized. */
std::string
serialSweepBytes(const std::vector<SystemConfig> &points,
                 unsigned threads)
{
    ParallelRunner runner(threads);
    std::ostringstream os;
    runner.stream<double>(
        points.size(), [&](std::size_t i) { return ebwOf(points[i]); },
        [&](std::size_t i, const double &value) {
            const PointSample sample{value, false, {}};
            os << formatRecord(makeSweepRecord(i, points[i], sample))
               << '\n';
        });
    return os.str();
}

std::string
serialAdaptiveBytes(const std::vector<SystemConfig> &points,
                    const PrecisionTarget &target,
                    const RoundSchedule &schedule, unsigned threads)
{
    ParallelRunner runner(threads);
    const AdaptiveReplicator replicator(runner, target, schedule);
    std::ostringstream os;
    replicator.runPoints(
        points, ebwWithSeed,
        [&](std::size_t i, const SystemConfig &cfg,
            const AdaptiveEstimate &estimate) {
            os << formatRecord(makeAdaptiveRecord(i, cfg, estimate,
                                                  target, schedule))
               << '\n';
        });
    return os.str();
}

std::string
mergedBytes(const std::vector<PointRecord> &records)
{
    std::ostringstream os;
    writeRecords(os, records);
    return os.str();
}

TEST(ShardDeterminism, MergedSweepIsByteIdenticalToSerial)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string serial = serialSweepBytes(points, 1);

    for (const unsigned threads : {1u, 4u}) {
        // The serial stream itself is thread-count invariant.
        EXPECT_EQ(serialSweepBytes(points, threads), serial);

        for (const std::size_t shards : {1ul, 2ul, 3ul, 5ul}) {
            for (const ShardLayout layout :
                 {ShardLayout::Contiguous, ShardLayout::Strided}) {
                std::vector<std::string> paths;
                for (std::size_t s = 0; s < shards; ++s) {
                    paths.push_back(tempPath(
                        "det_" + std::to_string(threads) + "_" +
                        std::to_string(shards) + "_" +
                        std::to_string(s) + ".jsonl"));
                    runShard(plainOptions(threads), points,
                             {s, shards}, layout, paths.back());
                }
                const auto merged = mergeRecordFiles(
                    paths, sweepMergeCheck(points));
                EXPECT_EQ(mergedBytes(merged), serial)
                    << shards << " shards, " << threads
                    << " thread(s), " << shardLayoutName(layout);
                for (const std::string &path : paths)
                    std::remove(path.c_str());
            }
        }
    }
}

TEST(ShardDeterminism, MergedAdaptiveSweepIsByteIdenticalToSerial)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;

    const std::string serial =
        serialAdaptiveBytes(points, target, schedule, 1);
    EXPECT_EQ(serialAdaptiveBytes(points, target, schedule, 4),
              serial);

    for (const std::size_t shards : {2ul, 4ul}) {
        for (const unsigned threads : {1u, 4u}) {
            std::vector<std::string> paths;
            for (std::size_t s = 0; s < shards; ++s) {
                paths.push_back(tempPath(
                    "adet_" + std::to_string(threads) + "_" +
                    std::to_string(shards) + "_" +
                    std::to_string(s) + ".jsonl"));
                runShard(adaptiveOptions(target, schedule, threads),
                         points, {s, shards}, ShardLayout::Strided,
                         paths.back());
            }
            const auto merged = mergeRecordFiles(
                paths, adaptiveMergeCheck(points, target, schedule));
            EXPECT_EQ(mergedBytes(merged), serial)
                << shards << " shards, " << threads << " thread(s)";
            for (const std::string &path : paths)
                std::remove(path.c_str());
        }
    }
}

TEST(SweepPoints, SubsetEmitsGlobalIndicesInOrder)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    std::vector<std::size_t> every(points.size());
    std::iota(every.begin(), every.end(), std::size_t{0});
    const std::vector<std::size_t> subset{1, 2, 5};
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;

    for (const bool adaptive : {false, true}) {
        SweepRunOptions opt =
            adaptive ? adaptiveOptions(target, schedule, 1)
                     : plainOptions(1);
        std::vector<std::string> full;
        runSweepPoints(opt, points, every,
                       [&](const PointRecord &record) {
                           full.push_back(formatRecord(record));
                       });
        ASSERT_EQ(full.size(), points.size());

        for (const unsigned threads : {1u, 4u}) {
            opt.threads = threads;
            std::vector<std::size_t> emitted;
            runSweepPoints(opt, points, subset,
                           [&](const PointRecord &record) {
                               emitted.push_back(record.flatIndex);
                               EXPECT_EQ(formatRecord(record),
                                         full[record.flatIndex])
                                   << (adaptive ? "adaptive" : "plain")
                                   << ", " << threads << " thread(s)";
                           });
            EXPECT_EQ(emitted, subset)
                << (adaptive ? "adaptive" : "plain") << ", " << threads
                << " thread(s)";
        }
    }
}

TEST(SweepPoints, AdaptiveReplicationsRunWithoutLatency)
{
    SystemConfig cfg = testSpec().materialize().front();
    cfg.kernel = KernelKind::FastStat;
    cfg.collectLatency = true;
    const SystemConfig replication = adaptiveReplicationConfig(cfg, 7);
    EXPECT_FALSE(replication.collectLatency);
    SystemConfig reseeded = cfg;
    reseeded.seed = 7;
    EXPECT_EQ(configFingerprint(replication), configFingerprint(reseeded));

    // Dropping the histograms must not move a byte: an adaptive record
    // carries no latency, and FastStat's streams ignore the flag.
    const std::string flags =
        "--kernel=faststat --adaptive --n=4 --m=4 --r=2,4 --p=0.3,1.0 "
        "--warmup=200 --measure=2000 --initial=2 --cap=4 --threads=2";
    std::vector<std::string> lines[2];
    for (const bool latency : {false, true}) {
        const SweepRunOptions opt =
            parseSweepSpecString(flags + (latency ? " --latency" : ""));
        const std::vector<SystemConfig> points = opt.spec.materialize();
        std::vector<std::size_t> every(points.size());
        std::iota(every.begin(), every.end(), std::size_t{0});
        runSweepPoints(opt, points, every,
                       [&](const PointRecord &record) {
                           lines[latency].push_back(
                               formatRecord(record));
                       });
    }
    ASSERT_EQ(lines[0].size(), 4u);
    EXPECT_EQ(lines[1], lines[0]);
}

TEST(SweepPointsDeathTest, RejectsOutOfRangeAndNonIncreasingSubsets)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const PointRecordCallback ignore = [](const PointRecord &) {};
    for (const bool adaptive : {false, true}) {
        SweepRunOptions opt = plainOptions(1);
        opt.adaptive = adaptive;
        EXPECT_DEATH(runSweepPoints(opt, points, {0, points.size()},
                                    ignore),
                     "out of range");
        EXPECT_DEATH(runSweepPoints(opt, points, {2, 1}, ignore),
                     "strictly increasing");
        EXPECT_DEATH(runSweepPoints(opt, points, {3, 3}, ignore),
                     "strictly increasing");
    }
}

// -------------------------------------------------------------- resume

TEST(ShardResume, SkipsFinishedPointsAndReproducesIdenticalRecords)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const ShardSpec shard{0, 1};
    const std::string fresh = tempPath("resume_fresh.jsonl");
    runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
             fresh);
    const std::string fresh_bytes = fileBytes(fresh);

    // Kill after 3 records plus half a line; resume must keep the 3,
    // recompute the rest, and converge to the identical file.
    const std::string killed = tempPath("resume_killed.jsonl");
    {
        const auto records = readRecordFile(fresh, false);
        std::ofstream out(killed, std::ios::binary);
        for (std::size_t i = 0; i < 3; ++i)
            out << formatRecord(records[i]) << '\n';
        out << formatRecord(records[3]).substr(0, 25);
    }
    const ShardRunStats stats =
        runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
                 killed, /*resume=*/true);
    EXPECT_EQ(stats.owned, points.size());
    EXPECT_EQ(stats.skipped, 3u);
    EXPECT_EQ(stats.computed, points.size() - 3)
        << "resume recomputed finished points";
    EXPECT_EQ(fileBytes(killed), fresh_bytes);

    // Resuming a complete file computes nothing at all.
    EXPECT_EQ(runShard(plainOptions(), points, shard,
                       ShardLayout::Contiguous, killed, /*resume=*/true)
                  .computed,
              0u);
    EXPECT_EQ(fileBytes(killed), fresh_bytes);

    std::remove(fresh.c_str());
    std::remove(killed.c_str());
}

TEST(ShardResume, DiscardsStaleRecordsFromADifferentSetup)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    const ShardSpec shard{0, 1};

    // Records for a different seed: every fingerprint mismatches, so
    // a resume recomputes everything and ends bit-identical to a
    // fresh run.
    std::vector<SystemConfig> other = points;
    for (SystemConfig &cfg : other)
        cfg.seed += 17;
    const std::string path = tempPath("resume_stale.jsonl");
    runShard(plainOptions(), other, shard, ShardLayout::Contiguous, path);

    const ShardRunStats stats =
        runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
                 path, /*resume=*/true);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_EQ(stats.computed, points.size());

    const std::string fresh = tempPath("resume_stale_fresh.jsonl");
    runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
             fresh);
    EXPECT_EQ(fileBytes(path), fileBytes(fresh));

    std::remove(path.c_str());
    std::remove(fresh.c_str());
}

/** testSpec()'s points with latency collection on (--latency). */
std::vector<SystemConfig>
latencyPoints()
{
    SweepSpec spec = testSpec();
    spec.base.collectLatency = true;
    return spec.materialize();
}

/**
 * Write @p points' latency records to @p path the way builds did
 * before latency records got their own run fingerprint: under the
 * latency-free one.
 */
void
writeLatencyRecordsUnderOldFingerprint(
    const std::vector<SystemConfig> &points, const std::string &path)
{
    const std::string fresh = path + ".fresh";
    runShard(plainOptions(), points, {0, 1}, ShardLayout::Contiguous,
             fresh);
    RecordWriter writer(path, false);
    for (PointRecord record : readRecordFile(fresh, false)) {
        EXPECT_TRUE(record.hasLatency);
        record.runFp = sweepRunFingerprint(record.configFp, false);
        writer.add(record);
    }
    std::remove(fresh.c_str());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(ShardResume, RecomputesRecordsOfTheOtherLatencyKind)
{
    const std::vector<SystemConfig> plain = testSpec().materialize();
    const std::vector<SystemConfig> latency = latencyPoints();
    const ShardSpec shard{0, 1};
    const std::string plain_fresh = tempPath("lat_plain_fresh.jsonl");
    const std::string latency_fresh = tempPath("lat_on_fresh.jsonl");
    runShard(plainOptions(), plain, shard, ShardLayout::Contiguous,
             plain_fresh);
    runShard(plainOptions(), latency, shard, ShardLayout::Contiguous,
             latency_fresh);
    const std::string plain_bytes = fileBytes(plain_fresh);
    const std::string latency_bytes = fileBytes(latency_fresh);
    ASSERT_NE(latency_bytes.find("\"lat_n\":"), std::string::npos);
    ASSERT_EQ(plain_bytes.find("\"lat_n\":"), std::string::npos);

    // Each resume starts from a file of the other kind, or of latency
    // records under the old latency-free fingerprint, and must
    // recompute every point into a fresh run's exact bytes.
    const std::string path = tempPath("lat_resume.jsonl");
    auto resumeRecomputesAll = [&](const std::vector<SystemConfig> &points,
                                   const std::string &expected) {
        const ShardRunStats stats =
            runShard(plainOptions(), points, shard,
                     ShardLayout::Contiguous, path, /*resume=*/true);
        EXPECT_EQ(stats.skipped, 0u);
        EXPECT_EQ(stats.computed, points.size());
        EXPECT_EQ(fileBytes(path), expected);
    };
    writeFile(path, plain_bytes);
    resumeRecomputesAll(latency, latency_bytes);
    writeFile(path, latency_bytes);
    resumeRecomputesAll(plain, plain_bytes);
    writeLatencyRecordsUnderOldFingerprint(latency, path);
    resumeRecomputesAll(latency, latency_bytes);
    // The old records match a plain run's fingerprint; their lat_*
    // group is what marks them stale.
    writeLatencyRecordsUnderOldFingerprint(latency, path);
    resumeRecomputesAll(plain, plain_bytes);

    std::remove(path.c_str());
    std::remove(plain_fresh.c_str());
    std::remove(latency_fresh.c_str());
}

TEST(MergeDeathTest, RefusesLatencyRecordsUnderTheOldFingerprint)
{
    const std::vector<SystemConfig> latency = latencyPoints();
    const std::string path = tempPath("lat_stale_merge.jsonl");
    writeLatencyRecordsUnderOldFingerprint(latency, path);

    // --merge --latency: the run fingerprint no longer matches.
    EXPECT_DEATH((void)mergeRecordFiles({path}, sweepMergeCheck(latency)),
                 "lat_stale_merge.jsonl' carries run fingerprint");
    // Plain --merge: the fingerprint matches, the lat_* group does not.
    EXPECT_DEATH((void)mergeRecordFiles(
                     {path}, sweepMergeCheck(testSpec().materialize())),
                 "lat_stale_merge.jsonl' has a lat_\\* group");

    std::remove(path.c_str());
}

TEST(ShardResume, ReadsATailTornMidFloat)
{
    // A worker killed mid-append can cut the line anywhere - including
    // inside a floating-point token. The lenient tail read must drop
    // exactly that line and the resume must converge byte-identically.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const ShardSpec shard{0, 1};
    const std::string fresh = tempPath("torn_fresh.jsonl");
    runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
             fresh);
    const std::string fresh_bytes = fileBytes(fresh);

    // Cut the final line a few characters into its last "0x..." bit
    // pattern: a float value torn mid-token.
    const std::size_t cut = fresh_bytes.rfind("0x") + 5;
    ASSERT_LT(cut, fresh_bytes.size());
    const std::string torn = tempPath("torn_midfloat.jsonl");
    {
        std::ofstream out(torn, std::ios::binary);
        out << fresh_bytes.substr(0, cut);
    }

    const auto parsed = readRecordFile(torn, true);
    EXPECT_EQ(parsed.size(), points.size() - 1);

    const ShardRunStats stats =
        runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
                 torn, /*resume=*/true);
    EXPECT_EQ(stats.skipped, points.size() - 1);
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_EQ(fileBytes(torn), fresh_bytes);

    std::remove(fresh.c_str());
    std::remove(torn.c_str());
}

TEST(ShardResume, RemovesStaleRewriteTemps)
{
    // A worker killed between writing the rewrite temp and renaming
    // it leaves "<file>.tmp.<pid>" behind; the rename never happened,
    // so the temp is garbage a resume must clean up.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const ShardSpec shard{0, 1};
    const std::string path = tempPath("staletmp.jsonl");
    runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
             path);
    const std::string bytes = fileBytes(path);

    const std::string stale = path + ".tmp.4242";
    {
        std::ofstream out(stale);
        out << "partial rewrite from a dead worker\n";
    }
    EXPECT_EQ(removeStaleRewriteTemps(path), 1u);
    struct stat info;
    EXPECT_NE(::stat(stale.c_str(), &info), 0) << "temp not removed";
    EXPECT_EQ(removeStaleRewriteTemps(path), 0u); // idempotent

    // And the resume path does it implicitly.
    {
        std::ofstream out(stale);
        out << "again\n";
    }
    runShard(plainOptions(), points, shard, ShardLayout::Contiguous,
             path, /*resume=*/true);
    EXPECT_NE(::stat(stale.c_str(), &info), 0);
    EXPECT_EQ(fileBytes(path), bytes);

    std::remove(path.c_str());
}

TEST(MergeDeathTest, MissingPointReportNamesOwnerFilesAndIndices)
{
    // Strict-merge holes must name the exact missing indices and the
    // shard file expected to own them, not just a count.
    const std::vector<SystemConfig> points = testSpec().materialize();
    const std::string dir = tempPath("missing_report");
    ensureWritableShardDir(dir);
    runShard(plainOptions(), points, {0, 2}, ShardLayout::Contiguous,
             shardFilePath(dir, {0, 2}));

    MergeCheck check = sweepMergeCheck(points);
    check.shardCount = 2;
    check.layout = ShardLayout::Contiguous;
    check.dir = dir;
    EXPECT_DEATH(
        (void)mergeRecordFiles({shardFilePath(dir, {0, 2})}, check),
        "shard-1-of-2.jsonl: 4 missing \\(indices 4, 5, 6, 7\\)");

    std::remove(shardFilePath(dir, {0, 2}).c_str());
    ::rmdir(dir.c_str());
}

TEST(ShardResume, AdaptiveResumeSkipsConvergedPoints)
{
    const std::vector<SystemConfig> points = testSpec().materialize();
    PrecisionTarget target;
    target.relative = 0.02;
    RoundSchedule schedule;
    schedule.initial = 2;
    schedule.cap = 8;
    const ShardSpec shard{1, 2};

    const SweepRunOptions opt = adaptiveOptions(target, schedule);
    const std::string fresh = tempPath("aresume_fresh.jsonl");
    runShard(opt, points, shard, ShardLayout::Contiguous, fresh);
    const std::string fresh_bytes = fileBytes(fresh);

    const std::string killed = tempPath("aresume_killed.jsonl");
    {
        const auto records = readRecordFile(fresh, false);
        std::ofstream out(killed, std::ios::binary);
        out << formatRecord(records[0]) << '\n';
    }
    const ShardRunStats stats =
        runShard(opt, points, shard, ShardLayout::Contiguous, killed,
                 /*resume=*/true);
    EXPECT_EQ(stats.skipped, 1u);
    EXPECT_GT(stats.computed, 0u);
    EXPECT_EQ(fileBytes(killed), fresh_bytes);

    std::remove(fresh.c_str());
    std::remove(killed.c_str());
}

// ------------------------------------------------------- fingerprints

TEST(Fingerprint, DistinguishesResultDeterminingFields)
{
    SystemConfig base;
    const std::uint64_t fp = configFingerprint(base);

    SystemConfig changed = base;
    changed.seed += 1;
    EXPECT_NE(configFingerprint(changed), fp);

    changed = base;
    changed.requestProbability = 0.5;
    EXPECT_NE(configFingerprint(changed), fp);

    changed = base;
    changed.policy = ArbitrationPolicy::MemoryPriority;
    EXPECT_NE(configFingerprint(changed), fp);

    // Workload fields are result-determining.
    changed = base;
    changed.workload.pattern = ReferencePattern::HotSpot;
    changed.workload.hotFraction = 0.25;
    EXPECT_NE(configFingerprint(changed), fp);

    changed = base;
    changed.workload.think = ThinkModel::TwoClass;
    changed.workload.fastCount = 2;
    changed.workload.fastProbability = 0.9;
    changed.workload.slowProbability = 0.1;
    EXPECT_NE(configFingerprint(changed), fp);

    // Passive collection flags are excluded. FastStat keys its RNG
    // streams on this fingerprint, so folding either flag in would
    // silently change FastStat's trajectory whenever collection is on.
    changed = base;
    changed.collectPerModule = true;
    EXPECT_EQ(configFingerprint(changed), fp);

    changed = base;
    changed.collectLatency = true;
    EXPECT_EQ(configFingerprint(changed), fp);

    EXPECT_TRUE(formatFingerprint(fp).rfind("0x", 0) == 0);
    std::uint64_t parsed = 0;
    EXPECT_TRUE(parseFingerprint(formatFingerprint(fp), parsed));
    EXPECT_EQ(parsed, fp);
    EXPECT_FALSE(parseFingerprint("0x123", parsed));
    EXPECT_FALSE(parseFingerprint("123", parsed));
}

TEST(Fingerprint, RunFingerprintsBindTheMode)
{
    const std::uint64_t config_fp = configFingerprint(SystemConfig{});
    const std::uint64_t sweep_fp = sweepRunFingerprint(config_fp, false);
    // Latency records name their binning rule; records without
    // latency keep the rule-free fingerprint they have always had.
    EXPECT_NE(sweepRunFingerprint(config_fp, true), sweep_fp);
    EXPECT_EQ(sweep_fp, fingerprintMix(config_fp, 0x53574545502e7631ull));
    PrecisionTarget target;
    RoundSchedule schedule;
    const std::uint64_t adaptive_fp =
        adaptiveRunFingerprint(config_fp, target, schedule);
    EXPECT_NE(sweep_fp, adaptive_fp);

    PrecisionTarget tighter = target;
    tighter.relative = 0.01;
    EXPECT_NE(adaptiveRunFingerprint(config_fp, tighter, schedule),
              adaptive_fp);
    RoundSchedule larger = schedule;
    larger.cap = 128;
    EXPECT_NE(adaptiveRunFingerprint(config_fp, target, larger),
              adaptive_fp);
}

} // namespace
} // namespace sbn

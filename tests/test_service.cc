/**
 * @file
 * Service-layer tests: the sbn_sweepd wire protocol (flat JSON
 * parse/format round trips and strictness), the crash-safe job
 * journal (format, fsynced append, last-write-wins replay, torn-tail
 * leniency), spec tokenization, the exit-code contract both tools
 * and CI scripts branch on, and the results round trip of a forked
 * daemon. The daemon's end-to-end behavior - kill-anywhere recovery,
 * cancel, drain, backpressure - is exercised with real processes by
 * the `service`-labelled tools/ ctest scripts (docs/service.md).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "error_match.hh"
#include "exec/parallel_runner.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/journal.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/sweeprun.hh"
#include "shard/fault.hh"
#include "telemetry/telemetry.hh"
#include "util/exit_codes.hh"
#include "util/logging.hh"

namespace sbn {
namespace {

/** Per-process temp path, so concurrent test runs never collide. */
std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "sbn_service_" +
                             std::to_string(::getpid()) + "_" + name;
    std::remove(path.c_str());
    return path;
}

// ------------------------------------------------------ flat JSON

TEST(FlatJson, ParsesScalarsStrictly)
{
    JsonObject object;
    std::string error;
    ASSERT_TRUE(parseFlatJsonObject(
        "{\"s\":\"a b\",\"n\":-2.5,\"t\":true,\"f\":false,"
        "\"z\":null}",
        object, error))
        << error;
    EXPECT_EQ(object.size(), 5u);
    EXPECT_EQ(object["s"].kind, JsonScalar::Kind::String);
    EXPECT_EQ(object["s"].text, "a b");
    EXPECT_EQ(object["n"].kind, JsonScalar::Kind::Number);
    EXPECT_DOUBLE_EQ(object["n"].number, -2.5);
    EXPECT_TRUE(object["t"].boolean);
    EXPECT_FALSE(object["f"].boolean);
    EXPECT_EQ(object["z"].kind, JsonScalar::Kind::Null);

    ASSERT_TRUE(parseFlatJsonObject("{}", object, error)) << error;
    EXPECT_TRUE(object.empty());
}

TEST(FlatJson, RejectsWhatTheProtocolForbids)
{
    JsonObject object;
    std::string error;
    const char *bad[] = {
        "",                           // not an object
        "[1,2]",                      // not an object
        "{\"a\":1} trailing",         // trailing bytes
        "{\"a\":1,\"a\":2}",          // duplicate key
        "{\"a\":{\"b\":1}}",          // nesting
        "{\"a\":[1]}",                // nesting
        "{\"a\":nope}",               // malformed literal
        "{\"a\":1e999}",              // non-finite number
        "{\"a\":\"unterminated",      // unterminated string
        "{\"a\":\"bad\\qescape\"}",   // unsupported escape
        "{\"a\" 1}",                  // missing colon
        "{\"a\":1 \"b\":2}",          // missing comma
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseFlatJsonObject(text, object, error))
            << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FlatJson, EscapeRoundTrips)
{
    const std::string nasty = "a\"b\\c\nd\te\rf/g";
    JsonObject object;
    std::string error;
    ASSERT_TRUE(parseFlatJsonObject(
        "{\"k\":\"" + jsonEscape(nasty) + "\"}", object, error))
        << error;
    EXPECT_EQ(object["k"].text, nasty);
}

TEST(FlatJson, EscapeWritesOtherControlCharactersAsUnicode)
{
    // Valid JSON for every reader; the protocol parser itself still
    // refuses \u escapes, as it refuses raw control characters.
    EXPECT_EQ(jsonEscape(std::string("a\x01" "b\x1f", 4)),
              "a\\u0001b\\u001f");
}

// ------------------------------------------------------- requests

TEST(Protocol, RequestRoundTrips)
{
    Request submit;
    submit.kind = RequestKind::Submit;
    submit.spec = "--n=8 --m=16 --p=0.2,0.6 --spawn=2";
    submit.timeoutSeconds = 12.5;

    Request results;
    results.kind = RequestKind::Results;
    results.hasJob = true;
    results.job = 42;

    Request drain;
    drain.kind = RequestKind::Drain;

    for (const Request &original : {submit, results, drain}) {
        Request parsed;
        std::string error;
        ASSERT_TRUE(
            parseRequest(formatRequest(original), parsed, error))
            << requestKindName(original.kind) << ": " << error;
        EXPECT_EQ(parsed.kind, original.kind);
        EXPECT_EQ(parsed.spec, original.spec);
        EXPECT_DOUBLE_EQ(parsed.timeoutSeconds,
                         original.timeoutSeconds);
        EXPECT_EQ(parsed.hasJob, original.hasJob);
        EXPECT_EQ(parsed.job, original.job);
    }
}

TEST(Protocol, RejectsMalformedRequests)
{
    Request request;
    std::string error;
    const char *bad[] = {
        "{\"spec\":\"--n=8\"}",               // no cmd
        "{\"cmd\":\"explode\"}",              // unknown cmd
        "{\"cmd\":\"submit\"}",               // submit without spec
        "{\"cmd\":\"submit\",\"spec\":\"\"}", // empty spec
        "{\"cmd\":\"submit\",\"spec\":\"--n=8\",\"timeout_s\":-1}",
        "{\"cmd\":\"cancel\"}",               // cancel without job
        "{\"cmd\":\"results\"}",              // results without job
        "{\"cmd\":\"results\",\"job\":-1}",   // negative job
        "{\"cmd\":\"results\",\"job\":1.5}",  // fractional job
        "{\"cmd\":\"status\",\"job\":\"x\"}", // non-numeric job
        "{\"cmd\":\"results\",\"job\":1e300}", // past 2^64: no uint64
        // 2^53: the first id a double no longer tells from its
        // neighbour (2^53 + 1 parses to the same value)
        "{\"cmd\":\"status\",\"job\":9007199254740992}",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseRequest(text, request, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Protocol, ErrorResponsesAreMachineReadable)
{
    JsonObject object;
    std::string error;
    ASSERT_TRUE(parseFlatJsonObject(
        errorResponse("queue_full", "limit is 8"), object, error))
        << error;
    EXPECT_EQ(object["ok"].kind, JsonScalar::Kind::Bool);
    EXPECT_FALSE(object["ok"].boolean);
    EXPECT_EQ(object["error"].text, "queue_full");
    EXPECT_EQ(object["message"].text, "limit is 8");
}

// -------------------------------------------------------- journal

JobJournalEntry
entry(std::uint64_t job, JobState state,
      const std::string &spec = "--n=4 --m=8 --p=0.5")
{
    JobJournalEntry e;
    e.job = job;
    e.state = state;
    e.spec = spec;
    return e;
}

TEST(JobJournalFormat, EntryRoundTrips)
{
    JobJournalEntry original = entry(7, JobState::Failed);
    original.timeoutSeconds = 30;
    original.startedUnix = 1754600000;
    original.exitCode = 75;
    original.reason = "runner killed by signal 9 (\"oom\")";

    JobJournalEntry parsed;
    std::string error;
    ASSERT_TRUE(parseJournalEntry(formatJournalEntry(original),
                                  parsed, error))
        << error;
    EXPECT_EQ(parsed.job, original.job);
    EXPECT_EQ(parsed.state, original.state);
    EXPECT_EQ(parsed.spec, original.spec);
    EXPECT_DOUBLE_EQ(parsed.timeoutSeconds, original.timeoutSeconds);
    EXPECT_DOUBLE_EQ(parsed.startedUnix, original.startedUnix);
    EXPECT_EQ(parsed.exitCode, original.exitCode);
    EXPECT_EQ(parsed.reason, original.reason);
}

TEST(JobJournalFormat, RejectsForeignAndPartialLines)
{
    JobJournalEntry parsed;
    std::string error;
    const char *bad[] = {
        "{\"type\":\"sbn.point.v1\",\"job\":1}", // wrong type
        "{\"job\":1,\"state\":\"done\"}",        // no type
        // right type, missing keys (a torn line, typically):
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"done\"}",
        // the pre-started_unix 7-key shape is not this format:
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"done\","
        "\"spec\":\"x\",\"timeout_s\":0,\"exit\":0,\"reason\":\"\"}",
        // unknown state name:
        "{\"type\":\"sbn.job.v1\",\"job\":1,\"state\":\"paused\","
        "\"spec\":\"x\",\"timeout_s\":0,\"started_unix\":0,"
        "\"exit\":0,\"reason\":\"\"}",
        // a job id no uint64 holds:
        "{\"type\":\"sbn.job.v1\",\"job\":1e300,\"state\":\"done\","
        "\"spec\":\"x\",\"timeout_s\":0,\"started_unix\":0,"
        "\"exit\":0,\"reason\":\"\"}",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseJournalEntry(text, parsed, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JobJournalReplay, LastWriteWinsAndFoldsTheSubmitSpec)
{
    const std::string path = tempPath("replay");
    {
        JobJournal journal(path);
        journal.append(entry(0, JobState::Submitted, "--n=4 --p=1"));
        journal.append(entry(1, JobState::Submitted, "--n=8 --p=1"));
        JobJournalEntry running = entry(0, JobState::Running, "");
        journal.append(running);
        JobJournalEntry done = entry(0, JobState::Done, "");
        done.exitCode = 0;
        journal.append(done);
    }
    const std::vector<JobJournalEntry> jobs = replayJobJournal(path);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].job, 0u);
    EXPECT_EQ(jobs[0].state, JobState::Done);
    // Later entries carry the submit's description forward.
    EXPECT_EQ(jobs[0].spec, "--n=4 --p=1");
    EXPECT_EQ(jobs[1].job, 1u);
    EXPECT_EQ(jobs[1].state, JobState::Submitted);
    EXPECT_EQ(jobs[1].spec, "--n=8 --p=1");
}

TEST(JobJournalReplay, MissingFileReplaysEmpty)
{
    EXPECT_TRUE(replayJobJournal(tempPath("absent")).empty());
}

TEST(JobJournalReplay, TornFinalLineIsDroppedLeniently)
{
    const std::string path = tempPath("torn");
    {
        JobJournal journal(path);
        journal.append(entry(3, JobState::Submitted));
        journal.append(entry(3, JobState::Running, ""));
    }
    {
        // The kill artifact: a final line cut mid-append.
        std::ofstream out(path, std::ios::app);
        const std::string full =
            formatJournalEntry(entry(3, JobState::Done, ""));
        out << full.substr(0, full.size() / 2);
    }
    const std::vector<JobJournalEntry> jobs = replayJobJournal(path);
    ASSERT_EQ(jobs.size(), 1u);
    // The torn Done never happened; the job recovers as Running and
    // will be relaunched with resume.
    EXPECT_EQ(jobs[0].state, JobState::Running);

    // Replay must also have TRUNCATED the torn bytes: the journal
    // writer appends with O_APPEND, so a surviving tail would glue
    // the next entry onto it - a malformed mid-file line that turns
    // the restart after next fatal. Appending and replaying again
    // must therefore work cleanly.
    {
        std::ifstream check(path, std::ios::binary);
        std::string bytes{std::istreambuf_iterator<char>(check),
                          std::istreambuf_iterator<char>()};
        ASSERT_FALSE(bytes.empty());
        EXPECT_EQ(bytes.back(), '\n'); // ends on a line boundary
    }
    {
        JobJournal journal(path);
        journal.append(entry(3, JobState::Done, ""));
    }
    const std::vector<JobJournalEntry> after = replayJobJournal(path);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].state, JobState::Done);
}

TEST(JobJournalDeathTest, TornLineFollowedByMoreIsCorruptionNotATail)
{
    const std::string path = tempPath("midtorn");
    {
        std::ofstream out(path);
        out << formatJournalEntry(entry(0, JobState::Submitted))
            << "\n";
        out << "{\"type\":\"sbn.job.v1\",\"job\":0,\"sta\n"; // torn
        out << formatJournalEntry(entry(0, JobState::Running, ""))
            << "\n";
    }
    EXPECT_EXIT(replayJobJournal(path),
                ::testing::ExitedWithCode(kExitFatal),
                "only the final line may be torn");
}

TEST(JobJournalDeathTest, TransitionWithoutSubmitIsFatal)
{
    const std::string path = tempPath("nosubmit");
    {
        std::ofstream out(path);
        out << formatJournalEntry(entry(5, JobState::Running, ""))
            << "\n";
    }
    EXPECT_EXIT(replayJobJournal(path),
                ::testing::ExitedWithCode(kExitFatal),
                "without a submitted entry");
}

TEST(JobJournal, StateNamesMatchTheFaultPlaneList)
{
    // shard/fault.cc duplicates the journal-state names (the shard
    // layer cannot depend on the service layer); this is the pin
    // that keeps the two lists identical.
    const JobState states[] = {
        JobState::Submitted, JobState::Running, JobState::Merging,
        JobState::Done,      JobState::Failed,  JobState::Cancelled,
    };
    ASSERT_EQ(std::size(states),
              std::size(kFaultJournalStates));
    for (std::size_t i = 0; i < std::size(states); ++i)
        EXPECT_STREQ(jobStateName(states[i]),
                     kFaultJournalStates[i]);

    EXPECT_FALSE(jobStateTerminal(JobState::Submitted));
    EXPECT_FALSE(jobStateTerminal(JobState::Running));
    EXPECT_FALSE(jobStateTerminal(JobState::Merging));
    EXPECT_TRUE(jobStateTerminal(JobState::Done));
    EXPECT_TRUE(jobStateTerminal(JobState::Failed));
    EXPECT_TRUE(jobStateTerminal(JobState::Cancelled));
}

// ------------------------------------------------- spec tokenizing

TEST(SpecTokenize, SplitsOnWhitespaceRuns)
{
    std::vector<std::string> tokens;
    std::string error;
    ASSERT_TRUE(tokenizeSpecString("  --n=8\t--m=16   --p=0.2,0.6 ",
                                   tokens, error))
        << error;
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0], "--n=8");
    EXPECT_EQ(tokens[1], "--m=16");
    EXPECT_EQ(tokens[2], "--p=0.2,0.6");
    ASSERT_TRUE(tokenizeSpecString("", tokens, error));
    EXPECT_TRUE(tokens.empty());
    EXPECT_FALSE(tokenizeSpecString("--n='8'", tokens, error));
    EXPECT_TRUE(errorMatches(error, "carry no quoting"));
}

TEST(SpecParse, ParsesAFullSpecIncludingSpawn)
{
    const SweepRunOptions opt = parseSweepSpecString(
        "--n=8 --m=16 --p=0.2,0.6 --spawn=2 --retries=1 "
        "--hang-timeout=3 --layout=strided");
    EXPECT_EQ(opt.spec.processors, std::vector<int>{8});
    EXPECT_EQ(opt.spec.modules, std::vector<int>{16});
    EXPECT_EQ(opt.spec.requestProbabilities,
              (std::vector<double>{0.2, 0.6}));
    EXPECT_EQ(opt.spawnShards, 2u);
    EXPECT_EQ(opt.retries, 1u);
    EXPECT_DOUBLE_EQ(opt.hangTimeout, 3.0);
    EXPECT_EQ(opt.layout, ShardLayout::Strided);
}

/** The message the daemon rejects a submitted @p spec with, or ""
 *  when it parses. */
std::string
specRejection(const std::string &spec)
{
    SweepRunOptions opt;
    std::string error;
    return parseSweepSpecString(spec, opt, error) ? "" : error;
}

TEST(SpecParseDeathTest, ThreadsErrorsNameTheFlag)
{
    // The daemon validates submitted specs with this parser too, so a
    // bad --threads must not be reported as the SBN_THREADS variable.
    EXPECT_EQ(specRejection("--threads=abc"),
              "--threads: 'abc' is not a number (expected a decimal "
              "thread count)");
    // The job runner's parse dies on what the daemon would reject.
    EXPECT_DEATH((void)parseSweepSpecString("--threads=abc"),
                 "--threads: 'abc' is not a number");
}

TEST(SpecParse, BadSpecsReturnTheParsersMessage)
{
    EXPECT_EQ(specRejection("--n=8 --m=16 --p=0.5"), "");
    // Unknown flag, bad value, forbidden quoting, a front end's flag:
    // each comes back as the message sbn_sweep prints after "fatal: ".
    EXPECT_EQ(specRejection("--frobnicate=1"),
              "unknown option --frobnicate (try --help for the option "
              "list)");
    EXPECT_EQ(specRejection("--n=8 --m=16 --p=banana"),
              "option --p expects a number, got 'banana'");
    EXPECT_TRUE(errorMatches(specRejection("--n='8'"), "no quoting"));
    EXPECT_TRUE(errorMatches(specRejection("--dir=elsewhere"),
                             "unknown option --dir"));
    // --help prints a tool's usage; in a spec it is just unknown.
    EXPECT_TRUE(
        errorMatches(specRejection("--help"), "unknown option --help"));

    // Integers the spec cannot represent: a negative window would wrap
    // the unsigned tick, an axis value past int would truncate to
    // another system, and --buffered is a 0/1 switch.
    const std::string base = "--n=4 --m=4 --r=4 --p=1 --measure=20000";
    EXPECT_EQ(specRejection(base + " --warmup=0 --buffered=0,1"), "");
    EXPECT_TRUE(errorMatches(specRejection(base + " --warmup=-5"),
                             "--warmup must be >= 0"));
    EXPECT_TRUE(errorMatches(
        specRejection("--n=4 --m=4 --r=4 --p=1 --measure=-1"),
        "--measure must be >= 1"));
    EXPECT_TRUE(errorMatches(
        specRejection("--n=4294967297 --m=4 --r=4 --p=1 --measure=20000"),
        "--n value 4294967297 is out of the int range"));
    EXPECT_TRUE(errorMatches(
        specRejection("--n=4 --m=4294967297 --r=4 --p=1 --measure=20000"),
        "--m value 4294967297 is out of the int range"));
    EXPECT_TRUE(errorMatches(
        specRejection("--n=4 --m=4 --r=4294967297 --p=1 --measure=20000"),
        "--r value 4294967297 is out of the int range"));
    EXPECT_TRUE(errorMatches(specRejection(base + " --buffered=2"),
                             "--buffered values must be 0 or 1"));
}

TEST(SpecParse, RejectsValuesThatWouldRunAsOtherValues)
{
    const std::string adaptive = "--n=4 --m=4 --p=1 --adaptive";
    // A count past unsigned would wrap to another schedule: 2^32 + 2
    // would run as --initial=2.
    EXPECT_EQ(specRejection(adaptive +
                            " --initial=4294967298 --cap=4294967299"),
              "--initial value 4294967298 is out of the unsigned range");
    EXPECT_TRUE(errorMatches(specRejection(adaptive + " --cap=4294967299"),
                             "--cap value 4294967299 is out of the "
                             "unsigned range"));
    // The supervisor asserts a respawn budget below kRetryLimit.
    EXPECT_TRUE(errorMatches(specRejection("--spawn=1 --retries=5000"),
                             "--retries must be < 1000"));
    EXPECT_EQ(specRejection("--spawn=1 --retries=999"), "");
    // Only the tabulated levels: any other would run as one of them.
    for (const char *level : {"0", "0.5", "0.91", "1.5"})
        EXPECT_TRUE(errorMatches(
            specRejection(adaptive + " --level=" + level),
            "--level must be 0.90, 0.95 or 0.99"))
            << level;
    for (const char *level : {"0.9", "0.95", "0.99"})
        EXPECT_EQ(specRejection(adaptive + " --level=" + level), "")
            << level;
    // A NaN or negative target would act as 0.
    for (const char *target : {"rel", "abs"})
        for (const char *value : {"nan", "-0.1"})
            EXPECT_TRUE(errorMatches(
                specRejection(adaptive + " --" + target + "=" + value),
                std::string("--") + target + " must be >= 0"))
                << target << "=" << value;
}

TEST(SpecParse, InProcessParseLeavesTelemetryToTheRunner)
{
    // The daemon parses every submit in process; a spec's --telemetry
    // must not switch collection on there, only in the job's runner.
    setTelemetryEnabled(false);
    SweepRunOptions opt;
    std::string error;
    ASSERT_TRUE(parseSweepSpecString("--n=4 --telemetry", opt, error))
        << error;
    EXPECT_TRUE(opt.telemetry);
    EXPECT_FALSE(telemetryEnabled());
    EXPECT_TRUE(parseSweepSpecString("--n=4 --telemetry").telemetry);
    EXPECT_TRUE(telemetryEnabled());
    setTelemetryEnabled(false);
}

// ------------------------------------------------------ exit codes

TEST(ExitCodes, ContractIsPinned)
{
    // These values are wire/script ABI (CI matches on them; sysexits
    // semantics); changing one is a breaking change, not a refactor.
    EXPECT_EQ(kExitOk, 0);
    EXPECT_EQ(kExitFatal, 1);
    EXPECT_EQ(kExitNoInput, 66);
    EXPECT_EQ(kExitUnavailable, 69);
    EXPECT_EQ(kPartialResultExit, 75);
    EXPECT_EQ(exitCodeForSignal(SIGTERM), 143);
    EXPECT_EQ(exitCodeForSignal(SIGKILL), 137);
    EXPECT_EQ(exitCodeForSignal(SIGINT), 130);
}

// ---------------------------------------------------- path layout

TEST(DaemonPaths, AreCanonical)
{
    EXPECT_EQ(daemonJournalPath("st"), "st/jobs.jsonl");
    EXPECT_EQ(daemonPortFilePath("st"), "st/port");
    EXPECT_EQ(daemonHeartbeatPath("st"), "st/heartbeat");
    EXPECT_EQ(daemonJobDir("st", 12), "st/job-12");
    EXPECT_EQ(daemonMergedPath("st/job-12"),
              "st/job-12/merged.jsonl");
}

// ------------------------------------------------------- core share

TEST(DaemonCoreShare, SplitsTheHostShareAcrossTheJobsWorkers)
{
    // 4 CPUs, two jobs at a time: a job gets 2 cores, split across
    // its workers and never below one thread each.
    EXPECT_EQ(jobWorkerThreads(4, 2, 1), 2u);
    EXPECT_EQ(jobWorkerThreads(4, 2, 2), 1u);
    EXPECT_EQ(jobWorkerThreads(4, 2, 3), 1u);
    // One job at a time (the default): a lone worker gets every core.
    EXPECT_EQ(jobWorkerThreads(4, 1, 1), 4u);
    EXPECT_EQ(jobWorkerThreads(4, 1, 2), 2u);
    // More running jobs than CPUs still leaves each worker a thread.
    EXPECT_EQ(jobWorkerThreads(2, 4, 1), 1u);
    EXPECT_EQ(jobWorkerThreads(1, 1, 8), 1u);
}

TEST(DaemonCoreShare, OnlyASpecWithoutThreadsTakesTheShare)
{
    // The runner fills in the share only where the parsed spec left
    // threads at 0; an explicit --threads, 0 included, resolves here.
    const std::string base = "--n=4 --m=4 --p=1";
    EXPECT_EQ(parseSweepSpecString(base).threads, 0u);
    EXPECT_EQ(parseSweepSpecString(base + " --threads=1").threads, 1u);
    EXPECT_EQ(parseSweepSpecString(base + " --threads=0").threads,
              hardwareThreads());
}

// ---------------------------------------------------- daemon metrics

TEST(Protocol, MetricsRequestRoundTrips)
{
    Request whole;
    whole.kind = RequestKind::Metrics;

    Request one_job;
    one_job.kind = RequestKind::Metrics;
    one_job.hasJob = true;
    one_job.job = 3;

    for (const Request &original : {whole, one_job}) {
        Request parsed;
        std::string error;
        ASSERT_TRUE(
            parseRequest(formatRequest(original), parsed, error))
            << error;
        EXPECT_EQ(parsed.kind, RequestKind::Metrics);
        EXPECT_EQ(parsed.hasJob, original.hasJob);
        EXPECT_EQ(parsed.job, original.job);
    }

    // The hand-written wire forms parse too.
    Request parsed;
    std::string error;
    ASSERT_TRUE(parseRequest("{\"cmd\":\"metrics\"}", parsed, error))
        << error;
    EXPECT_EQ(parsed.kind, RequestKind::Metrics);
    EXPECT_FALSE(parsed.hasJob);
    ASSERT_TRUE(parseRequest("{\"cmd\":\"metrics\",\"job\":3}",
                             parsed, error))
        << error;
    EXPECT_TRUE(parsed.hasJob);
    EXPECT_EQ(parsed.job, 3u);
    EXPECT_FALSE(parseRequest("{\"cmd\":\"metrics\",\"job\":-2}",
                              parsed, error));
}

/** A snapshot with every field distinct, so a swapped key would show. */
DaemonMetricsSnapshot
sampleMetrics()
{
    DaemonMetricsSnapshot m;
    m.uptimeSeconds = 12.5;
    m.draining = true;
    m.queued = 2;
    m.running = 1;
    m.done = 3;
    m.failed = 4;
    m.cancelled = 5;
    m.jobsTotal = 15;
    m.queueDepth = 2;
    m.journalAppends = 21;
    m.journalFsyncs = 22;
    m.resultsBytesServed = 1024;
    m.runnerRelaunches = 6;
    m.hasActiveJob = true;
    m.activeJob = 7;
    return m;
}

TEST(DaemonMetrics, ResponseIsFlatJsonWithDocumentedKeys)
{
    const std::string line =
        formatDaemonMetricsResponse(sampleMetrics());
    JsonObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatJsonObject(line, fields, error)) << error;

    EXPECT_EQ(fields.at("ok").kind, JsonScalar::Kind::Bool);
    EXPECT_EQ(fields.at("type").text, "sbn.metrics.v1");
    EXPECT_EQ(fields.at("uptime_s").number, 12.5);
    EXPECT_EQ(fields.at("queued").number, 2.0);
    EXPECT_EQ(fields.at("running").number, 1.0);
    EXPECT_EQ(fields.at("done").number, 3.0);
    EXPECT_EQ(fields.at("failed").number, 4.0);
    EXPECT_EQ(fields.at("cancelled").number, 5.0);
    EXPECT_EQ(fields.at("jobs_total").number, 15.0);
    EXPECT_EQ(fields.at("queue_depth").number, 2.0);
    EXPECT_EQ(fields.at("draining").kind, JsonScalar::Kind::Bool);
    EXPECT_EQ(fields.at("journal_appends").number, 21.0);
    EXPECT_EQ(fields.at("journal_fsyncs").number, 22.0);
    EXPECT_EQ(fields.at("results_bytes_served").number, 1024.0);
    EXPECT_EQ(fields.at("runner_relaunches").number, 6.0);
    EXPECT_EQ(fields.at("active_job").number, 7.0);
}

TEST(DaemonMetrics, IdleSnapshotReportsNullActiveJob)
{
    DaemonMetricsSnapshot m = sampleMetrics();
    m.hasActiveJob = false;
    const std::string line = formatDaemonMetricsResponse(m);
    JsonObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatJsonObject(line, fields, error)) << error;
    EXPECT_EQ(fields.at("active_job").kind, JsonScalar::Kind::Null);
}

TEST(DaemonMetrics, HeartbeatV2KeepsEveryV1Key)
{
    const std::string body =
        formatHeartbeatV2(sampleMetrics(), 1754650000);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body.back(), '\n');

    JsonObject fields;
    std::string error;
    ASSERT_TRUE(parseFlatJsonObject(
        body.substr(0, body.size() - 1), fields, error))
        << error;
    EXPECT_EQ(fields.at("type").text, "sbn.heartbeat.v2");

    // The v1 contract: a consumer reading ts_unix, queued, running
    // and draining keeps working against a v2 body - same keys, same
    // scalar kinds, same meanings.
    EXPECT_EQ(fields.at("ts_unix").number, 1754650000.0);
    EXPECT_EQ(fields.at("queued").kind, JsonScalar::Kind::Number);
    EXPECT_EQ(fields.at("running").kind, JsonScalar::Kind::Number);
    EXPECT_EQ(fields.at("draining").kind, JsonScalar::Kind::Bool);

    // And the v2 additions ride alongside.
    EXPECT_TRUE(fields.count("queue_depth"));
    EXPECT_TRUE(fields.count("journal_appends"));
    EXPECT_TRUE(fields.count("active_job"));
}

// ------------------------------------------------ daemon round trip

/** An sbn_sweepd forked from the test process; SIGKILLed and reaped
 *  on destruction unless reap() already collected it. */
class ForkedDaemon
{
  public:
    explicit ForkedDaemon(const std::string &state_dir)
    {
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ == 0) {
#ifdef __linux__
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(kExitFatal);
#else
            (void)parent;
#endif
            DaemonConfig config;
            config.stateDir = state_dir;
            ::_exit(runSweepDaemon(config));
        }
    }

    ~ForkedDaemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    ForkedDaemon(const ForkedDaemon &) = delete;
    ForkedDaemon &operator=(const ForkedDaemon &) = delete;

    bool started() const { return pid_ > 0; }

    /** Wait for the (drained) daemon to exit; its exit status. */
    int reap()
    {
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return status;
    }

  private:
    pid_t pid_ = -1;
};

/** Whether the daemon of @p state_dir published its port before
 *  @p deadline. */
bool
daemonCameUp(const std::string &state_dir,
             std::chrono::steady_clock::time_point deadline)
{
    struct stat st{};
    while (::stat(daemonPortFilePath(state_dir).c_str(), &st) != 0 ||
           st.st_size == 0) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

Request
jobRequest(RequestKind kind, std::uint64_t job)
{
    Request request;
    request.kind = kind;
    request.hasJob = true;
    request.job = job;
    return request;
}

TEST(DaemonRoundTrip, ResultsRepliesNeverWaitForADelayedAck)
{
    // One small FastStat job (~1 KB of records), then eight status +
    // results pairs on one connection. A reply sent as two writes on
    // a Nagle socket (header, then payload) stalls until the client's
    // delayed ACK of the header, ~40 ms on every call; sent as one
    // buffer it takes well under a millisecond.
    const std::string stateDir = tempPath("daemon");
    ASSERT_EQ(std::system(("rm -rf '" + stateDir + "'").c_str()), 0);
    ForkedDaemon daemon(stateDir);
    ASSERT_TRUE(daemon.started());

    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    ASSERT_TRUE(daemonCameUp(stateDir, deadline));

    DaemonClient client(stateDir);
    Request submit;
    submit.kind = RequestKind::Submit;
    submit.spec = "--kernel=faststat --n=4 --m=8 --p=0.2,0.4,0.6,0.8 "
                  "--warmup=500 --measure=5000";
    const ClientResponse ack = client.call(submit);
    ASSERT_TRUE(ack.ok()) << ack.errorCode();
    const auto job = static_cast<std::uint64_t>(ack.number("job"));
    for (;;) {
        const ClientResponse status =
            client.call(jobRequest(RequestKind::Status, job));
        if (status.text("state") == "done")
            break;
        ASSERT_TRUE(status.ok()) << status.errorCode();
        ASSERT_NE(status.text("state"), "failed");
        ASSERT_LT(Clock::now(), deadline) << "job never finished";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::string first;
    std::vector<double> seconds;
    for (int k = 0; k < 8; ++k) {
        ASSERT_TRUE(
            client.call(jobRequest(RequestKind::Status, job)).ok());
        const auto start = Clock::now();
        const ClientResponse results =
            client.call(jobRequest(RequestKind::Results, job));
        seconds.push_back(
            std::chrono::duration<double>(Clock::now() - start)
                .count());
        ASSERT_TRUE(results.ok()) << results.errorCode();
        if (k == 0)
            first = results.payload;
        EXPECT_EQ(results.payload, first) << "call " << k;
    }
    EXPECT_GT(first.size(), 512u);

    Request drain;
    drain.kind = RequestKind::Drain;
    ASSERT_TRUE(client.call(drain).ok());
    const int status = daemon.reap();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kExitOk)
        << describeWaitStatus(status);

    std::sort(seconds.begin(), seconds.end());
    EXPECT_LT((seconds[3] + seconds[4]) / 2, 0.010)
        << "median results round trip; slowest " << seconds.back()
        << " s";
}

TEST(DaemonRoundTrip, BadSpecsComeBackWithTheParsersMessage)
{
    // Each bad spec is answered bad_spec with the parser's own
    // message and journals nothing. A --help spec that ran as a job
    // would end "done" with no result.
    const std::string stateDir = tempPath("daemon_bad_spec");
    ASSERT_EQ(std::system(("rm -rf '" + stateDir + "'").c_str()), 0);
    ForkedDaemon daemon(stateDir);
    ASSERT_TRUE(daemon.started());
    ASSERT_TRUE(daemonCameUp(stateDir, std::chrono::steady_clock::now() +
                                           std::chrono::seconds(60)));

    DaemonClient client(stateDir);
    for (const char *spec :
         {"--help", "--n=4 --p=banana", "--spawn=1 --retries=5000"}) {
        Request submit;
        submit.kind = RequestKind::Submit;
        submit.spec = spec;
        const ClientResponse reply = client.call(submit);
        EXPECT_FALSE(reply.ok()) << spec;
        EXPECT_EQ(reply.errorCode(), "bad_spec") << spec;
        EXPECT_EQ(reply.text("message"), specRejection(spec)) << spec;
    }
    Request status;
    status.kind = RequestKind::Status;
    const ClientResponse summary = client.call(status);
    EXPECT_EQ(summary.number("queued", -1), 0) << summary.header;
    EXPECT_EQ(summary.number("running", -1), 0) << summary.header;
    EXPECT_EQ(summary.number("done", -1), 0) << summary.header;

    Request drain;
    drain.kind = RequestKind::Drain;
    ASSERT_TRUE(client.call(drain).ok());
    const int exit = daemon.reap();
    EXPECT_TRUE(WIFEXITED(exit) && WEXITSTATUS(exit) == kExitOk)
        << describeWaitStatus(exit);
}

TEST(DaemonClientDeathTest, ResultsHeaderPromisingTooMuchIsFatal)
{
    // A peer whose results header promises 1e300 bytes: casting that
    // to size_t is undefined, and 1e19 would make reserve() throw.
    // The client must refuse it cleanly and name the header.
    EXPECT_EXIT(
        {
            const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            socklen_t len = sizeof addr;
            if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0 ||
                ::listen(listener, 1) != 0 ||
                ::getsockname(listener,
                              reinterpret_cast<sockaddr *>(&addr),
                              &len) != 0)
                std::_Exit(99);
            DaemonClient client(std::to_string(ntohs(addr.sin_port)));
            const int peer = ::accept(listener, nullptr, nullptr);
            const std::string header =
                "{\"ok\":true,\"job\":0,\"exit\":0,\"bytes\":1e300}\n";
            if (::write(peer, header.data(), header.size()) !=
                static_cast<ssize_t>(header.size()))
                std::_Exit(98);
            client.call(jobRequest(RequestKind::Results, 0));
        },
        ::testing::ExitedWithCode(kExitFatal),
        "bytes\":1e300.*promises more than");
}

} // namespace
} // namespace sbn

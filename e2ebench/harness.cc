/**
 * @file
 * One iteration of an end-to-end sweep benchmark workload (README.md).
 *
 *   sbn_e2e_harness --workload=grid_threads|grid_spawn|daemon_jobs
 *                   --mode=run|ref --seed=N --dir=DIR --ref=FILE
 *                   [--t0-ns=NS] [--traced=1]
 *
 * mode=ref computes, untimed, what a run is checked against - the
 * grid's record-stream digest and FastStat EBWs, or every daemon
 * job's expected payload digest and CycleSkip EBWs - and writes it to
 * --ref. mode=run executes the workload once, from the spec to the
 * last verified record, through the library's public entry points
 * only (evaluateSweepPointSample + ParallelRunner::stream,
 * runSupervisedSweep, runSweepDaemon + DaemonClient::call), verifies
 * every record against --ref, and prints one JSON object as its last
 * stdout line. --t0-ns is the CLOCK_MONOTONIC reading the launcher took
 * just before starting this process; set-up time counts from it.
 *
 * With --traced=1 the harness also switches run telemetry on and
 * records its own spans around each public call, kept in memory and
 * written to $SBN_TRACE_DIR (sbn.trace.v1) after the timed work ends.
 */

#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "exec/parallel_runner.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/sweeprun.hh"
#include "shard/result_io.hh"
#include "telemetry/telemetry.hh"
#include "trace/span.hh"
#include "util/cli.hh"

#ifndef SBN_E2E_BUILD_TYPE
#define SBN_E2E_BUILD_TYPE "unknown"
#endif
#ifndef SBN_E2E_COMPILER
#define SBN_E2E_COMPILER "unknown"
#endif
#ifndef SBN_E2E_CXX_FLAGS
#define SBN_E2E_CXX_FLAGS ""
#endif

namespace {

using namespace sbn;

/** grid_threads pool size and grid_spawn fleet size (nproc = 4). */
constexpr unsigned kWorkers = 4;
/** Jobs one daemon incarnation runs, and how many are in flight. */
constexpr std::size_t kDaemonJobs = 64;
constexpr std::size_t kOutstanding = 2;
/** Largest |FastStat - CycleSkip| / CycleSkip EBW a job point may show. */
constexpr double kEbwTolerance = 0.2;
/** A finite window can read a little above the (r+2)/2 EBW ceiling. */
constexpr double kEbwCeilingSlack = 1.01;
/** Wall-clock cap on one daemon iteration before it is declared hung. */
constexpr double kDaemonDeadlineS = 120.0;

constexpr const char *kGridCycles = " --warmup=10000 --measure=100000";
constexpr const char *kJobCycles = " --warmup=5000 --measure=50000";

std::uint64_t
nowNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::string
formatDouble(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
hex64(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Builder for the one flat-ish JSON object a harness run prints. */
class JsonOut
{
  public:
    JsonOut &num(const char *key, double value)
    {
        return raw(key, formatDouble(value));
    }
    JsonOut &u64(const char *key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }
    JsonOut &boolean(const char *key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    JsonOut &str(const char *key, const std::string &value)
    {
        return raw(key, "\"" + jsonEscape(value) + "\"");
    }
    JsonOut &raw(const char *key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += key;
        body_ += "\":";
        body_ += json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + formatDouble(values[i]);
    return out + "]";
}

std::string
jsonStrings(const std::vector<std::string> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ",\"" : "\"") + jsonEscape(values[i]) + "\"";
    return out + "]";
}

/** 64-bit FNV-1a over a byte stream, with its length. */
struct StreamDigest
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t bytes = 0;

    void add(const std::string &text)
    {
        for (const unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
        bytes += text.size();
    }
};

/** CPU of this process plus every reaped descendant, and peak RSS. */
struct Usage
{
    double cpuS = 0;
    long maxRssKb = 0;
};

Usage
processUsage()
{
    rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    Usage u;
    u.cpuS = sec(self.ru_utime) + sec(self.ru_stime) +
             sec(kids.ru_utime) + sec(kids.ru_stime);
    u.maxRssKb = std::max(self.ru_maxrss, kids.ru_maxrss);
    return u;
}

/** splitmix64: the seeded generator behind the daemon job sequence. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/** The paper's design space: 5 x 2 x 2 x 4 x 2 = 160 points. */
std::string
gridSpec(std::uint64_t seed)
{
    return "--n=2,4,8,16,32 --m=8,16 --r=4,8 --p=0.1,0.4,0.7,1.0 "
           "--buffered=0,1 --policy=proc --seed=" +
           std::to_string(seed) + kGridCycles;
}

/**
 * The fixed, seeded sequence of small daemon jobs: FastStat with
 * latency histograms, uniform or hot-spot (h = 0.2 / 0.5) references,
 * buffered or not, n in {8, 16}, 4-12 request probabilities, and one
 * or two supervised workers.
 */
std::vector<std::string>
daemonJobSpecs(std::uint64_t seed)
{
    static const double kPool[] = {0.1, 0.15, 0.2, 0.25, 0.3, 0.4,
                                   0.5, 0.6,  0.7, 0.8,  0.9, 1.0};
    constexpr std::size_t kPoolSize = sizeof kPool / sizeof kPool[0];
    SplitMix rng{seed * 0x2545f4914f6cdd1dull + 0x5eed};
    std::vector<std::string> specs;
    for (std::size_t j = 0; j < kDaemonJobs; ++j) {
        const std::uint64_t pattern = rng.next() % 3;
        const bool buffered = (rng.next() & 1) != 0;
        const int n = (rng.next() & 1) != 0 ? 16 : 8;
        const std::size_t k = 4 + rng.next() % 9;
        std::vector<double> p(kPool, kPool + kPoolSize);
        for (std::size_t i = 0; i < k; ++i)
            std::swap(p[i], p[i + rng.next() % (kPoolSize - i)]);
        p.resize(k);
        std::sort(p.begin(), p.end());
        const std::uint64_t spawn = 1 + rng.next() % 2;
        const std::uint64_t jobSeed = rng.next() >> 33;

        std::string spec = "--kernel=faststat --latency --n=" +
                           std::to_string(n) + " --m=16 --r=8 --p=";
        for (std::size_t i = 0; i < k; ++i) {
            char buf[16];
            std::snprintf(buf, sizeof buf, "%g", p[i]);
            spec += (i ? "," : "") + std::string(buf);
        }
        spec += buffered ? " --buffered=1" : " --buffered=0";
        if (pattern == 1)
            spec += " --hot=0.2";
        else if (pattern == 2)
            spec += " --hot=0.5";
        spec += " --seed=" + std::to_string(jobSeed) + kJobCycles +
                " --spawn=" + std::to_string(spawn);
        specs.push_back(spec);
    }
    return specs;
}

std::uint64_t
cyclesOf(const SystemConfig &config)
{
    return static_cast<std::uint64_t>(config.warmupCycles) +
           static_cast<std::uint64_t>(config.measureCycles);
}

/**
 * Checks one ordered record stream point by point - flat index,
 * run fingerprint, EBW range and a byte-exact parse round trip - and
 * digests its canonical bytes.
 */
class StreamCheck
{
  public:
    /** @p expected_lines: per-record digests of the reference stream,
     *  or nullptr while the reference itself is being made. */
    StreamCheck(const std::vector<SystemConfig> &points,
                const std::vector<std::uint64_t> &expected_fp,
                const std::vector<std::uint64_t> *expected_lines)
        : points_(points), expectedFp_(expected_fp),
          expectedLines_(expected_lines)
    {
    }

    /** Check @p record, which should carry flat index @p expect. */
    bool add(std::size_t expect, const PointRecord &record)
    {
        const std::string line = formatRecord(record) + "\n";
        StreamDigest lineDigest;
        lineDigest.add(line);
        lineHashes_.push_back(lineDigest.hash);

        std::string why;
        if (expectedLines_ != nullptr &&
            (expect >= expectedLines_->size() ||
             lineDigest.hash != (*expectedLines_)[expect]))
            why = "record bytes differ from the reference stream";
        else if (record.flatIndex != expect)
            why = "flat index " + std::to_string(record.flatIndex) +
                  " where " + std::to_string(expect) + " was due";
        else if (expect >= expectedFp_.size() ||
                 record.runFp != expectedFp_[expect])
            why = "run fingerprint mismatch";
        else if (!(std::isfinite(record.mean) && record.mean > 0 &&
                   record.mean <= kEbwCeilingSlack *
                                      points_[expect].maxEbw()))
            why = "EBW " + formatDouble(record.mean) + " out of range";
        if (why.empty()) {
            PointRecord back;
            std::string error;
            if (!parseRecord(line.substr(0, line.size() - 1), back,
                             error) ||
                !back.bitIdentical(record))
                why = "record does not round-trip: " + error;
        }
        digest_.add(line);
        ebw_.push_back(record.mean);
        cycles_ += expect < points_.size() ? cyclesOf(points_[expect]) : 0;
        if (why.empty())
            return true;
        ++bad_;
        if (errors_.size() < 8)
            errors_.push_back("point " + std::to_string(expect) + ": " +
                              why);
        return false;
    }

    const StreamDigest &digest() const { return digest_; }
    const std::vector<std::uint64_t> &lineHashes() const
    {
        return lineHashes_;
    }
    const std::vector<double> &ebw() const { return ebw_; }
    std::size_t bad() const { return bad_; }
    std::uint64_t cycles() const { return cycles_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    const std::vector<SystemConfig> &points_;
    const std::vector<std::uint64_t> &expectedFp_;
    const std::vector<std::uint64_t> *expectedLines_;
    StreamDigest digest_;
    std::vector<std::uint64_t> lineHashes_;
    std::vector<double> ebw_;
    std::size_t bad_ = 0;
    std::uint64_t cycles_ = 0;
    std::vector<std::string> errors_;
};

/** One benchmark-side span, kept in memory until the timed work ends. */
struct BenchSpan
{
    std::string kind;
    std::string name;
    int parent = -1; //!< index into the log; -1 = the trace root
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::vector<TraceAttr> attrs;
    std::uint64_t id = 0; //!< preassigned id (0 = allocate on write)
};

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    /** Record a span (a no-op returning -1 when tracing is off). */
    int add(const std::string &kind, const std::string &name, int parent,
            std::uint64_t start_ns, std::uint64_t end_ns,
            std::vector<TraceAttr> attrs = {})
    {
        if (!on_)
            return -1;
        spans_.push_back(
            {kind, name, parent, start_ns, end_ns, std::move(attrs), 0});
        return static_cast<int>(spans_.size()) - 1;
    }

    BenchSpan *at(int index)
    {
        return index < 0 ? nullptr : &spans_[static_cast<std::size_t>(index)];
    }

    /** Write every span under @p trace; parents precede children. */
    void write(const TraceContext &trace)
    {
        for (BenchSpan &span : spans_) {
            const std::uint64_t parent =
                span.parent < 0
                    ? trace.spanId
                    : spans_[static_cast<std::size_t>(span.parent)].id;
            if (span.id != 0)
                traceEmitSpanWithId(trace, span.id, span.kind, span.name,
                                    parent, span.startNs / 1000,
                                    span.endNs / 1000, span.attrs);
            else
                span.id = traceEmitSpan(trace, span.kind, span.name,
                                        parent, span.startNs / 1000,
                                        span.endNs / 1000, span.attrs);
        }
    }

  private:
    bool on_;
    std::vector<BenchSpan> spans_;
};

/** Everything one harness invocation was asked to do. */
struct Context
{
    std::string workload;
    std::string mode;
    std::uint64_t seed = 1;
    std::string dir;
    std::string refPath;
    std::uint64_t t0Ns = 0;
    bool traced = false;
};

/** Fields every run result carries. */
void
commonFields(JsonOut &out, const Context &c)
{
    const bool optimized =
#ifdef __OPTIMIZE__
        true;
#else
        false;
#endif
    const bool ndebug =
#ifdef NDEBUG
        true;
#else
        false;
#endif
    out.str("workload", c.workload)
        .str("mode", c.mode)
        .u64("seed", c.seed)
        .boolean("traced", c.traced)
        .raw("build",
             JsonOut()
                 .boolean("optimized", optimized)
                 .boolean("ndebug", ndebug)
                 .str("build_type", SBN_E2E_BUILD_TYPE)
                 .str("compiler", SBN_E2E_COMPILER)
                 .str("cxx_flags", SBN_E2E_CXX_FLAGS)
                 .text())
        .u64("t0_ns", c.t0Ns);
}

void
usageFields(JsonOut &out)
{
    const Usage u = processUsage();
    out.num("cpu_s", u.cpuS).u64("maxrss_kb",
                                 static_cast<std::uint64_t>(u.maxRssKb));
}

std::string
telemetryJson()
{
    return formatTelemetrySnapshot(telemetrySnapshot(),
                                   /*include_timers=*/true);
}

/** Reference data one run is verified against (mode=ref output). */
struct Reference
{
    StreamDigest grid;
    std::vector<std::uint64_t> gridLines; //!< per-record line digests
    struct Job
    {
        StreamDigest payload;
        std::vector<double> cycleskipEbw;
    };
    std::vector<Job> jobs;
};

Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream in(path);
    if (!in.is_open()) {
        std::fprintf(stderr, "cannot read reference %s\n", path.c_str());
        std::exit(2);
    }
    std::string tag;
    while (in >> tag) {
        std::string hash;
        if (tag == "grid") {
            std::size_t count = 0;
            in >> hash >> ref.grid.bytes >> count;
            ref.grid.hash = std::strtoull(hash.c_str(), nullptr, 16);
            ref.gridLines.resize(count);
            for (std::uint64_t &line : ref.gridLines) {
                in >> hash;
                line = std::strtoull(hash.c_str(), nullptr, 16);
            }
        } else if (tag == "job") {
            Reference::Job job;
            std::size_t index = 0, count = 0;
            in >> index >> hash >> job.payload.bytes >> count;
            job.payload.hash = std::strtoull(hash.c_str(), nullptr, 16);
            job.cycleskipEbw.resize(count);
            for (double &value : job.cycleskipEbw)
                in >> value;
            ref.jobs.push_back(job);
        }
    }
    return ref;
}

// ------------------------------------------------------------------
// Reference mode: untimed, once per seed.
// ------------------------------------------------------------------

int
referenceGrid(const Context &c)
{
    const SweepRunOptions opt = parseSweepSpecString(gridSpec(c.seed));
    const std::vector<SystemConfig> points = opt.spec.materialize();
    const MergeCheck check = sweepMergeCheck(points);
    ParallelRunner runner(kWorkers);
    StreamCheck stream(points, check.expectedRunFp, nullptr);
    runner.stream<PointSample>(
        points.size(),
        [&](std::size_t i) { return evaluateSweepPointSample(points[i]); },
        [&](std::size_t i, const PointSample &sample) {
            stream.add(i, makeSweepRecord(i, points[i], sample));
        });
    const std::vector<double> faststat =
        runner.map<double>(points.size(), [&](std::size_t i) {
            SystemConfig config = points[i];
            config.kernel = KernelKind::FastStat;
            return evaluateSweepPoint(config);
        });

    std::ofstream ref(c.refPath);
    ref << "grid " << hex64(stream.digest().hash) << ' '
        << stream.digest().bytes << ' ' << stream.lineHashes().size();
    for (const std::uint64_t line : stream.lineHashes())
        ref << ' ' << hex64(line);
    ref << '\n';
    JsonOut out;
    out.str("workload", c.workload)
        .str("mode", c.mode)
        .u64("seed", c.seed)
        .boolean("ok", stream.bad() == 0 && ref.good())
        .raw("errors", jsonStrings(stream.errors()))
        .str("digest", hex64(stream.digest().hash))
        .u64("bytes", stream.digest().bytes)
        .raw("ebw_cycleskip", jsonList(stream.ebw()))
        .raw("ebw_faststat", jsonList(faststat));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
referenceDaemon(const Context &c)
{
    const std::vector<std::string> specs = daemonJobSpecs(c.seed);
    ParallelRunner runner(kWorkers);
    std::ofstream ref(c.refPath);
    std::string jobs = "[";
    for (std::size_t j = 0; j < specs.size(); ++j) {
        const SweepRunOptions opt = parseSweepSpecString(specs[j]);
        const std::vector<SystemConfig> points = opt.spec.materialize();
        const std::vector<PointSample> samples =
            runner.map<PointSample>(points.size(), [&](std::size_t i) {
                return evaluateSweepPointSample(points[i]);
            });
        const std::vector<double> cycleskip =
            runner.map<double>(points.size(), [&](std::size_t i) {
                SystemConfig config = points[i];
                config.kernel = KernelKind::CycleSkip;
                config.collectLatency = false;
                return evaluateSweepPoint(config);
            });
        StreamDigest payload;
        std::vector<double> faststat;
        for (std::size_t i = 0; i < points.size(); ++i) {
            payload.add(formatRecord(
                            makeSweepRecord(i, points[i], samples[i])) +
                        "\n");
            faststat.push_back(samples[i].ebw);
        }
        ref << "job " << j << ' ' << hex64(payload.hash) << ' '
            << payload.bytes << ' ' << cycleskip.size();
        for (const double value : cycleskip)
            ref << ' ' << formatDouble(value);
        ref << '\n';
        jobs += (j ? "," : "") +
                JsonOut()
                    .str("spec", specs[j])
                    .str("digest", hex64(payload.hash))
                    .u64("bytes", payload.bytes)
                    .raw("ebw_faststat", jsonList(faststat))
                    .raw("ebw_cycleskip", jsonList(cycleskip))
                    .text();
    }
    JsonOut out;
    out.str("workload", c.workload)
        .str("mode", c.mode)
        .u64("seed", c.seed)
        .boolean("ok", ref.good())
        .raw("errors", "[]")
        .raw("jobs", jobs + "]");
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ------------------------------------------------------------------
// grid_threads: 160 points through one 4-thread ParallelRunner.
// ------------------------------------------------------------------

int
runGridThreads(const Context &c, const Reference &ref)
{
    if (c.traced)
        setTelemetryEnabled(true);
    SpanLog spans(c.traced);

    const std::uint64_t specNs = nowNs();
    const SweepRunOptions opt = parseSweepSpecString(gridSpec(c.seed));
    const std::vector<SystemConfig> points = opt.spec.materialize();
    const MergeCheck check = sweepMergeCheck(points);
    const std::uint64_t execStartNs = nowNs();

    std::atomic<std::uint64_t> firstPointNs{0};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pointNs(
        points.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> emitNs;
    emitNs.reserve(points.size());
    StreamCheck stream(points, check.expectedRunFp, &ref.gridLines);
    std::uint64_t emitTotalNs = 0;
    {
        ParallelRunner runner(kWorkers);
        runner.stream<PointSample>(
            points.size(),
            [&](std::size_t i) {
                const std::uint64_t start = nowNs();
                std::uint64_t none = 0;
                firstPointNs.compare_exchange_strong(none, start);
                PointSample sample = evaluateSweepPointSample(points[i]);
                pointNs[i] = {start, nowNs()};
                return sample;
            },
            [&](std::size_t i, const PointSample &sample) {
                const std::uint64_t start = nowNs();
                stream.add(i, makeSweepRecord(i, points[i], sample));
                const std::uint64_t end = nowNs();
                emitTotalNs += end - start;
                emitNs.emplace_back(start, end);
            });
    }
    const std::uint64_t endNs = nowNs();

    std::vector<std::string> errors = stream.errors();
    if (stream.digest().hash != ref.grid.hash ||
        stream.digest().bytes != ref.grid.bytes)
        errors.push_back("record stream differs from the reference");
    const std::size_t failed =
        std::max<std::size_t>(stream.bad(), errors.empty() ? 0 : 1);

    if (c.traced) {
        const int root = spans.add("bench.job", "grid_threads sweep", -1,
                                   specNs, endNs);
        spans.add("bench.spec", "spec materialisation", root, specNs,
                  execStartNs);
        const int exec = spans.add("bench.exec", "ParallelRunner::stream",
                                   root, execStartNs, endNs,
                                   {{"threads", std::to_string(kWorkers)}});
        for (std::size_t i = 0; i < points.size(); ++i)
            spans.add("bench.point", "point " + std::to_string(i), exec,
                      pointNs[i].first, pointNs[i].second);
        for (const auto &span : emitNs)
            spans.add("bench.emit", "emit + verify record", exec,
                      span.first, span.second);
        spans.write({newTraceId(), 0});
    }

    JsonOut out;
    commonFields(out, c);
    out.boolean("ok", errors.empty())
        .raw("errors", jsonStrings(errors))
        .u64("spec_ns", specNs)
        .u64("first_ns", firstPointNs.load())
        .u64("end_ns", endNs)
        .u64("points", points.size())
        .u64("points_failed", failed)
        .u64("cycles", stream.cycles())
        .u64("threads", kWorkers)
        .str("digest", hex64(stream.digest().hash))
        .u64("bytes", stream.digest().bytes)
        .u64("exec_ns", endNs - execStartNs)
        .u64("emit_ns", emitTotalNs)
        .raw("ebw", jsonList(stream.ebw()));
    if (c.traced)
        out.raw("telemetry", telemetryJson());
    usageFields(out);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ------------------------------------------------------------------
// grid_spawn: the same 160 points through a 4-worker supervised fleet.
// ------------------------------------------------------------------

/** First worker fork of the fleet, written by the child. */
std::atomic<std::uint64_t> *g_firstForkNs = nullptr;

void
noteForkInChild()
{
    std::uint64_t none = 0;
    g_firstForkNs->compare_exchange_strong(none, nowNs());
}

int
runGridSpawn(const Context &c, const Reference &ref)
{
    // Set-up ends when the first worker exists: a fork handler in the
    // child stamps shared memory, so the supervisor stays untouched.
    void *shared = ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
                          PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (shared == MAP_FAILED) {
        std::perror("mmap");
        return 2;
    }
    g_firstForkNs = new (shared) std::atomic<std::uint64_t>(0);
    ::pthread_atfork(nullptr, nullptr, noteForkInChild);

    SpanLog spans(c.traced);
    TraceContext trace;
    int root = -1;

    const std::uint64_t specNs = nowNs();
    const std::string dir = c.dir + "/spawn";
    const SweepRunOptions opt = parseSweepSpecString(
        gridSpec(c.seed) + " --spawn=" + std::to_string(kWorkers) +
        " --layout=contiguous" + (c.traced ? " --telemetry" : ""));
    if (c.traced) {
        // The fleet's supervise and merge spans parent under this
        // sweep's root span, in every process of the fleet.
        trace.traceId = newTraceId();
        root = spans.add("bench.job", "grid_spawn sweep", -1, specNs, 0);
        spans.at(root)->id = traceAllocSpanId();
        exportTraceContext({trace.traceId, spans.at(root)->id});
    }
    const std::uint64_t callNs = nowNs();
    const SupervisedSweepOutcome outcome =
        runSupervisedSweep(opt, kWorkers, dir, /*resume=*/false);
    const std::uint64_t returnNs = nowNs();

    const std::vector<SystemConfig> points = opt.spec.materialize();
    StreamCheck stream(points, outcome.check.expectedRunFp,
                       &ref.gridLines);
    const std::vector<PointRecord> &records = outcome.merged.records;
    for (std::size_t i = 0; i < records.size(); ++i)
        stream.add(i, records[i]);
    const std::uint64_t endNs = nowNs();

    std::vector<std::string> errors = stream.errors();
    std::size_t failed = stream.bad();
    if (records.size() < points.size()) {
        failed += points.size() - records.size();
        errors.push_back(std::to_string(points.size() - records.size()) +
                         " point(s) missing from the merged stream");
    }
    if (!outcome.report.complete)
        errors.push_back("supervisor reports an incomplete fleet");
    // On a clean tree no worker dies: a respawn means one crashed.
    if (outcome.report.respawns != 0)
        errors.push_back(std::to_string(outcome.report.respawns) +
                         " worker respawn(s)");
    if (stream.digest().hash != ref.grid.hash ||
        stream.digest().bytes != ref.grid.bytes) {
        errors.push_back("merged stream differs from grid_threads' "
                         "stream");
        failed = std::max<std::size_t>(failed, 1);
    }

    if (c.traced) {
        spans.at(root)->endNs = endNs;
        spans.add("bench.spec", "spec materialisation", root, specNs,
                  callNs);
        spans.add("bench.verify", "verify merged records", root, returnNs,
                  endNs);
        spans.write({trace.traceId, 0});
    }

    JsonOut out;
    commonFields(out, c);
    out.boolean("ok", errors.empty())
        .raw("errors", jsonStrings(errors))
        .u64("spec_ns", specNs)
        .u64("first_ns", g_firstForkNs->load())
        .u64("end_ns", endNs)
        .u64("points", points.size())
        .u64("points_failed", std::min(failed, points.size()))
        .u64("cycles", stream.cycles())
        .u64("threads", kWorkers)
        .str("digest", hex64(stream.digest().hash))
        .u64("bytes", stream.digest().bytes)
        .raw("ebw", jsonList(stream.ebw()));
    if (c.traced)
        out.raw("telemetry", telemetryJson());
    usageFields(out);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ------------------------------------------------------------------
// daemon_jobs: a private sbn_sweepd, one closed-loop client, two jobs
// outstanding.
// ------------------------------------------------------------------

Request
jobRequest(RequestKind kind, std::uint64_t job)
{
    Request request;
    request.kind = kind;
    request.hasJob = true;
    request.job = job;
    return request;
}

/** One submitted job, timed from submit to its verified payload. */
struct JobRun
{
    std::size_t index = 0; //!< position in the job sequence
    std::uint64_t id = 0;  //!< daemon job id
    std::size_t points = 0;
    std::uint64_t cycles = 0;
    std::uint64_t submitNs = 0, ackNs = 0, doneSeenNs = 0;
    std::uint64_t resultsStartNs = 0, resultsEndNs = 0, endNs = 0;
    std::size_t polls = 0;
    std::size_t bytes = 0;
    bool ok = false;
    bool refused = false;
    std::string error;
    std::vector<double> ebw;
    double cpuS = 0; //!< runner CPU from the metrics verb (traced)
};

/** Record-by-record check of one job's results payload. */
bool
verifyJob(const std::string &spec, const Reference::Job &ref,
          const std::string &payload, JobRun &run)
{
    const SweepRunOptions opt = parseSweepSpecString(spec);
    const std::vector<SystemConfig> points = opt.spec.materialize();
    const MergeCheck check = sweepMergeCheck(points);
    run.points = points.size();
    std::size_t k = 0;
    std::size_t start = 0;
    while (start < payload.size()) {
        std::size_t end = payload.find('\n', start);
        if (end == std::string::npos)
            end = payload.size();
        const std::string line = payload.substr(start, end - start);
        start = end + 1;
        PointRecord record;
        std::string error;
        if (!parseRecord(line, record, error)) {
            run.error = "record " + std::to_string(k) + ": " + error;
            return false;
        }
        if (k >= points.size() || record.flatIndex != k ||
            record.runFp != check.expectedRunFp[k]) {
            run.error = "record " + std::to_string(k) +
                        ": wrong index or fingerprint";
            return false;
        }
        const double cycleskip =
            k < ref.cycleskipEbw.size() ? ref.cycleskipEbw[k] : 0.0;
        if (!record.hasLatency || !std::isfinite(record.mean) ||
            !(cycleskip > 0) ||
            std::fabs(record.mean - cycleskip) / cycleskip >
                kEbwTolerance) {
            run.error = "record " + std::to_string(k) +
                        ": EBW " + formatDouble(record.mean) +
                        " disagrees with CycleSkip " +
                        formatDouble(cycleskip);
            return false;
        }
        run.ebw.push_back(record.mean);
        run.cycles += cyclesOf(points[k]);
        ++k;
    }
    if (k != points.size()) {
        run.error = "payload holds " + std::to_string(k) + " of " +
                    std::to_string(points.size()) + " records";
        return false;
    }
    StreamDigest digest;
    digest.add(payload);
    if (digest.hash != ref.payload.hash ||
        digest.bytes != ref.payload.bytes) {
        run.error = "payload differs from the in-process serial run";
        return false;
    }
    return true;
}

int
runDaemonJobs(const Context &c, const Reference &ref)
{
    const std::uint64_t specNs = nowNs();
    const std::vector<std::string> specs = daemonJobSpecs(c.seed);
    if (ref.jobs.size() != specs.size()) {
        std::fprintf(stderr, "reference holds %zu jobs, sequence %zu\n",
                     ref.jobs.size(), specs.size());
        return 2;
    }
    const std::string stateDir = c.dir + "/state";
    ::mkdir(stateDir.c_str(), 0777);

    // The daemon runs in a child forked before this process has any
    // thread; it dies with us (PDEATHSIG) if the harness is killed.
    const pid_t harnessPid = ::getpid();
    const pid_t daemon = ::fork();
    if (daemon < 0) {
        std::perror("fork");
        return 2;
    }
    if (daemon == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != harnessPid)
            ::_exit(1);
        DaemonConfig config;
        config.stateDir = stateDir;
        config.maxRunning = kOutstanding;
        ::_exit(runSweepDaemon(config));
    }

    const std::string portFile = daemonPortFilePath(stateDir);
    for (;;) {
        struct stat st{};
        if (::stat(portFile.c_str(), &st) == 0 && st.st_size > 0)
            break;
        int status = 0;
        if (::waitpid(daemon, &status, WNOHANG) == daemon ||
            nowNs() - specNs > 10'000'000'000ull) {
            std::fprintf(stderr, "daemon did not come up\n");
            ::kill(daemon, SIGKILL);
            return 2;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    std::vector<JobRun> runs;
    std::size_t refused = 0;
    {
        DaemonClient client(stateDir);
        const std::string suffix = c.traced ? " --telemetry" : "";
        std::vector<std::size_t> live;
        std::size_t next = 0;
        const auto submitNext = [&]() {
            JobRun run;
            run.index = next;
            Request request;
            request.kind = RequestKind::Submit;
            request.spec = specs[next] + suffix;
            ++next;
            run.submitNs = nowNs();
            const ClientResponse response = client.call(request);
            run.ackNs = nowNs();
            if (!response.ok()) {
                run.refused = true;
                run.endNs = run.ackNs;
                run.error = "submit refused: " + response.errorCode();
                ++refused;
            } else {
                run.id = static_cast<std::uint64_t>(
                    response.number("job", 0));
                live.push_back(runs.size());
            }
            runs.push_back(run);
        };
        const auto refill = [&]() {
            while (next < specs.size() && live.size() < kOutstanding)
                submitNext();
        };
        refill();
        const std::uint64_t deadlineNs =
            specNs + static_cast<std::uint64_t>(kDaemonDeadlineS * 1e9);
        while (!live.empty()) {
            bool finished = false;
            for (std::size_t at = 0; at < live.size();) {
                JobRun &run = runs[live[at]];
                const ClientResponse status =
                    client.call(jobRequest(RequestKind::Status, run.id));
                ++run.polls;
                const std::string state = status.text("state");
                const bool terminal = !status.ok() || state == "done" ||
                                      state == "failed" ||
                                      state == "cancelled";
                if (!terminal && nowNs() < deadlineNs) {
                    ++at;
                    continue;
                }
                run.doneSeenNs = nowNs();
                if (state == "done") {
                    run.resultsStartNs = nowNs();
                    const ClientResponse results = client.call(
                        jobRequest(RequestKind::Results, run.id));
                    run.resultsEndNs = nowNs();
                    run.bytes = results.payload.size();
                    run.ok = results.ok() &&
                             verifyJob(specs[run.index],
                                       ref.jobs[run.index],
                                       results.payload, run);
                    if (!results.ok())
                        run.error = "results refused: " +
                                    results.errorCode();
                } else {
                    run.error = terminal ? "job ended " + state
                                         : "job still " + state +
                                               " at the deadline";
                }
                run.endNs = nowNs();
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(at));
                finished = true;
            }
            if (finished)
                refill();
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        if (c.traced) {
            for (JobRun &run : runs)
                if (!run.refused)
                    run.cpuS =
                        client
                            .call(jobRequest(RequestKind::Metrics, run.id))
                            .number("cpu_s", 0);
        }
        std::string metrics = "null";
        if (c.traced) {
            Request request;
            request.kind = RequestKind::Metrics;
            const ClientResponse daemonMetrics = client.call(request);
            metrics = JsonOut()
                          .num("journal_fsyncs",
                               daemonMetrics.number("journal_fsyncs", 0))
                          .text();
        }
        Request drain;
        drain.kind = RequestKind::Drain;
        client.call(drain);

        // Wait for the drained daemon; it exits once its runners have.
        int status = 0;
        const std::uint64_t waitStart = nowNs();
        while (::waitpid(daemon, &status, WNOHANG) != daemon) {
            if (nowNs() - waitStart > 20'000'000'000ull) {
                ::kill(daemon, SIGKILL);
                ::waitpid(daemon, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        std::uint64_t firstAckNs = 0, endNs = 0, cycles = 0;
        std::size_t failedJobs = 0;
        std::vector<std::string> errors;
        std::string jobs = "[";
        SpanLog spans(c.traced);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const JobRun &run = runs[i];
            if (firstAckNs == 0 && !run.refused)
                firstAckNs = run.ackNs;
            endNs = std::max(endNs, run.endNs);
            if (run.ok) {
                cycles += run.cycles;
            } else {
                ++failedJobs;
                if (errors.size() < 8)
                    errors.push_back("job " + std::to_string(run.index) +
                                     ": " + run.error);
            }
            jobs += (i ? "," : "") +
                    JsonOut()
                        .u64("index", run.index)
                        .u64("job", run.id)
                        .boolean("ok", run.ok)
                        .boolean("refused", run.refused)
                        .u64("points", run.points)
                        .u64("cycles", run.cycles)
                        .u64("submit_ns", run.submitNs)
                        .u64("ack_ns", run.ackNs)
                        .u64("done_seen_ns", run.doneSeenNs)
                        .u64("results_start_ns", run.resultsStartNs)
                        .u64("results_end_ns", run.resultsEndNs)
                        .u64("end_ns", run.endNs)
                        .u64("polls", run.polls)
                        .u64("bytes", run.bytes)
                        .num("runner_cpu_s", run.cpuS)
                        .raw("ebw", jsonList(run.ebw))
                        .text();
            if (c.traced && !run.refused) {
                const int root = spans.add(
                    "bench.job", "daemon job " + std::to_string(run.id),
                    -1, run.submitNs, run.endNs,
                    {{"job", std::to_string(run.id)}});
                spans.add("bench.submit", "submit round trip", root,
                          run.submitNs, run.ackNs);
                if (run.resultsStartNs != 0) {
                    spans.add("bench.results", "results round trip", root,
                              run.resultsStartNs, run.resultsEndNs);
                    spans.add("bench.verify", "verify payload", root,
                              run.resultsEndNs, run.endNs);
                }
            }
        }
        if (c.traced)
            spans.write({newTraceId(), 0});
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            errors.push_back("daemon exited abnormally");

        JsonOut out;
        commonFields(out, c);
        out.boolean("ok", errors.empty())
            .raw("errors", jsonStrings(errors))
            .u64("spec_ns", specNs)
            .u64("first_ns", firstAckNs)
            .u64("end_ns", endNs)
            .u64("jobs_attempted", runs.size())
            .u64("jobs_failed", failedJobs)
            .u64("jobs_refused", refused)
            .u64("cycles", cycles)
            .raw("daemon_metrics", metrics)
            .raw("jobs", jobs + "]");
        usageFields(out);
        std::printf("%s\n", out.text().c_str());
    }
    return 0;
}

/** Variables that would perturb or redirect an untraced measurement. */
const char *const kForeignEnv[] = {"SBN_FAULT", "SBN_TRACE_DIR",
                                   "SBN_TRACE_CTX", "SBN_THREADS",
                                   "SBN_CACHE_DIR"};

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t startNs = nowNs();
    const std::map<std::string, std::string> known{
        {"workload", "grid_threads, grid_spawn or daemon_jobs"},
        {"mode", "run (timed, verified) or ref (untimed reference)"},
        {"seed", "workload seed"},
        {"dir", "private scratch directory for this iteration"},
        {"ref", "reference file (written by mode=ref, read by run)"},
        {"t0-ns", "CLOCK_MONOTONIC ns at which the launcher started us"},
        {"traced", "switch on telemetry and spans ($SBN_TRACE_DIR)"},
    };
    const CommandLine cli(argc, argv, known);
    Context c;
    c.workload = cli.getString("workload", "");
    c.mode = cli.getString("mode", "run");
    const std::int64_t seed = cli.getInt("seed", 1);
    c.dir = cli.getString("dir", "");
    c.refPath = cli.getString("ref", "");
    const std::int64_t t0 = cli.getInt("t0-ns", 0);
    c.traced = cli.getBool("traced", false);
    if (seed < 0 || t0 < 0 || c.dir.empty() || c.refPath.empty()) {
        std::fprintf(stderr, "need --seed>=0, --dir and --ref\n");
        return 2;
    }
    c.seed = static_cast<std::uint64_t>(seed);
    c.t0Ns = t0 > 0 ? static_cast<std::uint64_t>(t0) : startNs;

    // Clean-environment guard: an untraced measurement runs only in an
    // optimised NDEBUG build without sanitizers, with none of the
    // program's fault, trace, thread or cache overrides inherited.
    const bool sanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
        true;
#else
        std::strstr(SBN_E2E_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    const bool releaseBuild = false;
#else
    const bool releaseBuild = !sanitized;
#endif
    for (const char *name : kForeignEnv) {
        const char *value = std::getenv(name);
        const bool allowed =
            c.traced && std::strcmp(name, "SBN_TRACE_DIR") == 0;
        if (value != nullptr && *value != '\0' && !allowed) {
            std::fprintf(stderr, "refusing to measure with %s set\n",
                         name);
            return 3;
        }
    }
    if (c.mode == "run" && !c.traced && !releaseBuild) {
        std::fprintf(stderr, "refusing to measure a build that is not "
                             "optimised, NDEBUG and sanitizer-free\n");
        return 3;
    }

    const bool grid =
        c.workload == "grid_threads" || c.workload == "grid_spawn";
    if (!grid && c.workload != "daemon_jobs") {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     c.workload.c_str());
        return 2;
    }
    if (c.mode == "ref")
        return grid ? referenceGrid(c) : referenceDaemon(c);
    if (c.mode != "run") {
        std::fprintf(stderr, "unknown mode '%s'\n", c.mode.c_str());
        return 2;
    }
    const Reference ref = loadReference(c.refPath);
    if (c.workload == "grid_threads")
        return runGridThreads(c, ref);
    if (c.workload == "grid_spawn")
        return runGridSpawn(c, ref);
    return runDaemonJobs(c, ref);
}

#include "shard/result_io.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

#include "core/fingerprint.hh"
#include "shard/fault.hh"
#include "stats/histogram.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace sbn {

namespace {

// v3: plain-sweep records may carry the latency quantile summary
// (config.collectLatency) as an optional lat_* key group. v2 added
// the workload serialization (the workload layer also bumped the
// config-fingerprint version, so v1 records are doubly stale).
constexpr const char *kRecordType = "sbn.point.v3";

// Shared with configFingerprint and the analytic disk cache so the
// decimal+bits codecs can never drift (core/fingerprint.hh).
std::uint64_t
doubleBits(double value)
{
    return doubleFingerprintBits(value);
}

double
bitsToDouble(std::uint64_t bits)
{
    return doubleFromFingerprintBits(bits);
}

std::string
formatDouble(double value)
{
    return formatExactDouble(value);
}

} // namespace

const char *
runModeName(RunMode mode)
{
    return mode == RunMode::Sweep ? "sweep" : "adaptive";
}

bool
PointRecord::bitIdentical(const PointRecord &other) const
{
    if (hasLatency != other.hasLatency)
        return false;
    if (hasLatency) {
        const LatencySummary &a = latency;
        const LatencySummary &b = other.latency;
        if (a.samples != b.samples ||
            doubleBits(a.waitP50) != doubleBits(b.waitP50) ||
            doubleBits(a.waitP90) != doubleBits(b.waitP90) ||
            doubleBits(a.waitP99) != doubleBits(b.waitP99) ||
            doubleBits(a.waitMax) != doubleBits(b.waitMax) ||
            doubleBits(a.residenceP50) != doubleBits(b.residenceP50) ||
            doubleBits(a.residenceP90) != doubleBits(b.residenceP90) ||
            doubleBits(a.residenceP99) != doubleBits(b.residenceP99) ||
            doubleBits(a.residenceMax) != doubleBits(b.residenceMax))
            return false;
    }
    return flatIndex == other.flatIndex &&
           configFp == other.configFp && runFp == other.runFp &&
           masterSeed == other.masterSeed && mode == other.mode &&
           workload == other.workload &&
           replications == other.replications &&
           rounds == other.rounds && converged == other.converged &&
           doubleBits(mean) == doubleBits(other.mean) &&
           doubleBits(halfWidth) == doubleBits(other.halfWidth);
}

bool
PointRecord::latencyMatchesRunFp() const
{
    return mode == RunMode::Sweep
               ? runFp == sweepRunFingerprint(configFp, hasLatency)
               : !hasLatency;
}

std::uint64_t
sweepRunFingerprint(std::uint64_t config_fp, bool latency)
{
    const std::uint64_t state =
        fingerprintMix(config_fp, 0x53574545502e7631ull);
    return latency ? fingerprintMix(state, Histogram::kBinningRule)
                   : state;
}

std::uint64_t
adaptiveRunFingerprint(std::uint64_t config_fp,
                       const PrecisionTarget &target,
                       const RoundSchedule &schedule)
{
    std::uint64_t state =
        fingerprintMix(config_fp, 0x41444150542e7631ull);
    state = fingerprintMix(state, doubleBits(target.relative));
    state = fingerprintMix(state, doubleBits(target.absolute));
    state = fingerprintMix(state, doubleBits(target.level));
    state = fingerprintMix(state, schedule.initial);
    state = fingerprintMix(state, doubleBits(schedule.growth));
    state = fingerprintMix(state, schedule.cap);
    return state;
}

PointRecord
makeSweepRecord(std::size_t flat_index, const SystemConfig &config,
                const PointSample &sample)
{
    PointRecord record;
    record.flatIndex = flat_index;
    record.configFp = configFingerprint(config);
    record.runFp =
        sweepRunFingerprint(record.configFp, sample.hasLatency);
    record.masterSeed = config.seed;
    record.mode = RunMode::Sweep;
    record.workload = formatWorkload(config.workload);
    record.replications = 1;
    record.rounds = 0;
    record.converged = true;
    record.mean = sample.ebw;
    record.halfWidth = 0.0;
    record.hasLatency = sample.hasLatency;
    if (sample.hasLatency)
        record.latency = sample.latency;
    return record;
}

PointRecord
makeAdaptiveRecord(std::size_t flat_index, const SystemConfig &config,
                   const AdaptiveEstimate &estimate,
                   const PrecisionTarget &target,
                   const RoundSchedule &schedule)
{
    PointRecord record;
    record.flatIndex = flat_index;
    record.configFp = configFingerprint(config);
    record.runFp =
        adaptiveRunFingerprint(record.configFp, target, schedule);
    record.masterSeed = config.seed;
    record.mode = RunMode::Adaptive;
    record.workload = formatWorkload(config.workload);
    record.replications = estimate.estimate.samples;
    record.rounds = estimate.rounds;
    record.converged = estimate.converged;
    record.mean = estimate.estimate.mean;
    record.halfWidth = estimate.estimate.halfWidth;
    return record;
}

std::string
formatRecord(const PointRecord &record)
{
    std::string out;
    out.reserve(256);
    out += "{\"type\":\"";
    out += kRecordType;
    out += "\",\"i\":";
    out += std::to_string(record.flatIndex);
    out += ",\"config\":\"";
    out += formatFingerprint(record.configFp);
    out += "\",\"run\":\"";
    out += formatFingerprint(record.runFp);
    out += "\",\"seed\":";
    out += std::to_string(record.masterSeed);
    out += ",\"mode\":\"";
    out += runModeName(record.mode);
    out += "\",\"workload\":\"";
    out += record.workload;
    out += "\",\"reps\":";
    out += std::to_string(record.replications);
    out += ",\"rounds\":";
    out += std::to_string(record.rounds);
    out += ",\"converged\":";
    out += record.converged ? "true" : "false";
    out += ",\"mean\":";
    out += formatDouble(record.mean);
    out += ",\"mean_bits\":\"";
    out += formatFingerprint(doubleBits(record.mean));
    out += "\",\"hw\":";
    out += formatDouble(record.halfWidth);
    out += ",\"hw_bits\":\"";
    out += formatFingerprint(doubleBits(record.halfWidth));
    out += '"';
    if (record.hasLatency) {
        const auto pair = [&](const char *key, double value) {
            out += ",\"";
            out += key;
            out += "\":";
            out += formatDouble(value);
            out += ",\"";
            out += key;
            out += "_bits\":\"";
            out += formatFingerprint(doubleBits(value));
            out += '"';
        };
        out += ",\"lat_n\":";
        out += std::to_string(record.latency.samples);
        pair("lw50", record.latency.waitP50);
        pair("lw90", record.latency.waitP90);
        pair("lw99", record.latency.waitP99);
        pair("lwmax", record.latency.waitMax);
        pair("lr50", record.latency.residenceP50);
        pair("lr90", record.latency.residenceP90);
        pair("lr99", record.latency.residenceP99);
        pair("lrmax", record.latency.residenceMax);
    }
    out += '}';
    return out;
}

namespace {

/** One parsed key/value of the flat record object. */
struct RawValue
{
    enum class Kind
    {
        String,
        Number,
        Bool
    };
    Kind kind;
    std::string text; //!< string contents / number text / "true"...
};

/**
 * Tokenize a flat one-line JSON object into key -> raw value. No
 * nesting, no escapes, no null - the record grammar is deliberately
 * tiny so validation can be airtight. Returns false + error.
 */
bool
tokenizeFlatObject(const std::string &line,
                   std::map<std::string, RawValue> &out,
                   std::string &error)
{
    std::size_t pos = 0;
    const auto skipSpace = [&] {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
    };
    const auto fail = [&](const std::string &what) {
        error = what + " at column " + std::to_string(pos + 1);
        return false;
    };
    const auto parseString = [&](std::string &text) {
        if (pos >= line.size() || line[pos] != '"')
            return false;
        ++pos;
        const std::size_t begin = pos;
        while (pos < line.size() && line[pos] != '"') {
            const char c = line[pos];
            if (c == '\\' || static_cast<unsigned char>(c) < 0x20)
                return false; // no escapes in the record grammar
            ++pos;
        }
        if (pos >= line.size())
            return false;
        text.assign(line, begin, pos - begin);
        ++pos;
        return true;
    };

    skipSpace();
    if (pos >= line.size() || line[pos] != '{')
        return fail("expected '{'");
    ++pos;

    bool first = true;
    for (;;) {
        skipSpace();
        if (pos < line.size() && line[pos] == '}') {
            ++pos;
            break;
        }
        if (!first) {
            if (pos >= line.size() || line[pos] != ',')
                return fail("expected ',' or '}'");
            ++pos;
            skipSpace();
        }
        first = false;

        std::string key;
        if (!parseString(key))
            return fail("expected a string key");
        skipSpace();
        if (pos >= line.size() || line[pos] != ':')
            return fail("expected ':'");
        ++pos;
        skipSpace();

        RawValue value;
        if (pos < line.size() && line[pos] == '"') {
            value.kind = RawValue::Kind::String;
            if (!parseString(value.text))
                return fail("unterminated string value");
        } else if (line.compare(pos, 4, "true") == 0) {
            value.kind = RawValue::Kind::Bool;
            value.text = "true";
            pos += 4;
        } else if (line.compare(pos, 5, "false") == 0) {
            value.kind = RawValue::Kind::Bool;
            value.text = "false";
            pos += 5;
        } else {
            const std::size_t begin = pos;
            while (pos < line.size() &&
                   (std::isdigit(static_cast<unsigned char>(
                        line[pos])) ||
                    line[pos] == '-' || line[pos] == '+' ||
                    line[pos] == '.' || line[pos] == 'e' ||
                    line[pos] == 'E' || line[pos] == 'n' ||
                    line[pos] == 'a' || line[pos] == 'i' ||
                    line[pos] == 'f'))
                ++pos; // digits plus nan/inf spellings
            if (pos == begin)
                return fail("expected a value");
            value.kind = RawValue::Kind::Number;
            value.text.assign(line, begin, pos - begin);
        }

        if (!out.emplace(key, value).second) {
            error = "duplicate key '" + key + "'";
            return false;
        }
    }
    skipSpace();
    if (pos != line.size()) {
        error = "trailing characters after the record object";
        return false;
    }
    return true;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || errno == ERANGE)
        return false;
    out = value;
    return true;
}

bool
parseDecimalDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    out = value;
    return true;
}

} // namespace

bool
parseRecord(const std::string &line, PointRecord &out,
            std::string &error)
{
    std::map<std::string, RawValue> fields;
    if (!tokenizeFlatObject(line, fields, error))
        return false;

    const auto take = [&](const char *key, RawValue::Kind kind,
                          std::string &text) {
        const auto it = fields.find(key);
        if (it == fields.end()) {
            error = std::string("missing key '") + key + "'";
            return false;
        }
        if (it->second.kind != kind) {
            error = std::string("key '") + key + "' has the wrong type";
            return false;
        }
        text = it->second.text;
        fields.erase(it);
        return true;
    };

    PointRecord record;
    std::string text;

    if (!take("type", RawValue::Kind::String, text))
        return false;
    if (text != kRecordType) {
        error = "unknown record type '" + text + "' (expected " +
                kRecordType + ")";
        return false;
    }

    std::uint64_t number;
    if (!take("i", RawValue::Kind::Number, text))
        return false;
    if (!parseUnsigned(text, number)) {
        error = "'i' is not an unsigned integer: " + text;
        return false;
    }
    record.flatIndex = static_cast<std::size_t>(number);

    if (!take("config", RawValue::Kind::String, text))
        return false;
    if (!parseFingerprint(text, record.configFp)) {
        error = "'config' is not a 0x fingerprint: " + text;
        return false;
    }
    if (!take("run", RawValue::Kind::String, text))
        return false;
    if (!parseFingerprint(text, record.runFp)) {
        error = "'run' is not a 0x fingerprint: " + text;
        return false;
    }

    if (!take("seed", RawValue::Kind::Number, text))
        return false;
    if (!parseUnsigned(text, record.masterSeed)) {
        error = "'seed' is not an unsigned integer: " + text;
        return false;
    }

    if (!take("mode", RawValue::Kind::String, text))
        return false;
    if (text == "sweep") {
        record.mode = RunMode::Sweep;
    } else if (text == "adaptive") {
        record.mode = RunMode::Adaptive;
    } else {
        error = "unknown mode '" + text + "'";
        return false;
    }

    if (!take("workload", RawValue::Kind::String, text))
        return false;
    if (text.empty()) {
        error = "'workload' must name the point's workload";
        return false;
    }
    record.workload = text;

    if (!take("reps", RawValue::Kind::Number, text))
        return false;
    if (!parseUnsigned(text, record.replications) ||
        record.replications == 0) {
        error = "'reps' must be a positive integer: " + text;
        return false;
    }

    if (!take("rounds", RawValue::Kind::Number, text))
        return false;
    if (!parseUnsigned(text, number) || number > 0xffffffffull) {
        error = "'rounds' is not a valid count: " + text;
        return false;
    }
    record.rounds = static_cast<std::uint32_t>(number);

    if (!take("converged", RawValue::Kind::Bool, text))
        return false;
    record.converged = text == "true";

    const auto takeDoublePair = [&](const char *dec_key,
                                    const char *bits_key,
                                    double &value) {
        std::string dec_text, bits_text;
        if (!take(dec_key, RawValue::Kind::Number, dec_text) ||
            !take(bits_key, RawValue::Kind::String, bits_text))
            return false;
        std::uint64_t bits;
        if (!parseFingerprint(bits_text, bits)) {
            error = std::string("'") + bits_key +
                    "' is not a 0x bit pattern: " + bits_text;
            return false;
        }
        double decimal;
        if (!parseDecimalDouble(dec_text, decimal)) {
            error = std::string("'") + dec_key +
                    "' is not a number: " + dec_text;
            return false;
        }
        value = bitsToDouble(bits);
        // The decimal is %.17g of the bits, which round-trips
        // exactly; any mismatch means the record was edited or
        // corrupted (NaN decimals lose their payload, so NaN==NaN is
        // the comparison there).
        const bool both_nan =
            std::isnan(decimal) && std::isnan(value);
        if (!both_nan && doubleBits(decimal) != bits) {
            error = std::string("'") + dec_key + "' (" + dec_text +
                    ") disagrees with '" + bits_key + "' (" +
                    bits_text + ")";
            return false;
        }
        return true;
    };

    if (!takeDoublePair("mean", "mean_bits", record.mean))
        return false;
    if (!takeDoublePair("hw", "hw_bits", record.halfWidth))
        return false;

    // Optional latency group: lat_n's presence commits the record to
    // the full key set, so a partially written group still fails.
    if (fields.count("lat_n") != 0) {
        record.hasLatency = true;
        if (!take("lat_n", RawValue::Kind::Number, text))
            return false;
        if (!parseUnsigned(text, record.latency.samples)) {
            error = "'lat_n' is not an unsigned integer: " + text;
            return false;
        }
        LatencySummary &lat = record.latency;
        if (!takeDoublePair("lw50", "lw50_bits", lat.waitP50) ||
            !takeDoublePair("lw90", "lw90_bits", lat.waitP90) ||
            !takeDoublePair("lw99", "lw99_bits", lat.waitP99) ||
            !takeDoublePair("lwmax", "lwmax_bits", lat.waitMax) ||
            !takeDoublePair("lr50", "lr50_bits", lat.residenceP50) ||
            !takeDoublePair("lr90", "lr90_bits", lat.residenceP90) ||
            !takeDoublePair("lr99", "lr99_bits", lat.residenceP99) ||
            !takeDoublePair("lrmax", "lrmax_bits", lat.residenceMax))
            return false;
    }

    if (!fields.empty()) {
        error = "unknown key '" + fields.begin()->first + "'";
        return false;
    }

    out = record;
    return true;
}

std::vector<PointRecord>
readRecordFile(const std::string &path, bool tolerate_partial_tail)
{
    std::ifstream in(path);
    if (!in.good()) {
        // Lenient mode forgives only a file that does not exist (a
        // fresh shard). A file that is *present* but unreadable
        // (permissions, I/O error) must fail loudly: a resume that
        // shrugged it off would rewrite the shard from scratch and
        // silently discard every finished point.
        struct stat info;
        if (tolerate_partial_tail &&
            stat(path.c_str(), &info) != 0 && errno == ENOENT)
            return {};
        sbn_fatal("cannot open shard record file '", path, "'");
    }

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);

    std::vector<PointRecord> records;
    records.reserve(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        PointRecord record;
        std::string error;
        if (parseRecord(lines[i], record, error)) {
            records.push_back(record);
            continue;
        }
        if (tolerate_partial_tail && i + 1 == lines.size()) {
            sbn_warn("dropping truncated final record of '", path,
                     "' (line ", i + 1, ": ", error,
                     ") - the writer was likely killed mid-append");
            break;
        }
        sbn_fatal("malformed record in '", path, "' line ", i + 1,
                  ": ", error);
    }
    return records;
}

namespace {

/** Split @p path into (parent directory, basename). */
void
splitPath(const std::string &path, std::string &dir, std::string &base)
{
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) {
        dir = ".";
        base = path;
    } else {
        dir = slash == 0 ? "/" : path.substr(0, slash);
        base = path.substr(slash + 1);
    }
}

/**
 * Best-effort fsync of the directory holding @p path, so the rename
 * that just published a rewrite is itself durable. Failure is not
 * fatal: some filesystems refuse O_RDONLY directory syncs, and the
 * data-file fsync already happened.
 */
void
syncParentDir(const std::string &path)
{
    std::string dir, base;
    splitPath(path, dir, base);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    (void)::fsync(fd);
    ::close(fd);
}

} // namespace

void
rewriteRecordsAtomic(const std::string &path,
                     const std::vector<PointRecord> &records)
{
    // Process-unique temp name: a supervisor respawn racing a dying
    // predecessor (or two resumes launched by hand) never write the
    // same temp file; rename() then publishes whichever finished.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        RecordWriter writer(tmp, /*append=*/false);
        for (const PointRecord &record : records)
            writer.add(record);
        // The canonical rewrite is the durability-critical write: it
        // *replaces* records that were already safe on disk, so its
        // bytes must be durable before the rename makes them the only
        // copy.
        writer.sync();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        sbn_fatal("cannot rename '", tmp, "' over '", path, "'");
    syncParentDir(path);
}

bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t written = 0;
    while (written < size) {
        const ssize_t got = ::write(fd, data + written, size - written);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(got);
    }
    return true;
}

void
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        sbn_fatal("cannot create '", tmp,
                  "': ", std::strerror(errno));
    if (!writeAll(fd, content.data(), content.size()) ||
        ::fsync(fd) != 0) {
        ::close(fd);
        sbn_fatal("cannot write '", tmp, "': ", std::strerror(errno));
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        sbn_fatal("cannot publish '", path,
                  "': ", std::strerror(errno));
    syncParentDir(path);
}

std::size_t
removeStaleRewriteTemps(const std::string &path)
{
    std::string dir, base;
    splitPath(path, dir, base);
    const std::string prefix = base + ".tmp";

    DIR *handle = ::opendir(dir.c_str());
    if (handle == nullptr)
        return 0;
    std::vector<std::string> stale;
    while (const dirent *entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name.compare(0, prefix.size(), prefix) == 0)
            stale.push_back(dir + "/" + name);
    }
    ::closedir(handle);

    std::size_t removed = 0;
    for (const std::string &victim : stale) {
        if (::unlink(victim.c_str()) == 0) {
            sbn_warn("removed stale rewrite temp '", victim,
                     "' - a previous rewrite of '", path,
                     "' was killed before its rename");
            ++removed;
        }
    }
    return removed;
}

void
ensureWritableShardDir(const std::string &dir)
{
    if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        sbn_fatal("cannot create shard directory '", dir,
                  "': ", std::strerror(errno));

    struct stat info;
    if (stat(dir.c_str(), &info) != 0 || !S_ISDIR(info.st_mode))
        sbn_fatal("shard directory path '", dir,
                  "' exists but is not a directory");

    // Permission bits lie to privileged processes and say nothing
    // about read-only mounts; proving writability means writing.
    const std::string probe = dir + "/.sbn-writable-probe-" +
                              std::to_string(::getpid());
    {
        std::ofstream out(probe);
        out << '\n';
        out.flush();
        if (!out.good())
            sbn_fatal("shard directory '", dir,
                      "' is not writable - fix permissions or pass a "
                      "different --shard-dir before any point runs");
    }
    ::unlink(probe.c_str());
}

RecordWriter::RecordWriter(const std::string &path, bool append)
    : path_(path)
{
    const int flags =
        O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
    fd_ = ::open(path.c_str(), flags, 0666);
    if (fd_ < 0)
        sbn_fatal("cannot open shard record file '", path,
                  "' for writing: ", std::strerror(errno));
}

RecordWriter::~RecordWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
RecordWriter::add(const PointRecord &record)
{
    const std::size_t ordinal = written_ + 1;
    if (faultInjectWriteFailure(ordinal))
        sbn_fatal("write error on shard record file '", path_,
                  "': injected fault (", kFaultEnvVar,
                  " fail_write_at=", ordinal, ")");

    const std::string line = formatRecord(record) + '\n';
    if (!writeAll(fd_, line.data(), line.size()))
        sbn_fatal("write error on shard record file '", path_,
                  "': ", std::strerror(errno));
    ++written_;
    telemetryAdd(TelemetryCounter::ShardRecordsWritten, 1);
    // Record boundary: the line is fully on disk (unbuffered write).
    // This is where the fault plane kills, tears or wedges a worker.
    faultAtRecordBoundary(ordinal, line, fd_);
}

void
RecordWriter::sync()
{
    if (::fsync(fd_) != 0)
        sbn_fatal("cannot fsync shard record file '", path_,
                  "': ", std::strerror(errno));
}

} // namespace sbn

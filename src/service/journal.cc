#include "service/journal.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "service/protocol.hh"
#include "shard/fault.hh"
#include "shard/result_io.hh"
#include "util/logging.hh"

namespace sbn {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Submitted:
        return "submitted";
    case JobState::Running:
        return "running";
    case JobState::Merging:
        return "merging";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

bool
parseJobState(const std::string &text, JobState &out)
{
    static constexpr JobState kStates[] = {
        JobState::Submitted, JobState::Running, JobState::Merging,
        JobState::Done,      JobState::Failed,  JobState::Cancelled,
    };
    for (const JobState state : kStates) {
        if (text == jobStateName(state)) {
            out = state;
            return true;
        }
    }
    return false;
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled;
}

std::string
formatJournalEntry(const JobJournalEntry &entry)
{
    // Fixed key order, every key always present: the same strictness
    // discipline as the point-record format, so parsing never has to
    // guess and the bytes of a given transition are deterministic.
    char timeout[32];
    std::snprintf(timeout, sizeof timeout, "%.17g",
                  entry.timeoutSeconds);
    char started[32];
    std::snprintf(started, sizeof started, "%.17g",
                  entry.startedUnix);
    std::string line = "{\"type\":\"sbn.job.v1\",\"job\":";
    line += std::to_string(entry.job);
    line += ",\"state\":\"";
    line += jobStateName(entry.state);
    line += "\",\"spec\":\"";
    line += jsonEscape(entry.spec);
    line += "\",\"timeout_s\":";
    line += timeout;
    line += ",\"started_unix\":";
    line += started;
    line += ",\"exit\":";
    line += std::to_string(entry.exitCode);
    line += ",\"reason\":\"";
    line += jsonEscape(entry.reason);
    line += "\"}";
    return line;
}

bool
parseJournalEntry(const std::string &line, JobJournalEntry &out,
                  std::string &error)
{
    JsonObject object;
    if (!parseFlatJsonObject(line, object, error))
        return false;

    const auto string = [&](const char *key,
                            std::string &value) -> bool {
        const auto it = object.find(key);
        if (it == object.end() ||
            it->second.kind != JsonScalar::Kind::String) {
            error = std::string("missing string key \"") + key + '"';
            return false;
        }
        value = it->second.text;
        return true;
    };
    const auto number = [&](const char *key, double &value) -> bool {
        const auto it = object.find(key);
        if (it == object.end() ||
            it->second.kind != JsonScalar::Kind::Number) {
            error = std::string("missing number key \"") + key + '"';
            return false;
        }
        value = it->second.number;
        return true;
    };

    std::string type;
    if (!string("type", type))
        return false;
    if (type != "sbn.job.v1") {
        error = "not a job journal line (type \"" + type + "\")";
        return false;
    }
    if (object.size() != 8) {
        error = "a journal line carries exactly 8 keys";
        return false;
    }

    JobJournalEntry entry;
    double job = 0;
    if (!number("job", job))
        return false;
    if (job < 0 || job >= kJobIdLimit || job != std::floor(job)) {
        error = "\"job\" must be a non-negative integer below 2^53";
        return false;
    }
    entry.job = static_cast<std::uint64_t>(job);

    std::string state;
    if (!string("state", state))
        return false;
    if (!parseJobState(state, entry.state)) {
        error = "unknown job state \"" + state + "\"";
        return false;
    }
    if (!string("spec", entry.spec))
        return false;
    if (!number("timeout_s", entry.timeoutSeconds))
        return false;
    if (!number("started_unix", entry.startedUnix))
        return false;
    double exitCode = 0;
    if (!number("exit", exitCode))
        return false;
    entry.exitCode = static_cast<int>(exitCode);
    if (!string("reason", entry.reason))
        return false;
    out = entry;
    return true;
}

JobJournal::JobJournal(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd_ < 0)
        sbn_fatal("cannot open job journal '", path,
                  "' for appending: ", std::strerror(errno));
}

JobJournal::~JobJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JobJournal::append(const JobJournalEntry &entry)
{
    const std::string line = formatJournalEntry(entry) + "\n";
    if (!writeAll(fd_, line.data(), line.size()))
        sbn_fatal("job journal '", path_,
                  "': write failed: ", std::strerror(errno));
    if (::fsync(fd_) != 0)
        sbn_fatal("job journal '", path_,
                  "': fsync failed: ", std::strerror(errno));
    ++appends_;
    ++fsyncs_;
    // The durability point: the transition is on disk. This is
    // exactly where kill-anywhere testing wants its crash.
    faultAfterJournalState(jobStateName(entry.state));
}

std::vector<JobJournalEntry>
replayJobJournal(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        struct stat info;
        if (::stat(path.c_str(), &info) == 0)
            sbn_fatal("job journal '", path,
                      "' exists but cannot be opened - refusing to "
                      "silently forget jobs");
        return {}; // fresh daemon, no journal yet
    }

    // job id -> folded latest entry (submit spec + latest state).
    std::map<std::uint64_t, JobJournalEntry> jobs;
    std::string line;
    std::size_t lineno = 0;
    std::uint64_t goodBytes = 0; //!< file offset past the last good line
    bool pendingTail = false;
    std::string tailError;
    while (std::getline(in, line)) {
        ++lineno;
        if (pendingTail)
            sbn_fatal("job journal '", path, "' line ", lineno - 1,
                      ": ", tailError,
                      " (only the final line may be torn)");
        JobJournalEntry entry;
        std::string error;
        if (!parseJournalEntry(line, entry, error)) {
            // Tolerate only as a torn tail: remember and fail if any
            // line follows.
            pendingTail = true;
            tailError = error;
            continue;
        }
        // Every good line is followed by more bytes (at worst the
        // torn tail itself), so its terminating '\n' is on disk and
        // this offset is exact.
        goodBytes += line.size() + 1;
        const auto it = jobs.find(entry.job);
        if (entry.state == JobState::Submitted) {
            if (it != jobs.end())
                sbn_fatal("job journal '", path, "' line ", lineno,
                          ": job ", entry.job, " submitted twice");
            jobs.emplace(entry.job, entry);
            continue;
        }
        if (it == jobs.end())
            sbn_fatal("job journal '", path, "' line ", lineno,
                      ": job ", entry.job, " reaches state '",
                      jobStateName(entry.state),
                      "' without a submitted entry");
        // Fold: keep the submit description, take the new state.
        entry.spec = it->second.spec;
        entry.timeoutSeconds = it->second.timeoutSeconds;
        it->second = entry;
    }
    if (pendingTail) {
        sbn_warn("job journal '", path,
                 "': dropped torn final line (", tailError,
                 ") - the artifact of a kill mid-append");
        // Dropping the tail from the replay is not enough: the
        // journal writer appends with O_APPEND, so leaving the torn
        // bytes on disk would glue the next entry onto them -
        // producing a malformed MID-file line that turns the next
        // restart fatal. Truncate to the last good line now.
        in.close();
        const int fd = ::open(path.c_str(), O_WRONLY);
        if (fd < 0 ||
            ::ftruncate(fd, static_cast<off_t>(goodBytes)) != 0 ||
            ::fsync(fd) != 0)
            sbn_fatal("job journal '", path,
                      "': cannot truncate torn tail: ",
                      std::strerror(errno));
        ::close(fd);
    }

    std::vector<JobJournalEntry> result;
    result.reserve(jobs.size());
    for (const auto &pair : jobs)
        result.push_back(pair.second);
    return result;
}

} // namespace sbn

#include "trace/span.hh"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/fingerprint.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace sbn {

const char *const kTraceDirEnvVar = "SBN_TRACE_DIR";
const char *const kTraceCtxEnvVar = "SBN_TRACE_CTX";

namespace {

/**
 * Per-process span-id source: pid and a nanosecond startup stamp mix
 * into every id, so two processes (even with a recycled pid) never
 * collide, and ids stay nonzero (0 means "no span").
 */
std::uint64_t
idSalt()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    const auto ns = static_cast<std::uint64_t>(ts.tv_sec) *
                        1000000000ull +
                    static_cast<std::uint64_t>(ts.tv_nsec);
    return fingerprintMix(
        fingerprintMix(0x53424e5452414345ull,
                       static_cast<std::uint64_t>(::getpid())),
        ns);
}

std::uint64_t
nextSpanId()
{
    static std::mutex mutex;
    static std::uint64_t salt = 0;
    static pid_t saltPid = -1;
    static std::uint64_t counter = 0;
    std::lock_guard<std::mutex> lock(mutex);
    // Fork safety: a child inherits these statics, and replaying the
    // parent's (salt, counter) sequence would collide with ids the
    // parent allocates after the fork. A pid change re-salts (the
    // salt mixes pid and a fresh clock reading), so the sequences
    // diverge even though the counter carries over.
    const pid_t pid = ::getpid();
    if (salt == 0 || pid != saltPid) {
        salt = idSalt();
        saltPid = pid;
    }
    std::uint64_t id = 0;
    while (id == 0)
        id = fingerprintMix(salt, ++counter);
    return id;
}

/**
 * The per-process shard appender. One unbuffered write per span line;
 * O_APPEND keeps concurrent processes' lines intact. Fork safety: the
 * open descriptor remembers which pid opened it, and any caller in a
 * different pid (a forked child inheriting the parent's state)
 * reopens its own trace-<pid>.jsonl first.
 */
class TraceWriter
{
  public:
    void write(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const pid_t pid = ::getpid();
        if (fd_ < 0 || pid != ownerPid_) {
            if (fd_ >= 0)
                ::close(fd_);
            const std::string path = traceShardDir() + "/trace-" +
                                     std::to_string(pid) + ".jsonl";
            fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                         0666);
            if (fd_ < 0) {
                // Tracing is an observer: a shard that cannot open
                // (bad dir, permissions) warns once and stays dark
                // rather than failing the traced work.
                if (!warned_) {
                    sbn_warn("cannot open trace shard '", path,
                             "': ", std::strerror(errno),
                             " - span tracing disabled in this "
                             "process");
                    warned_ = true;
                }
                ownerPid_ = pid;
                return;
            }
            ownerPid_ = pid;
        }
        std::size_t done = 0;
        while (done < line.size()) {
            const ssize_t wrote = ::write(fd_, line.data() + done,
                                          line.size() - done);
            if (wrote < 0) {
                if (errno == EINTR)
                    continue;
                return; // best effort; never fail the traced work
            }
            done += static_cast<std::size_t>(wrote);
        }
    }

  private:
    std::mutex mutex_;
    int fd_ = -1;
    pid_t ownerPid_ = -1;
    bool warned_ = false;
};

TraceWriter &
writer()
{
    static TraceWriter instance;
    return instance;
}

bool
parseHex64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 16 ||
        text.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 16);
    return true;
}

std::string
formatHex64(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

bool
traceEnabled()
{
    const char *dir = std::getenv(kTraceDirEnvVar);
    return dir != nullptr && *dir != '\0';
}

std::string
traceShardDir()
{
    const char *dir = std::getenv(kTraceDirEnvVar);
    return dir != nullptr ? dir : "";
}

std::uint64_t
traceNowMicros()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

TraceContext
inheritedTraceContext()
{
    const char *env = std::getenv(kTraceCtxEnvVar);
    TraceContext ctx;
    if (env != nullptr && *env != '\0' &&
        !parseTraceContext(env, ctx)) {
        sbn_warn("malformed ", kTraceCtxEnvVar, " '", env,
                 "' - starting a fresh trace context");
        ctx = TraceContext{};
    }
    return ctx;
}

std::string
formatTraceContext(const TraceContext &ctx)
{
    return formatHex64(ctx.traceId) + ":" + formatHex64(ctx.spanId);
}

bool
parseTraceContext(const std::string &text, TraceContext &out)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos)
        return false;
    std::uint64_t trace = 0, span = 0;
    if (!parseHex64(text.substr(0, colon), trace) ||
        !parseHex64(text.substr(colon + 1), span) || trace == 0)
        return false;
    out.traceId = trace;
    out.spanId = span;
    return true;
}

void
exportTraceContext(const TraceContext &ctx)
{
    ::setenv(kTraceCtxEnvVar, formatTraceContext(ctx).c_str(), 1);
}

std::uint64_t
newTraceId()
{
    return nextSpanId();
}

std::uint64_t
traceAllocSpanId()
{
    if (!traceEnabled())
        return 0;
    return nextSpanId();
}

std::uint64_t
traceEmitSpan(const TraceContext &trace, const std::string &kind,
              const std::string &name, std::uint64_t parent,
              std::uint64_t start_us, std::uint64_t end_us,
              const std::vector<TraceAttr> &attrs)
{
    if (!traceEnabled())
        return 0;
    const std::uint64_t span = nextSpanId();
    traceEmitSpanWithId(trace, span, kind, name, parent, start_us,
                        end_us, attrs);
    return span;
}

void
traceEmitSpanWithId(const TraceContext &trace, std::uint64_t span,
                    const std::string &kind, const std::string &name,
                    std::uint64_t parent, std::uint64_t start_us,
                    std::uint64_t end_us,
                    const std::vector<TraceAttr> &attrs)
{
    if (!traceEnabled() || span == 0)
        return;
    std::string line;
    line.reserve(256);
    line += "{\"type\":\"sbn.trace.v1\",\"trace\":\"";
    line += formatHex64(trace.traceId);
    line += "\",\"span\":\"";
    line += formatHex64(span);
    line += "\",\"parent\":\"";
    line += formatHex64(parent);
    line += "\",\"kind\":\"";
    line += jsonEscape(kind);
    line += "\",\"name\":\"";
    line += jsonEscape(name);
    line += "\",\"pid\":";
    line += std::to_string(::getpid());
    line += ",\"start_us\":";
    line += std::to_string(start_us);
    line += ",\"end_us\":";
    line += std::to_string(end_us);
    for (const TraceAttr &attr : attrs) {
        line += ",\"a_";
        line += jsonEscape(attr.first);
        line += "\":\"";
        line += jsonEscape(attr.second);
        line += '"';
    }
    line += "}\n";
    writer().write(line);
}

} // namespace sbn

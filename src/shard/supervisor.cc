#include "shard/supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>

#include "shard/fault.hh"
#include "telemetry/telemetry.hh"
#include "shard/result_io.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Period of the run() loop's tick. Worker exits, interrupts and
 * backoff deadlines wake the loop between ticks, but only the tick
 * runs what no event announces - liveness sampling for the hang timer
 * and splits - so an exit never triggers a split on its own.
 */
constexpr auto kSupervisorTick = std::chrono::milliseconds(20);

/** Size of @p path, or -1 when it does not exist (yet). */
long long
fileSize(const std::string &path)
{
    struct stat info;
    if (::stat(path.c_str(), &info) != 0)
        return -1;
    return static_cast<long long>(info.st_size);
}

/** "shard 1/4", or "thief <its record file>". */
std::string
taskName(const WorkerTask &work)
{
    return work.steal ? "thief " + work.outPath
                      : "shard " + work.shard.toString();
}

// Lock-free atomics, so the handler may touch them (a plain volatile
// would be a data race whenever another thread takes the signal).
static_assert(std::atomic<int>::is_always_lock_free);

/** SIGINT/SIGTERM caught while a supervisor's run() loop owns the
 *  fleet; the loop checks it each iteration. */
std::atomic<int> g_supervisorSignal{0};

/**
 * Self-pipe that wakes the run() loop, open only while run() owns the
 * fleet: every handled signal writes one byte to the (non-blocking)
 * write end, and the loop poll()s the read end.
 */
std::atomic<int> g_wakeWriteFd{-1};
int g_wakeReadFd = -1;

/** Async-signal-safe: an atomic store and one write(), errno kept
 *  intact for whatever the signal interrupted. A full pipe drops the
 *  byte, which is fine - a wake is already pending. */
extern "C" void
supervisorSignalHandler(int sig)
{
    const int savedErrno = errno;
    if (sig != SIGCHLD)
        g_supervisorSignal = sig;
    if (::write(g_wakeWriteFd, "!", 1) < 0) {
    }
    errno = savedErrno;
}

/**
 * RAII for everything run() arms: the wake pipe, the SIGINT/SIGTERM
 * interrupt handlers and the SIGCHLD handler that reports worker
 * exits. All restored (and the pipe closed) on destruction.
 */
class SignalGuard
{
  public:
    SignalGuard()
    {
        int fds[2];
        if (::pipe(fds) != 0)
            sbn_fatal("supervisor: cannot create its wake pipe: ",
                      std::strerror(errno));
        for (const int fd : fds) {
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
            ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        }
        g_wakeReadFd = fds[0];
        g_wakeWriteFd = fds[1];
        g_supervisorSignal = 0;

        // SA_RESTART everywhere: the pipe byte, not EINTR, ends the
        // loop's wait, and the blocking waitpid() calls must not be
        // cut short by the SIGCHLD of another worker.
        struct sigaction action{};
        action.sa_handler = supervisorSignalHandler;
        ::sigemptyset(&action.sa_mask);
        action.sa_flags = SA_RESTART;
        ::sigaction(SIGINT, &action, &previousInt_);
        ::sigaction(SIGTERM, &action, &previousTerm_);
        action.sa_flags = SA_RESTART | SA_NOCLDSTOP;
        ::sigaction(SIGCHLD, &action, &previousChld_);
    }

    ~SignalGuard()
    {
        ::sigaction(SIGINT, &previousInt_, nullptr);
        ::sigaction(SIGTERM, &previousTerm_, nullptr);
        ::sigaction(SIGCHLD, &previousChld_, nullptr);
        ::close(g_wakeWriteFd.exchange(-1));
        ::close(g_wakeReadFd);
        g_wakeReadFd = -1;
    }

    SignalGuard(const SignalGuard &) = delete;
    SignalGuard &operator=(const SignalGuard &) = delete;

    /**
     * Sleep until a signal wakes the loop or @p deadline passes, then
     * drain the pipe. A wake that lands after the drain leaves its
     * byte for the next wait, so no worker exit is ever slept through.
     */
    void
    waitUntil(Clock::time_point deadline) const
    {
        const auto millis =
            std::chrono::ceil<std::chrono::milliseconds>(deadline -
                                                         Clock::now())
                .count();
        pollfd fd{g_wakeReadFd, POLLIN, 0};
        ::poll(&fd, 1,
               static_cast<int>(std::max<decltype(millis)>(millis, 0)));
        char drain[64];
        while (::read(g_wakeReadFd, drain, sizeof drain) > 0) {
        }
    }

  private:
    struct sigaction previousInt_;
    struct sigaction previousTerm_;
    struct sigaction previousChld_;
};

} // namespace

bool
PointClaim::claim(std::size_t index)
{
    std::uint64_t word = word_.load();
    for (;;) {
        const std::uint64_t end = word & 0xffffffffu;
        if (index >= end)
            return false;
        // Below the mark the point is claimed already: a split never
        // lowers end below next.
        if (index < (word >> 32))
            return true;
        if (word_.compare_exchange_weak(word, (index + 1) << 32 | end))
            return true;
    }
}

std::size_t
PointClaim::unstarted(const std::vector<std::size_t> &list) const
{
    const std::uint64_t word = word_.load();
    const auto first =
        std::lower_bound(list.begin(), list.end(), word >> 32);
    return static_cast<std::size_t>(
        std::lower_bound(first, list.end(), word & 0xffffffffu) - first);
}

std::vector<std::size_t>
PointClaim::split(const std::vector<std::size_t> &list)
{
    std::uint64_t word = word_.load();
    for (;;) {
        const auto first =
            std::lower_bound(list.begin(), list.end(), word >> 32);
        const auto last =
            std::lower_bound(first, list.end(), word & 0xffffffffu);
        if (last - first < 2)
            return {};
        const auto cut = first + (last - first + 1) / 2;
        if (word_.compare_exchange_weak(
                word, (word & ~std::uint64_t{0xffffffffu}) | *cut))
            return {cut, last};
    }
}

const char *
shardStateName(ShardState state)
{
    switch (state) {
    case ShardState::Pending:
        return "pending";
    case ShardState::Running:
        return "running";
    case ShardState::Backoff:
        return "backoff";
    case ShardState::Done:
        return "done";
    case ShardState::Exhausted:
        return "exhausted";
    }
    return "unknown";
}

double
supervisorBackoffSeconds(const SupervisorConfig &config,
                         unsigned failures)
{
    sbn_assert(failures >= 1,
               "backoff is only defined after a failure");
    return std::min(
        kBackoffCapSeconds,
        config.backoffInitialSeconds *
            std::pow(kBackoffGrowth, static_cast<double>(failures - 1)));
}

/** One supervised process slot (a shard or a thief). */
struct ShardSupervisor::Task
{
    WorkerTask work;
    ShardState state = ShardState::Pending;
    pid_t pid = -1;
    unsigned launches = 0;
    int lastStatus = 0;
    bool everHung = false;
    Clock::time_point wakeAt;       //!< backoff deadline
    long long lastSize = -1;        //!< liveness: last seen file size
    Clock::time_point lastProgress; //!< liveness: last growth time
    std::size_t splitPoints = 0;    //!< points split off to thieves

    // Span tracing (zero when off): the open attempt span and, while
    // the task waits in Backoff, when that wait started.
    std::uint64_t attemptSpanId = 0;
    std::uint64_t attemptStartUs = 0;
    std::uint64_t backoffStartUs = 0;

    /** Not yet Done or Exhausted: its points are still its own. */
    bool live() const
    {
        return state != ShardState::Done &&
               state != ShardState::Exhausted;
    }
};

ShardSupervisor::ShardSupervisor(SupervisorConfig config,
                                 WorkerBody body)
    : config_(std::move(config)), body_(std::move(body))
{
    sbn_assert(config_.shardCount >= 1,
               "supervisor needs at least one shard");
    sbn_assert(!config_.expectedRunFp.empty(),
               "supervisor needs the expected run fingerprints");
    sbn_assert(config_.maxRetries < 1000,
               "retry budget is implausibly large");
    sbn_assert(config_.expectedRunFp.size() < (std::uint64_t{1} << 32),
               "claim words address fewer than 2^32 points");

    const ShardPlan plan(config_.expectedRunFp.size(),
                         config_.shardCount, config_.layout);
    tasks_.resize(config_.shardCount);
    for (std::size_t i = 0; i < config_.shardCount; ++i) {
        Task &task = tasks_[i];
        task.work.shard = {i, config_.shardCount};
        task.work.points = plan.indices(i);
        task.work.outPath =
            shardFilePath(config_.dir, task.work.shard);
    }
}

ShardSupervisor::~ShardSupervisor() = default;

void
ShardSupervisor::spawn(Task &task)
{
    task.work.attempt = task.launches;
    const std::string what = taskName(task.work);
    // Trace: the attempt span's id is allocated before the fork so
    // the child can parent its own spans under it; the span itself is
    // emitted parent-side when the worker is reaped. A pending
    // backoff wait closes here - the respawn ends it.
    task.attemptSpanId = traceAllocSpanId();
    task.attemptStartUs = traceNowMicros();
    if (task.backoffStartUs != 0) {
        traceEmitSpan(trace_, "backoff", what + " backoff",
                      runSpanId_, task.backoffStartUs,
                      task.attemptStartUs,
                      {{"attempt", std::to_string(task.launches)}});
        task.backoffStartUs = 0;
    }
    const pid_t supervisorPid = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        sbn_fatal("supervisor: fork failed for ", what);
    if (pid == 0) {
        // Child. Shed the supervisor's handlers first: a worker
        // inheriting them would swallow the Ctrl-C meant to stop the
        // fleet, and would write its own children's exits into the
        // supervisor's wake pipe - whose ends go too. Then declare
        // identity for fault targeting, run the body, and leave via
        // _exit so no parent-owned stdio buffer or static destructor
        // runs twice.
        ::signal(SIGINT, SIG_DFL);
        ::signal(SIGTERM, SIG_DFL);
        ::signal(SIGCHLD, SIG_DFL);
        ::close(g_wakeReadFd);
        ::close(g_wakeWriteFd);
#ifdef __linux__
        // No-orphan hardening: if the supervisor itself dies by
        // SIGKILL (kill-anywhere testing, OOM), the kernel kills the
        // worker too - its record file needs no cleanup. The getppid
        // check closes the race where the supervisor died between
        // fork and prctl (the death signal only fires on *future*
        // parent deaths).
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != supervisorPid)
            ::_exit(1);
#endif
        setFaultProcessScope(task.work.steal ? kFaultNoShard
                                             : task.work.shard.index,
                             task.work.attempt);
        if (task.attemptSpanId != 0)
            exportTraceContext({trace_.traceId, task.attemptSpanId});
        try {
            body_(task.work);
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    task.pid = pid;
    task.state = ShardState::Running;
    ++task.launches;
    task.lastSize = fileSize(task.work.outPath);
    task.lastProgress = Clock::now();
}

void
ShardSupervisor::closeAttemptSpan(Task &task, const char *outcome,
                                  int status, bool hung)
{
    if (task.attemptSpanId == 0)
        return;
    std::vector<TraceAttr> attrs = {
        {"outcome", outcome},
        {"attempt", std::to_string(task.work.attempt)},
    };
    if (task.work.steal)
        attrs.emplace_back("steal_points",
                           std::to_string(task.work.points.size()));
    else
        attrs.emplace_back("shard", task.work.shard.toString());
    if (status != 0)
        attrs.emplace_back("status", describeWaitStatus(status));
    if (hung)
        attrs.emplace_back("hung", "1");
    traceEmitSpanWithId(
        trace_, task.attemptSpanId, "attempt",
        taskName(task.work) + " attempt " +
            std::to_string(task.work.attempt),
        runSpanId_, task.attemptStartUs, traceNowMicros(), attrs);
    task.attemptSpanId = 0;
}

void
ShardSupervisor::handleFailure(Task &task, int status, bool hung)
{
    closeAttemptSpan(task, "fail", status, hung);
    task.lastStatus = status;
    task.everHung = task.everHung || hung;
    task.pid = -1;

    // A thief is retried like a shard: nobody else holds its points.
    const std::string what = taskName(task.work);
    if (task.launches >= config_.maxRetries + 1) {
        task.state = ShardState::Exhausted;
        sbn_warn("supervisor: ", what, " exhausted its retry budget (",
                 task.launches, " launch(es), last failure: ",
                 describeWaitStatus(status), hung ? ", hung" : "", ")");
        return;
    }

    // Capped exponential backoff keyed to how often this shard has
    // failed: transient causes (OOM kill, node blip) get a fast
    // retry, repeat offenders back off harder.
    const double seconds =
        supervisorBackoffSeconds(config_, task.launches);
    task.state = ShardState::Backoff;
    task.wakeAt = Clock::now() +
                  std::chrono::microseconds(
                      static_cast<long long>(seconds * 1e6));
    task.backoffStartUs = traceNowMicros();
    ++report_.respawns;
    telemetryAdd(TelemetryCounter::SupervisorRespawns, 1);
    sbn_warn("supervisor: ", what, " worker failed (",
             describeWaitStatus(status), hung ? ", hung" : "",
             "); respawning with resume in ", seconds, "s (attempt ",
             task.launches + 1, " of ", config_.maxRetries + 1, ")");
}

void
ShardSupervisor::reapExited()
{
    for (Task &task : tasks_) {
        if (task.state != ShardState::Running)
            continue;
        int status = 0;
        const pid_t got = ::waitpid(task.pid, &status, WNOHANG);
        if (got == 0)
            continue;
        if (got < 0) {
            // Should not happen (we own the child); treat as failure
            // so supervision cannot wedge on a lost pid.
            handleFailure(task, -1, false);
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            closeAttemptSpan(task, "ok", 0, false);
            task.state = ShardState::Done;
            task.pid = -1;
        } else {
            handleFailure(task, status, false);
        }
    }
}

void
ShardSupervisor::killHungWorkers()
{
    if (config_.hangTimeoutSeconds <= 0.0)
        return;
    const auto deadline = std::chrono::microseconds(
        static_cast<long long>(config_.hangTimeoutSeconds * 1e6));
    for (Task &task : tasks_) {
        if (task.state != ShardState::Running)
            continue;
        const long long size = fileSize(task.work.outPath);
        if (size != task.lastSize) {
            task.lastSize = size;
            task.lastProgress = Clock::now();
            continue;
        }
        if (Clock::now() - task.lastProgress < deadline)
            continue;
        // No record progress within the deadline: the worker is
        // declared hung. SIGKILL (not SIGTERM): a wedged process may
        // not run handlers, and the record file needs no cleanup -
        // that is the whole point of the append+flush format.
        const std::string what = taskName(task.work);
        sbn_warn("supervisor: ", what,
                 " made no record progress for ",
                 config_.hangTimeoutSeconds,
                 "s; killing the hung worker (pid ", task.pid, ")");
        ::kill(task.pid, SIGKILL);
        const std::uint64_t killUs = traceNowMicros();
        traceEmitSpan(trace_, "hang_kill", what + " hang kill",
                      task.attemptSpanId, killUs, killUs,
                      {{"pid", std::to_string(task.pid)}});
        telemetryAdd(TelemetryCounter::SupervisorHangKills, 1);
        int status = 0;
        ::waitpid(task.pid, &status, 0);
        handleFailure(task, status, /*hung=*/true);
    }
}

void
ShardSupervisor::launchDueRespawns()
{
    const Clock::time_point now = Clock::now();
    for (Task &task : tasks_)
        if (task.state == ShardState::Pending ||
            (task.state == ShardState::Backoff && now >= task.wakeAt))
            spawn(task);
}

std::vector<std::string>
ShardSupervisor::existingRecordFiles() const
{
    std::vector<std::string> files;
    for (const Task &task : tasks_)
        if (fileSize(task.work.outPath) >= 0)
            files.push_back(task.work.outPath);
    return files;
}

std::vector<std::size_t>
ShardSupervisor::missingPoints() const
{
    // A point is satisfied when any record file holds a record whose
    // run fingerprint matches what the sweep expects there, and whose
    // lat_* group agrees with it - the exact criterion resume and
    // merge use, so the supervisor never declares done what the
    // merge would reject.
    std::vector<bool> satisfied(config_.expectedRunFp.size(), false);
    for (const std::string &path : existingRecordFiles())
        for (const PointRecord &record :
             readRecordFile(path, /*tolerate_partial_tail=*/true))
            if (record.flatIndex < satisfied.size() &&
                record.runFp ==
                    config_.expectedRunFp[record.flatIndex] &&
                record.latencyMatchesRunFp())
                satisfied[record.flatIndex] = true;
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < satisfied.size(); ++i)
        if (!satisfied[i])
            missing.push_back(i);
    return missing;
}

std::size_t
ShardSupervisor::runningCount() const
{
    return static_cast<std::size_t>(
        std::count_if(tasks_.begin(), tasks_.end(), [](const Task &task) {
            return task.state == ShardState::Running;
        }));
}

bool
ShardSupervisor::rescueExhausted()
{
    // Only an exhausted task loses points, so only then are record
    // files read. It hands its list over, once: the points no record
    // satisfies and no live thief holds go to a rescuing thief.
    std::vector<bool> owed(config_.expectedRunFp.size(), false);
    bool any = false;
    for (Task &task : tasks_) {
        if (task.state != ShardState::Exhausted)
            continue;
        for (const std::size_t index : task.work.points)
            owed[index] = any = true;
        task.work.points.clear();
    }
    if (!any)
        return false;
    for (const Task &task : tasks_)
        if (task.work.steal && task.live())
            for (const std::size_t index : task.work.points)
                owed[index] = false;
    std::vector<std::size_t> points;
    for (const std::size_t index : missingPoints())
        if (owed[index])
            points.push_back(index);
    if (points.empty())
        return false;
    launchSteal(std::move(points), /*split=*/false);
    return true;
}

bool
ShardSupervisor::splitLargest()
{
    // The live task, shard or thief, with the most unstarted points.
    // Only claim words are read, never a record file.
    Task *victim = nullptr;
    std::size_t most = 1;
    for (Task &task : tasks_) {
        const std::size_t unstarted =
            task.live() ? task.work.claim->unstarted(task.work.points)
                        : 0;
        if (unstarted > most) {
            most = unstarted;
            victim = &task;
        }
    }
    if (victim == nullptr)
        return false;
    std::vector<std::size_t> points =
        victim->work.claim->split(victim->work.points);
    if (points.empty())
        return false; // its worker started them meanwhile
    victim->splitPoints += points.size();
    launchSteal(std::move(points), /*split=*/true);
    return true;
}

void
ShardSupervisor::launchSteal(std::vector<std::size_t> points,
                             bool split)
{
    const std::size_t sequence = report_.stealLaunches++;
    report_.stolenPoints += points.size();
    report_.splits += split;
    report_.splitPoints += split ? points.size() : 0;
    telemetryAdd(TelemetryCounter::SupervisorSteals, 1);

    std::string path = config_.dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    // A thief's claim word sits at its index in tasks_.
    Task &task = tasks_.emplace_back();
    task.work.steal = true;
    task.work.outPath =
        path + "steal-" + std::to_string(sequence) + ".jsonl";
    task.work.claim = new (claims_ + tasks_.size() - 1)
        PointClaim(config_.expectedRunFp.size());
    task.work.points = std::move(points);
    // stderr, not sbn_inform: orchestrators reserve stdout for the
    // merged record stream.
    std::fprintf(stderr, "supervisor: %s %zu point(s) -> %s\n",
                 split ? "split off" : "rescuing",
                 task.work.points.size(), task.work.outPath.c_str());
    spawn(task);
}

void
ShardSupervisor::killAndReapAllWorkers()
{
    // SIGKILL, not SIGTERM: the fleet is being torn down and the
    // record format needs no cleanup (append + flush); a worker that
    // ignored a gentler signal would become the very orphan this
    // path exists to prevent. The blocking waitpid guarantees no
    // worker pid outlives the supervisor's return.
    for (Task &task : tasks_) {
        if (task.state != ShardState::Running || task.pid < 0)
            continue;
        ::kill(task.pid, SIGKILL);
        int status = 0;
        ::waitpid(task.pid, &status, 0);
        closeAttemptSpan(task, "interrupted", status, false);
        task.lastStatus = status;
        task.pid = -1;
        task.state = ShardState::Exhausted;
    }
}

SupervisorReport
ShardSupervisor::run()
{
    // Own SIGINT/SIGTERM while the fleet exists: an interrupted
    // supervisor must not orphan its forked workers. Children reset
    // the handlers after fork (spawn()), so only this process defers.
    // SIGCHLD wakes the loop the moment a worker exits.
    SignalGuard guard;

    // One claim word per task the fleet may launch, mapped shared
    // before the first fork so every worker meets the supervisor in it.
    const std::size_t bytes =
        (config_.shardCount + maxStealLaunches()) *
        sizeof(PointClaim);
    void *page = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED)
        sbn_fatal("supervisor: cannot map its claim page: ",
                  std::strerror(errno));
    const auto unmap = [bytes](void *mapped) { ::munmap(mapped, bytes); };
    const std::unique_ptr<void, decltype(unmap)> pageOwner(page, unmap);
    claims_ = static_cast<PointClaim *>(page);
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        tasks_[i].work.claim =
            new (claims_ + i) PointClaim(config_.expectedRunFp.size());

    // Trace: the whole supervised run is one span, parented under
    // whatever context launched this process (the daemon's job span,
    // or nothing for a root CLI run).
    if (traceEnabled()) {
        trace_ = inheritedTraceContext();
        if (!trace_.valid())
            trace_.traceId = newTraceId();
        runSpanId_ = traceAllocSpanId();
        runStartUs_ = traceNowMicros();
    }

    Clock::time_point nextTick = Clock::now();
    for (;;) {
        if (g_supervisorSignal != 0) {
            const int sig = static_cast<int>(g_supervisorSignal);
            sbn_warn("supervisor: caught signal ", sig,
                     "; killing and reaping ", runningCount(),
                     " live worker(s) before exiting");
            killAndReapAllWorkers();
            report_.interruptSignal = sig;
            report_.missingPoints = missingPoints();
            break;
        }

        // An event wake reaps and relaunches at once; the sampled
        // duties, liveness and splits, wait for the tick, whatever
        // woke the loop.
        const Clock::time_point now = Clock::now();
        const bool tick = now >= nextTick;
        if (tick)
            nextTick = now + kSupervisorTick;
        reapExited();
        if (tick)
            killHungWorkers();
        launchDueRespawns();
        // Fill every free slot. Rescues go first: nobody else will
        // compute the points an exhausted task lost.
        while (tick && runningCount() < config_.shardCount &&
               mayLaunchThief() && (rescueExhausted() || splitLargest())) {
        }

        if (std::none_of(tasks_.begin(), tasks_.end(),
                         [](const Task &task) { return task.live(); })) {
            report_.missingPoints = missingPoints();
            // Last chance: every task is terminal, so any remaining
            // hole belongs to an exhausted task (or a worker that lied
            // about success). Free slots exist by definition; claim
            // the lot, bounded by the thief-launch budget.
            if (report_.missingPoints.empty() || !mayLaunchThief())
                break;
            launchSteal(report_.missingPoints, /*split=*/false);
            continue;
        }

        Clock::time_point wakeAt = nextTick;
        for (const Task &task : tasks_)
            if (task.state == ShardState::Backoff)
                wakeAt = std::min(wakeAt, task.wakeAt);
        guard.waitUntil(wakeAt);
    }

    // Terminal accounting.
    report_.complete = report_.missingPoints.empty();
    report_.recordFiles = existingRecordFiles();
    report_.shards.clear();
    for (std::size_t i = 0; i < config_.shardCount; ++i) {
        const Task &task = tasks_[i];
        report_.shards.push_back({task.state, task.launches,
                                  task.lastStatus, task.everHung,
                                  task.splitPoints});
    }

    if (runSpanId_ != 0)
        traceEmitSpanWithId(
            trace_, runSpanId_, "supervise", "supervise fleet",
            trace_.spanId, runStartUs_, traceNowMicros(),
            {{"shards", std::to_string(config_.shardCount)},
             {"respawns", std::to_string(report_.respawns)},
             {"steal_launches",
              std::to_string(report_.stealLaunches)},
             {"complete", report_.complete ? "1" : "0"}});
    return report_;
}

std::string
missingManifestPath(const std::string &dir)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + "missing-points.json";
}

void
writeMissingPointsManifest(const std::string &path,
                           const MergeCheck &check,
                           const std::vector<std::size_t> &missing)
{
    const bool attributed = check.shardCount != 0;
    std::string body = "{\"type\":\"sbn.missing.v1\",\"grid\":";
    body += std::to_string(check.gridSize);
    body += ",\"shards\":";
    body += std::to_string(check.shardCount);
    body += ",\"layout\":\"";
    body += attributed ? shardLayoutName(check.layout) : "unknown";
    body += "\",\"count\":";
    body += std::to_string(missing.size());
    body += ",\"missing\":[";
    const ShardPlan plan(check.gridSize,
                         attributed ? check.shardCount : 1,
                         check.layout);
    for (std::size_t k = 0; k < missing.size(); ++k) {
        if (k != 0)
            body += ',';
        body += "{\"i\":";
        body += std::to_string(missing[k]);
        if (attributed) {
            const std::size_t owner = plan.owner(missing[k]);
            body += ",\"shard\":";
            body += std::to_string(owner);
            body += ",\"file\":\"";
            body += jsonEscape(
                shardFilePath(check.dir, {owner, check.shardCount}));
            body += '"';
        }
        body += '}';
    }
    body += "]}\n";
    atomicWriteFile(path, body);
}

} // namespace sbn

#include "service/daemon.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "service/journal.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/sweeprun.hh"
#include "shard/fault.hh"
#include "shard/result_io.hh"
#include "shard/supervisor.hh"
#include "trace/span.hh"
#include "util/exit_codes.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

using Clock = std::chrono::steady_clock;

/** Seconds between cancel's SIGTERM and the SIGKILL escalation. */
constexpr double kKillGraceSeconds = 2.0;

volatile std::sig_atomic_t g_terminateSignal = 0;

void
onTerminateSignal(int sig)
{
    g_terminateSignal = sig;
}

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)
        return;
    sbn_fatal("cannot create directory '", path,
              "': ", std::strerror(errno));
}

/** One job as the daemon tracks it. */
struct Job
{
    JobJournalEntry entry; //!< latest durable state + submit fields
    pid_t runnerPid = -1;
    int statusPipe = -1;       //!< read end; -1 = none
    unsigned launches = 0;     //!< runner processes forked (this daemon)
    bool cancelRequested = false;
    bool hasDeadline = false;
    Clock::time_point deadline{};    //!< job timeout
    bool killPending = false;
    Clock::time_point killDeadline{}; //!< SIGTERM -> SIGKILL escalation
    /** CPU seconds (user+system) of every reaped runner of this job,
     *  workers included - wait4's rusage covers the descendants the
     *  runner's supervisor waited for. This-incarnation only. */
    double cpuSeconds = 0;
    /** Wall-clock (unix) when the job went terminal under this
     *  daemon; 0 while live or for journal-recovered terminals. */
    double finishedUnix = 0;

    // Span tracing (all zero when the daemon runs without
    // SBN_TRACE_DIR): one trace per job, rooted at a "job" span that
    // closes when the job goes terminal; queued/running/merging state
    // intervals nest under it, and every runner launch inherits the
    // job span as its parent context.
    std::uint64_t traceId = 0;
    std::uint64_t jobSpanId = 0;
    std::uint64_t submitUs = 0;     //!< root span start
    std::uint64_t queuedUs = 0;     //!< current queued-interval start
    std::uint64_t runStartUs = 0;   //!< current running-interval start
    std::uint64_t mergeStartUs = 0; //!< current merging-interval start
};

/** One connected client. */
struct Client
{
    int fd = -1;           //!< O_NONBLOCK; -1 = dropped, reap pending
    std::string inbox;     //!< bytes received, not yet a full line
    std::string outbox;    //!< reply bytes not yet accepted by send()
    std::size_t outboxSent = 0; //!< prefix of outbox already sent
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &config)
        : config_(config),
          journal_(daemonJournalPath(config.stateDir))
    {
    }

    int run();

  private:
    // --- journal / state ---------------------------------------------
    void recover();
    void appendState(Job &job, JobState state, int exit_code,
                     const std::string &reason);

    // --- sockets -----------------------------------------------------
    void openListenSocket();
    void acceptClients();
    void serviceClient(Client &client);
    void handleRequest(Client &client, const std::string &line);
    void respond(Client &client, const std::string &line);
    void queueOutput(Client &client, const std::string &bytes);
    void flushClient(Client &client);
    void dropClient(Client &client);

    // --- request handlers --------------------------------------------
    void handleSubmit(Client &client, const Request &request);
    void handleStatus(Client &client, const Request &request);
    void handleCancel(Client &client, const Request &request);
    void handleResults(Client &client, const Request &request);
    void handleDrain(Client &client);
    void handleMetrics(Client &client, const Request &request);

    // --- runners -----------------------------------------------------
    void startPendingJobs();
    void launchRunner(Job &job);
    void runJobInRunner(const Job &job, int status_write_fd);
    void reapRunners();
    void runnerExited(Job &job, int status);
    void enforceDeadlines();
    void killJobRunner(Job &job);
    void readStatusPipe(Job &job);

    // --- misc --------------------------------------------------------
    void writeHeartbeat();
    DaemonMetricsSnapshot collectMetrics() const;
    std::size_t queuedCount() const;
    std::size_t runningCount() const;
    Job *findJob(std::uint64_t id);

    DaemonConfig config_;
    JobJournal journal_;
    std::map<std::uint64_t, Job> jobs_;
    std::deque<std::uint64_t> pending_; //!< job ids awaiting a runner
    std::uint64_t nextJobId_ = 0;
    int listenFd_ = -1;
    std::vector<Client> clients_;
    bool draining_ = false;
    Clock::time_point lastHeartbeat_{};
    bool heartbeatEver_ = false;

    // Metrics state (service/metrics.hh): in-memory only, anchored at
    // this incarnation's start.
    Clock::time_point startTime_ = Clock::now();
    std::uint64_t resultsBytesServed_ = 0;
    std::uint64_t runnerRelaunches_ = 0;
};

void
Daemon::appendState(Job &job, JobState state, int exit_code,
                    const std::string &reason)
{
    // The journal invariant the replay relies on: nothing follows a
    // terminal entry for a job (last-write-wins would resurrect it).
    sbn_assert(!jobStateTerminal(job.entry.state),
               "journal append after terminal state");
    JobJournalEntry entry = job.entry;
    entry.state = state;
    entry.exitCode = exit_code;
    entry.reason = reason;
    journal_.append(entry); // durable (+ crash_after_journal window)
    job.entry = entry;
    if (jobStateTerminal(state)) {
        job.finishedUnix = static_cast<double>(std::time(nullptr));
        if (job.jobSpanId != 0) {
            traceEmitSpanWithId(
                {job.traceId, job.jobSpanId}, job.jobSpanId, "job",
                "job " + std::to_string(entry.job), 0, job.submitUs,
                traceNowMicros(),
                {{"state", jobStateName(state)},
                 {"exit", std::to_string(exit_code)},
                 {"launches", std::to_string(job.launches)}});
            job.jobSpanId = 0;
        }
    }
}

void
Daemon::recover()
{
    const std::vector<JobJournalEntry> replayed =
        replayJobJournal(journal_.path());
    for (const JobJournalEntry &entry : replayed) {
        Job job;
        job.entry = entry;
        if (entry.job >= nextJobId_)
            nextJobId_ = entry.job + 1;
        const bool interrupted = entry.state == JobState::Running ||
                                 entry.state == JobState::Merging;
        jobs_.emplace(entry.job, std::move(job));
        if (entry.state == JobState::Submitted || interrupted)
            pending_.push_back(entry.job);
        if (interrupted)
            sbn_warn("recovering job ", entry.job, " from state '",
                     jobStateName(entry.state),
                     "': relaunching with resume from its shard "
                     "records");
    }
    if (!replayed.empty())
        std::fprintf(stderr,
                     "sbn_sweepd: journal replayed %zu job(s), %zu to "
                     "(re)run\n",
                     replayed.size(), pending_.size());
}

void
Daemon::openListenSocket()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        sbn_fatal("cannot create listen socket: ",
                  std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        sbn_fatal("cannot bind 127.0.0.1:", config_.port, ": ",
                  std::strerror(errno));
    if (::listen(listenFd_, 16) != 0)
        sbn_fatal("cannot listen: ", std::strerror(errno));

    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        sbn_fatal("cannot read bound port: ", std::strerror(errno));
    const int port = ntohs(addr.sin_port);

    const int flags = ::fcntl(listenFd_, F_GETFL, 0);
    ::fcntl(listenFd_, F_SETFL, flags | O_NONBLOCK);

    // Publish the port only after listen(): a reader that sees the
    // file can connect.
    atomicWriteFile(daemonPortFilePath(config_.stateDir),
                    std::to_string(port) + "\n");
    std::fprintf(stderr, "sbn_sweepd: listening on 127.0.0.1:%d\n",
                 port);
}

int
Daemon::run()
{
    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction action{};
    action.sa_handler = onTerminateSignal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    recover();
    openListenSocket();
    writeHeartbeat();

    for (;;) {
        if (g_terminateSignal != 0) {
            // Runners also hold PDEATHSIG(SIGTERM) against us, so
            // their fleets shut down even if this TERM is lost. The
            // journal's running entries drive recovery next start.
            for (auto &pair : jobs_)
                if (pair.second.runnerPid > 0)
                    ::kill(pair.second.runnerPid, SIGTERM);
            std::fprintf(stderr,
                         "sbn_sweepd: terminated by signal %d\n",
                         static_cast<int>(g_terminateSignal));
            return exitCodeForSignal(g_terminateSignal);
        }

        reapRunners();
        enforceDeadlines();
        startPendingJobs();

        const auto now = Clock::now();
        if (!heartbeatEver_ ||
            now - lastHeartbeat_ >=
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        config_.heartbeatSeconds)))
            writeHeartbeat();

        if (draining_ && pending_.empty() && runningCount() == 0) {
            std::fprintf(stderr,
                         "sbn_sweepd: drained, all jobs journaled "
                         "terminal\n");
            return kExitOk;
        }

        // fds layout: [0] listen, [1 .. polledClients] the clients_
        // snapshot taken HERE, then one slot per runner status pipe.
        // acceptClients() below appends to clients_, so every index
        // into fds must use this snapshot count, never a live
        // clients_.size().
        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        const std::size_t polledClients = clients_.size();
        for (const Client &client : clients_) {
            short events = POLLIN;
            if (client.outboxSent < client.outbox.size())
                events |= POLLOUT;
            fds.push_back({client.fd, events, 0});
        }
        std::vector<std::uint64_t> pipeJobs;
        for (auto &pair : jobs_) {
            if (pair.second.statusPipe >= 0) {
                fds.push_back({pair.second.statusPipe, POLLIN, 0});
                pipeJobs.push_back(pair.first);
            }
        }

        const int got = ::poll(fds.data(),
                               static_cast<nfds_t>(fds.size()), 50);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            sbn_fatal("poll failed: ", std::strerror(errno));
        }
        if (got == 0)
            continue;

        if ((fds[0].revents & POLLIN) != 0)
            acceptClients();
        for (std::size_t i = 0; i < polledClients; ++i) {
            Client &client = clients_[i];
            if ((fds[1 + i].revents & POLLOUT) != 0)
                flushClient(client);
            if (client.fd >= 0 &&
                (fds[1 + i].revents &
                 (POLLIN | POLLHUP | POLLERR)) != 0)
                serviceClient(client);
        }
        for (std::size_t i = 0; i < pipeJobs.size(); ++i)
            if ((fds[1 + polledClients + i].revents &
                 (POLLIN | POLLHUP | POLLERR)) != 0)
                if (Job *job = findJob(pipeJobs[i]))
                    readStatusPipe(*job);
        clients_.erase(
            std::remove_if(clients_.begin(), clients_.end(),
                           [](const Client &c) { return c.fd < 0; }),
            clients_.end());
    }
}

void
Daemon::acceptClients()
{
    // The stall_accept fault wedges exactly here: the daemon process
    // stays alive (heartbeats already written stay on disk, new ones
    // stop) but never serves again.
    faultMaybeStallAccept();
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            sbn_warn("accept failed: ", std::strerror(errno));
            return;
        }
        // Non-blocking from birth: all client I/O runs in the single
        // poll() thread, so a peer that stops reading must cost us an
        // EAGAIN and a buffered outbox, never a blocked write that
        // wedges every other client, runner reap and heartbeat.
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        // No Nagle: every reply is queued whole, so there is nothing
        // to coalesce, and the tail of a reply that drains over
        // several writes (EAGAIN, then POLLOUT) must not wait for the
        // client's delayed ACK (~40 ms) of the part before it.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Client client;
        client.fd = fd;
        clients_.push_back(std::move(client));
    }
}

void
Daemon::serviceClient(Client &client)
{
    char buffer[4096];
    const ssize_t got = ::read(client.fd, buffer, sizeof buffer);
    if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN))
            return;
        dropClient(client);
        return;
    }
    client.inbox.append(buffer, static_cast<std::size_t>(got));
    if (client.inbox.size() > 1 << 20) {
        // A line this long is not a protocol request; cut the peer
        // off rather than buffer without bound.
        dropClient(client);
        return;
    }
    std::size_t newline;
    while (client.fd >= 0 &&
           (newline = client.inbox.find('\n')) != std::string::npos) {
        std::string line = client.inbox.substr(0, newline);
        client.inbox.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        handleRequest(client, line);
    }
}

void
Daemon::handleRequest(Client &client, const std::string &line)
{
    Request request;
    std::string error;
    if (!parseRequest(line, request, error)) {
        respond(client, errorResponse("bad_request", error));
        return;
    }
    switch (request.kind) {
    case RequestKind::Submit:
        handleSubmit(client, request);
        break;
    case RequestKind::Status:
        handleStatus(client, request);
        break;
    case RequestKind::Cancel:
        handleCancel(client, request);
        break;
    case RequestKind::Results:
        handleResults(client, request);
        break;
    case RequestKind::Drain:
        handleDrain(client);
        break;
    case RequestKind::Metrics:
        handleMetrics(client, request);
        break;
    }
}

void
Daemon::respond(Client &client, const std::string &line)
{
    queueOutput(client, line + "\n");
}

void
Daemon::queueOutput(Client &client, const std::string &bytes)
{
    if (client.fd < 0)
        return;
    // A peer that keeps sending requests without reading replies
    // (results payloads, typically) gets cut off rather than growing
    // the outbox without bound.
    if (client.outbox.size() - client.outboxSent + bytes.size() >
        kMaxOutbox) {
        sbn_warn("client outbox over ", kMaxOutbox >> 20,
                 " MiB (peer not reading); dropping it");
        dropClient(client);
        return;
    }
    client.outbox += bytes;
    flushClient(client); // opportunistic: common case drains here
}

void
Daemon::flushClient(Client &client)
{
    while (client.fd >= 0 &&
           client.outboxSent < client.outbox.size()) {
        const ssize_t got =
            ::write(client.fd, client.outbox.data() + client.outboxSent,
                    client.outbox.size() - client.outboxSent);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // poll()'s POLLOUT resumes the flush
            dropClient(client);
            return;
        }
        client.outboxSent += static_cast<std::size_t>(got);
    }
    client.outbox.clear();
    client.outboxSent = 0;
}

void
Daemon::dropClient(Client &client)
{
    if (client.fd >= 0)
        ::close(client.fd);
    client.fd = -1; // reaped by the main loop's erase pass
    client.outbox.clear();
    client.outboxSent = 0;
}

void
Daemon::handleSubmit(Client &client, const Request &request)
{
    if (draining_) {
        respond(client,
                errorResponse("draining",
                              "daemon is draining; not accepting "
                              "new jobs"));
        return;
    }
    if (queuedCount() >= config_.queueLimit) {
        respond(client,
                errorResponse("queue_full",
                              "job queue is at its limit of " +
                                  std::to_string(config_.queueLimit)));
        return;
    }
    if (!specParsesCleanly(request.spec)) {
        respond(client,
                errorResponse("bad_spec",
                              "spec does not parse as sbn_sweep "
                              "flags (daemon stderr has the exact "
                              "complaint)"));
        return;
    }

    const std::uint64_t id = nextJobId_++;
    Job &job = jobs_[id];
    job.entry.job = id;
    job.entry.state = JobState::Submitted;
    job.entry.spec = request.spec;
    job.entry.timeoutSeconds = request.timeoutSeconds;
    if (traceEnabled()) {
        // The job's root span opens at submit; it closes (and is
        // emitted) when the job goes terminal.
        job.traceId = newTraceId();
        job.jobSpanId = traceAllocSpanId();
        job.submitUs = job.queuedUs = traceNowMicros();
    }

    // Durability before acknowledgment: the submit line is fsync()ed
    // (and the crash_after_journal=submitted window passed) before
    // the client hears its job id. An acknowledged job is never
    // forgotten.
    journal_.append(job.entry);
    pending_.push_back(id);

    respond(client, "{\"ok\":true,\"job\":" + std::to_string(id) +
                        ",\"state\":\"submitted\"}");
}

void
Daemon::handleStatus(Client &client, const Request &request)
{
    if (!request.hasJob) {
        const DaemonMetricsSnapshot m = collectMetrics();
        respond(client,
                "{\"ok\":true,\"queued\":" + std::to_string(m.queued) +
                    ",\"running\":" + std::to_string(m.running) +
                    ",\"done\":" + std::to_string(m.done) +
                    ",\"failed\":" + std::to_string(m.failed) +
                    ",\"cancelled\":" + std::to_string(m.cancelled) +
                    ",\"draining\":" + (m.draining ? "true" : "false") +
                    "}");
        return;
    }
    const Job *job = findJob(request.job);
    if (job == nullptr) {
        respond(client, errorResponse("unknown_job",
                                      "no job " +
                                          std::to_string(request.job)));
        return;
    }
    respond(client,
            "{\"ok\":true,\"job\":" + std::to_string(request.job) +
                ",\"state\":\"" + jobStateName(job->entry.state) +
                "\",\"exit\":" + std::to_string(job->entry.exitCode) +
                ",\"reason\":\"" + jsonEscape(job->entry.reason) +
                "\"}");
}

void
Daemon::handleCancel(Client &client, const Request &request)
{
    Job *job = findJob(request.job);
    if (job == nullptr) {
        respond(client, errorResponse("unknown_job",
                                      "no job " +
                                          std::to_string(request.job)));
        return;
    }
    if (jobStateTerminal(job->entry.state)) {
        respond(client,
                errorResponse("terminal_job",
                              "job " + std::to_string(request.job) +
                                  " is already " +
                                  jobStateName(job->entry.state)));
        return;
    }

    // Durability first: the cancel is journaled (and fsync()ed)
    // before any signal flies, so a daemon crash right here still
    // recovers to "cancelled" and never relaunches the job.
    appendState(*job, JobState::Cancelled, 0,
                job->runnerPid > 0 ? "cancelled while running"
                                   : "cancelled while queued");
    job->cancelRequested = true;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (*it == request.job) {
            pending_.erase(it);
            break;
        }
    }
    if (job->runnerPid > 0)
        killJobRunner(*job);

    respond(client, "{\"ok\":true,\"job\":" +
                        std::to_string(request.job) +
                        ",\"state\":\"cancelled\"}");
}

void
Daemon::handleResults(Client &client, const Request &request)
{
    const Job *job = findJob(request.job);
    if (job == nullptr) {
        respond(client, errorResponse("unknown_job",
                                      "no job " +
                                          std::to_string(request.job)));
        return;
    }
    if (job->entry.state != JobState::Done) {
        respond(client,
                errorResponse("not_ready",
                              "job " + std::to_string(request.job) +
                                  " is " +
                                  jobStateName(job->entry.state) +
                                  ", results need state done"));
        return;
    }
    const std::string path = daemonMergedPath(
        daemonJobDir(config_.stateDir, request.job));
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        respond(client,
                errorResponse("not_ready",
                              "merged result file is missing: " +
                                  path));
        return;
    }
    std::ostringstream payload;
    payload << in.rdbuf();
    const std::string bytes = payload.str();
    const std::string header =
        "{\"ok\":true,\"job\":" + std::to_string(request.job) +
        ",\"exit\":" + std::to_string(job->entry.exitCode) +
        ",\"bytes\":" + std::to_string(bytes.size()) + "}\n";
    // One buffer, so the whole reply usually leaves in one write().
    // As two writes, Nagle's algorithm would hold the payload until
    // the client's delayed ACK (~40 ms) of the header.
    queueOutput(client, header + bytes);
    // Counted when queued, not when the peer drains it: the metric
    // answers "how much result data has this daemon served", and a
    // peer that hangs up mid-payload still cost us the read+queue.
    resultsBytesServed_ += bytes.size();
}

void
Daemon::handleDrain(Client &client)
{
    draining_ = true;
    respond(client, "{\"ok\":true,\"draining\":true}");
}

void
Daemon::handleMetrics(Client &client, const Request &request)
{
    // Everything below reads in-memory daemon state only - never a
    // file, never a blocking call - so a metrics poll during an
    // active job costs the poll loop one formatted line and nothing
    // else.
    if (!request.hasJob) {
        respond(client,
                formatDaemonMetricsResponse(collectMetrics()));
        return;
    }
    const Job *job = findJob(request.job);
    if (job == nullptr) {
        respond(client, errorResponse("unknown_job",
                                      "no job " +
                                          std::to_string(request.job)));
        return;
    }
    // Wall clock: submit-to-now while live, submit-to-terminal once
    // finished under this daemon. A journal-recovered terminal job
    // has no finish stamp (the line records state, not duration) -
    // report 0 rather than a number that counts daemon downtime.
    double wall = 0;
    if (job->entry.startedUnix > 0) {
        if (job->finishedUnix > 0)
            wall = job->finishedUnix - job->entry.startedUnix;
        else if (!jobStateTerminal(job->entry.state))
            wall = static_cast<double>(std::time(nullptr)) -
                   job->entry.startedUnix;
        wall = std::max(0.0, wall);
    }
    char wallText[32];
    std::snprintf(wallText, sizeof wallText, "%.3f", wall);
    char cpuText[32];
    std::snprintf(cpuText, sizeof cpuText, "%.3f", job->cpuSeconds);
    respond(client,
            "{\"ok\":true,\"type\":\"sbn.metrics.v1\",\"job\":" +
                std::to_string(request.job) + ",\"state\":\"" +
                jobStateName(job->entry.state) +
                "\",\"launches\":" + std::to_string(job->launches) +
                ",\"wall_s\":" + wallText + ",\"cpu_s\":" + cpuText +
                ",\"exit\":" + std::to_string(job->entry.exitCode) +
                "}");
}

DaemonMetricsSnapshot
Daemon::collectMetrics() const
{
    DaemonMetricsSnapshot m;
    m.uptimeSeconds =
        std::chrono::duration<double>(Clock::now() - startTime_)
            .count();
    m.draining = draining_;
    m.queued = queuedCount();
    m.running = runningCount();
    for (const auto &pair : jobs_) {
        switch (pair.second.entry.state) {
        case JobState::Done:
            ++m.done;
            break;
        case JobState::Failed:
            ++m.failed;
            break;
        case JobState::Cancelled:
            ++m.cancelled;
            break;
        default:
            break;
        }
        if (pair.second.runnerPid > 0 && !m.hasActiveJob) {
            // jobs_ iterates in id order, so this is the lowest-id
            // job with a live runner.
            m.hasActiveJob = true;
            m.activeJob = pair.first;
        }
    }
    m.jobsTotal = jobs_.size();
    m.queueDepth = m.queued;
    m.journalAppends = journal_.appends();
    m.journalFsyncs = journal_.fsyncs();
    m.resultsBytesServed = resultsBytesServed_;
    m.runnerRelaunches = runnerRelaunches_;
    return m;
}

void
Daemon::startPendingJobs()
{
    while (!pending_.empty() && runningCount() < config_.maxRunning) {
        const std::uint64_t id = pending_.front();
        pending_.pop_front();
        Job *job = findJob(id);
        if (job == nullptr || jobStateTerminal(job->entry.state))
            continue; // cancelled while queued
        launchRunner(*job);
    }
}

void
Daemon::launchRunner(Job &job)
{
    // Relaunch detection must look before startedUnix is stamped
    // below: a nonzero launches count is a relaunch within this
    // incarnation, and a journaled startedUnix on a job this
    // incarnation has never launched means a previous daemon
    // launched it - recovery is relaunching it now. Both count in
    // runner_relaunches, so the metric reflects crash recoveries
    // even across a daemon kill-and-restart.
    const bool relaunch =
        job.launches > 0 || job.entry.startedUnix > 0;

    // First launch ever (not per incarnation): stamp the wall-clock
    // start the timeout deadline is measured from. Recovered jobs
    // carry theirs in from the journal.
    if (job.entry.startedUnix <= 0)
        job.entry.startedUnix =
            static_cast<double>(std::time(nullptr));

    // Journal the transition BEFORE the fork: a crash between the
    // two recovers to "running" and relaunches with resume, which is
    // idempotent; the reverse order could run a job the journal
    // never heard of.
    appendState(job, JobState::Running, 0, "");

    // Trace: jobs recovered from the journal (or submitted before
    // tracing was armed) get their trace lazily here; the queued
    // interval that ends with this launch is emitted, and the running
    // interval starts.
    if (traceEnabled() && job.traceId == 0) {
        job.traceId = newTraceId();
        job.jobSpanId = traceAllocSpanId();
        job.submitUs = job.queuedUs = traceNowMicros();
    }
    if (job.jobSpanId != 0) {
        const std::uint64_t nowUs = traceNowMicros();
        traceEmitSpan({job.traceId, job.jobSpanId}, "queued",
                      "job " + std::to_string(job.entry.job) +
                          " queued",
                      job.jobSpanId, job.queuedUs, nowUs,
                      {{"launch", std::to_string(job.launches)}});
        job.runStartUs = nowUs;
    }

    int pipeFds[2];
    if (::pipe(pipeFds) != 0)
        sbn_fatal("cannot create runner status pipe: ",
                  std::strerror(errno));

    const pid_t daemonPid = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        sbn_fatal("cannot fork job runner: ", std::strerror(errno));
    if (pid == 0) {
#ifdef __linux__
        // Daemon death must take the runner's fleet down with it:
        // TERM here makes the runner's supervisor kill and reap its
        // workers (which additionally hold PDEATHSIG(SIGKILL)
        // against the runner). The getppid() check closes the race
        // where the daemon died before prctl took effect.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != daemonPid)
            ::_exit(kExitFatal);
#else
        (void)daemonPid;
#endif
        ::close(pipeFds[0]);
        // fd hygiene: the runner must not hold the daemon's sockets
        // (a held listen fd would keep the port alive after daemon
        // death) or the journal (single-writer invariant).
        ::close(listenFd_);
        for (const Client &client : clients_)
            if (client.fd >= 0)
                ::close(client.fd);
        ::close(journal_.fd());
        for (const auto &pair : jobs_)
            if (pair.second.statusPipe >= 0)
                ::close(pair.second.statusPipe);
        // The runner (and everything it forks) parents its spans
        // under this job's span - submit-to-merge becomes one tree.
        if (job.jobSpanId != 0)
            exportTraceContext({job.traceId, job.jobSpanId});
        runJobInRunner(job, pipeFds[1]);
        ::_exit(kExitFatal); // not reached
    }
    ::close(pipeFds[1]);
    job.runnerPid = pid;
    job.statusPipe = pipeFds[0];
    if (relaunch)
        ++runnerRelaunches_; // crash recovery, not steady state
    if (!job.hasDeadline && job.entry.timeoutSeconds > 0) {
        // The deadline is anchored at the journaled first-launch
        // wall-clock time, not at this launch: a job recovered after
        // a daemon restart resumes whatever budget it had left
        // instead of getting a fresh full timeout per incarnation.
        // (Within one incarnation, relaunches keep the armed
        // deadline and never re-enter this branch.)
        const double elapsed = std::max(
            0.0, static_cast<double>(std::time(nullptr)) -
                     job.entry.startedUnix);
        job.hasDeadline = true;
        job.deadline = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(std::max(
                               0.0, job.entry.timeoutSeconds -
                                        elapsed)));
    }
    ++job.launches;
}

void
Daemon::runJobInRunner(const Job &job, int status_write_fd)
{
    // Fault identity: the runner is not a shard worker; its attempt
    // number is how many runner launches this job has had, so
    // crash_in_merge (attempt=0 by default) kills the first launch's
    // merge and lets the relaunch publish.
    setFaultProcessScope(kFaultNoShard, job.launches);

    SweepRunOptions opt = parseSweepSpecString(job.entry.spec);
    const std::size_t shards = opt.spawnShards != 0
                                   ? opt.spawnShards
                                   : config_.defaultShards;
    // A spec without --threads gets this job's share of the host's
    // cores; an explicit --threads (0 included) always wins.
    if (opt.threads == 0)
        opt.threads = jobWorkerThreads(ThreadPool::hardwareThreads(),
                                       config_.maxRunning, shards);
    const std::string dir =
        daemonJobDir(config_.stateDir, job.entry.job);

    // A spec carrying --trace arms tracing for this runner tree with
    // the job directory as the shard dir; a daemon already running
    // under SBN_TRACE_DIR wins (all shards in one place).
    armSweepTracing(opt, dir);

    // Always resume: a first launch on an empty directory is a
    // no-op, and a relaunch (crash retry or daemon recovery) keeps
    // every record the previous fleet flushed - that reuse is what
    // makes recovered output byte-identical.
    const SupervisedSweepOutcome outcome =
        runSupervisedSweep(opt, shards, dir, /*resume=*/true);

    if (outcome.report.interruptSignal != 0)
        ::_exit(exitCodeForSignal(outcome.report.interruptSignal));

    // Entering the merge/publish phase: tell the daemon (journal
    // "merging"), then give the fault plane its window. A kill
    // between here and the rename below loses nothing: merged.jsonl
    // is absent-or-complete, the shard records persist.
    (void)writeAll(status_write_fd, "merging\n", 8);
    faultMaybeCrashInMerge();

    rewriteRecordsAtomic(daemonMergedPath(dir),
                         outcome.merged.records);

    if (!outcome.report.complete) {
        writeMissingPointsManifest(missingManifestPath(dir),
                                   outcome.check,
                                   outcome.report.missingPoints);
        std::fprintf(stderr,
                     "job %llu: incomplete, %zu point(s) missing; "
                     "partial merged stream published\n",
                     static_cast<unsigned long long>(job.entry.job),
                     outcome.report.missingPoints.size());
        ::_exit(kPartialResultExit);
    }
    ::_exit(kExitOk);
}

void
Daemon::reapRunners()
{
    for (;;) {
        int status = 0;
        // wait4, not waitpid: the rusage that rides along is the
        // runner's OWN usage plus every descendant its supervisor
        // waited for - i.e. the whole fleet's CPU time, for free.
        struct rusage usage{};
        const pid_t pid = ::wait4(-1, &status, WNOHANG, &usage);
        if (pid <= 0)
            return;
        for (auto &pair : jobs_) {
            if (pair.second.runnerPid == pid) {
                pair.second.cpuSeconds +=
                    static_cast<double>(usage.ru_utime.tv_sec) +
                    static_cast<double>(usage.ru_utime.tv_usec) / 1e6 +
                    static_cast<double>(usage.ru_stime.tv_sec) +
                    static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
                runnerExited(pair.second, status);
                break;
            }
        }
    }
}

void
Daemon::runnerExited(Job &job, int status)
{
    job.runnerPid = -1;
    job.killPending = false;
    if (job.jobSpanId != 0 && job.runStartUs != 0) {
        const std::uint64_t nowUs = traceNowMicros();
        traceEmitSpan({job.traceId, job.jobSpanId}, "running",
                      "job " + std::to_string(job.entry.job) +
                          " running",
                      job.jobSpanId, job.runStartUs, nowUs,
                      {{"launch", std::to_string(job.launches)},
                       {"status", describeWaitStatus(status)}});
        if (job.mergeStartUs != 0)
            traceEmitSpan({job.traceId, job.jobSpanId}, "merging",
                          "job " + std::to_string(job.entry.job) +
                              " merging",
                          job.jobSpanId, job.mergeStartUs, nowUs);
        job.runStartUs = 0;
        job.mergeStartUs = 0;
        job.queuedUs = nowUs; // in case a relaunch re-queues it
    }
    if (job.statusPipe >= 0)
        readStatusPipe(job); // drain a final "merging" report
    if (job.statusPipe >= 0) {
        ::close(job.statusPipe);
        job.statusPipe = -1;
    }

    if (jobStateTerminal(job.entry.state))
        return; // cancelled or timed out: already journaled

    const bool exited = WIFEXITED(status);
    const int code = exited ? WEXITSTATUS(status) : 0;
    if (exited && (code == kExitOk || code == kPartialResultExit)) {
        appendState(job, JobState::Done, code,
                    code == kPartialResultExit
                        ? "partial: see missing-points manifest"
                        : "");
        return;
    }

    // A runner killed by a signal is a crash (machine trouble, fault
    // injection, OOM): relaunch with resume within the retry budget.
    // A nonzero *exit* is deterministic (bad spec, fatal) - retrying
    // would just repeat it.
    if (!exited && job.launches <= config_.jobRetries) {
        sbn_warn("job ", job.entry.job, " runner died (",
                 describeWaitStatus(status), "); relaunch ",
                 job.launches, "/", config_.jobRetries,
                 " with resume");
        pending_.push_front(job.entry.job);
        return;
    }
    appendState(job, JobState::Failed, exited ? code : 0,
                "runner " + describeWaitStatus(status));
}

void
Daemon::enforceDeadlines()
{
    const auto now = Clock::now();
    for (auto &pair : jobs_) {
        Job &job = pair.second;
        if (job.killPending && job.runnerPid > 0 &&
            now >= job.killDeadline) {
            ::kill(job.runnerPid, SIGKILL);
            job.killPending = false; // reap does the rest
        }
        if (job.hasDeadline && !jobStateTerminal(job.entry.state) &&
            now >= job.deadline) {
            job.hasDeadline = false;
            // Same durability-first order as cancel.
            appendState(job, JobState::Failed, 0,
                        "timeout after " +
                            std::to_string(job.entry.timeoutSeconds) +
                            "s");
            job.cancelRequested = true;
            for (auto it = pending_.begin(); it != pending_.end();
                 ++it) {
                if (*it == job.entry.job) {
                    pending_.erase(it);
                    break;
                }
            }
            if (job.runnerPid > 0)
                killJobRunner(job);
        }
    }
}

void
Daemon::killJobRunner(Job &job)
{
    // TERM first: the runner's supervisor kills and reaps its
    // workers, so the whole tree winds down cleanly. KILL after the
    // grace period; the workers' PDEATHSIG(SIGKILL) then takes them
    // down with the runner.
    ::kill(job.runnerPid, SIGTERM);
    job.killPending = true;
    job.killDeadline = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               kKillGraceSeconds));
}

void
Daemon::readStatusPipe(Job &job)
{
    char buffer[64];
    const ssize_t got =
        ::read(job.statusPipe, buffer, sizeof buffer);
    if (got < 0 && (errno == EINTR || errno == EAGAIN))
        return;
    if (got <= 0) {
        ::close(job.statusPipe);
        job.statusPipe = -1;
        return;
    }
    // The runner's only message is the merge-phase report. Journal
    // it only from a live Running state: after cancel/timeout the
    // job is terminal and the journal must stay that way.
    if (std::string(buffer, static_cast<std::size_t>(got))
                .find("merging") != std::string::npos &&
        job.entry.state == JobState::Running) {
        job.mergeStartUs = traceNowMicros();
        appendState(job, JobState::Merging, 0, "");
    }
}

void
Daemon::writeHeartbeat()
{
    lastHeartbeat_ = Clock::now();
    heartbeatEver_ = true;
    // v2 = v1 (ts_unix/queued/running/draining, same meanings) plus
    // the full metrics snapshot; a watchdog gets the whole health
    // picture from the file alone, no socket round trip.
    atomicWriteFile(
        daemonHeartbeatPath(config_.stateDir),
        formatHeartbeatV2(
            collectMetrics(),
            static_cast<long long>(std::time(nullptr))));
}

std::size_t
Daemon::queuedCount() const
{
    // pending_ can transiently hold ids whose jobs already went
    // terminal (startPendingJobs skips them); they must not count
    // against the queue cap or show up in status/heartbeat.
    std::size_t count = 0;
    for (const std::uint64_t id : pending_) {
        const auto it = jobs_.find(id);
        if (it != jobs_.end() &&
            !jobStateTerminal(it->second.entry.state))
            ++count;
    }
    return count;
}

std::size_t
Daemon::runningCount() const
{
    std::size_t count = 0;
    for (const auto &pair : jobs_)
        if (pair.second.runnerPid > 0)
            ++count;
    return count;
}

Job *
Daemon::findJob(std::uint64_t id)
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second;
}

} // namespace

unsigned
jobWorkerThreads(unsigned cpus, std::size_t max_running,
                 std::size_t shards)
{
    sbn_assert(max_running >= 1 && shards >= 1,
               "a core share needs max_running >= 1 and shards >= 1");
    const std::size_t share = cpus / max_running;
    return static_cast<unsigned>(
        std::max<std::size_t>(1, share / shards));
}

std::string
daemonJournalPath(const std::string &state_dir)
{
    return state_dir + "/jobs.jsonl";
}

std::string
daemonPortFilePath(const std::string &state_dir)
{
    return state_dir + "/port";
}

std::string
daemonHeartbeatPath(const std::string &state_dir)
{
    return state_dir + "/heartbeat";
}

std::string
daemonJobDir(const std::string &state_dir, std::uint64_t job)
{
    return state_dir + "/job-" + std::to_string(job);
}

std::string
daemonMergedPath(const std::string &job_dir)
{
    return job_dir + "/merged.jsonl";
}

int
runSweepDaemon(const DaemonConfig &config)
{
    if (config.stateDir.empty())
        sbn_fatal("the daemon needs --state=DIR");
    if (config.queueLimit < 1)
        sbn_fatal("--queue-limit must be >= 1");
    if (config.maxRunning < 1)
        sbn_fatal("--max-running must be >= 1");
    ensureDir(config.stateDir);
    Daemon daemon(config);
    return daemon.run();
}

} // namespace sbn

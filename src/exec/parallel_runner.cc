#include "exec/parallel_runner.hh"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>

#include "util/logging.hh"

namespace sbn {

unsigned
hardwareThreads()
{
#ifdef __linux__
    // The CPUs this process may run on, not every online CPU: under
    // taskset or a cpuset, threads beyond the mask only time-slice.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int usable = CPU_COUNT(&mask);
        if (usable >= 1)
            return static_cast<unsigned>(usable);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

unsigned
parseThreadsSpec(const char *spec, const char *source)
{
    if (spec == nullptr)
        sbn_fatal(source, ": null thread-count spec");

    const char *cursor = spec;
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (*cursor == '\0')
        sbn_fatal(source, ": empty value (expected a thread count)");

    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(cursor, &end, 10);
    while (end != nullptr && (*end == ' ' || *end == '\t'))
        ++end;
    if (end == cursor || end == nullptr || *end != '\0')
        sbn_fatal(source, ": '", spec,
                  "' is not a number (expected a decimal thread count)");
    if (errno == ERANGE || parsed > 4096)
        sbn_fatal(source, ": '", spec,
                  "' is out of range (max 4096 worker threads)");
    if (parsed < 0)
        sbn_fatal(source, ": '", spec,
                  "' is negative (expected >= 0; 0 = all hardware "
                  "threads)");
    return static_cast<unsigned>(parsed);
}

unsigned
defaultExecThreads()
{
    static const unsigned cached = [] {
        const char *env = std::getenv("SBN_THREADS");
        if (env == nullptr)
            return 1u;
        const unsigned parsed = parseThreadsSpec(env, "SBN_THREADS");
        return parsed != 0 ? parsed : hardwareThreads();
    }();
    return cached;
}

namespace {

/** The runner whose fan-out this thread is serving, as its caller or
 *  as a helper; a work item that calls back into it is caught. */
thread_local const ParallelRunner *t_serving = nullptr;

} // namespace

/** One forEachIndex call: items are claimed from an atomic cursor. */
struct ParallelRunner::FanOut
{
    const std::function<void(std::size_t)> &fn;
    const std::size_t count;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error{}; //!< written once, by the first failure

    void
    drain()
    {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                if (!failed.exchange(true))
                    error = std::current_exception();
                return;
            }
        }
    }
};

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0 ? threads : hardwareThreads()),
      ownerPid_(getpid())
{
    workers_.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    // Fork safety: a worker that has not reached workerLoop() may
    // still be in its runtime's start-up code, where ASan allocates
    // under a lock that GCC 12's ASan does not take around fork(). A
    // fork() then hands the child a lock no thread will release. Once
    // every worker waits in workerLoop(), an idle runner holds none.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return started_ == threads_ - 1; });
}

ParallelRunner::~ParallelRunner()
{
    // Fork safety: a forked child (shard --spawn workers, death
    // tests) has only the forking thread, and the mutex/condvar state
    // is whatever the parent's threads left mid-flight. Touching it or
    // joining the phantom threads would hang the child's exit, so
    // detach the handles; the parent still joins the real threads.
    if (getpid() != ownerPid_) {
        for (auto &worker : workers_)
            worker.detach();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ParallelRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    ++started_;
    idle_.notify_one();
    while (true) {
        wake_.wait(lock,
                   [this] { return stopping_ || claimed_ < enlisted_; });
        if (stopping_)
            return;
        ++claimed_;
        FanOut &fan = *fanOut_;
        lock.unlock();
        t_serving = this;
        fan.drain();
        t_serving = nullptr;
        lock.lock();
        if (++finished_ == claimed_)
            idle_.notify_one();
    }
}

void
ParallelRunner::forEachIndex(std::size_t count,
                             const std::function<void(std::size_t)> &fn)
{
    sbn_assert(t_serving != this,
               "ParallelRunner re-entered from one of its own work "
               "items (a nested fan-out would deadlock)");
    const ParallelRunner *const outer = t_serving;
    t_serving = this;
    FanOut fan{fn, count};
    if (threads_ == 1 || count <= 1) {
        fan.drain();
    } else {
        // Callers on other threads wait here for their turn. The
        // caller drains alongside its helpers, then withdraws the
        // slots no worker claimed (every index is taken by then) and
        // waits for the helpers that did to finish.
        std::lock_guard<std::mutex> turn(turn_);
        const std::size_t helpers =
            std::min<std::size_t>(threads_ - 1, count - 1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            fanOut_ = &fan;
            enlisted_ = helpers;
            claimed_ = 0;
            finished_ = 0;
        }
        for (std::size_t h = 0; h < helpers; ++h)
            wake_.notify_one();

        fan.drain();

        std::unique_lock<std::mutex> lock(mutex_);
        enlisted_ = claimed_;
        idle_.wait(lock, [this] { return finished_ == claimed_; });
    }
    t_serving = outer;
    if (fan.error)
        std::rethrow_exception(fan.error);
}

namespace {

/** The shared runners of one process, keyed by thread count. */
struct RunnerRegistry
{
    std::mutex mutex;
    std::map<unsigned, std::unique_ptr<ParallelRunner>> runners;
    /** A forked child's inherited registry, kept reachable so leak
     *  checkers do not report it; never used or destroyed. */
    RunnerRegistry *inherited = nullptr;
};

RunnerRegistry *g_registry = nullptr;
std::once_flag g_registry_once;

/**
 * pthread_atfork child handler. The inherited runners front worker
 * threads that do not exist in the child, so a fan-out on them would
 * wait forever, and another parent thread may have held the inherited
 * mutex at fork time. The child therefore never locks, uses or
 * destroys the inherited registry: it sets it aside and starts an
 * empty one. No prepare/parent handlers are needed, since nothing
 * inherited is touched. The child is single-threaded here, so the
 * plain stores are race-free.
 */
void
startChildRegistry()
{
    auto *fresh = new RunnerRegistry;
    fresh->inherited = g_registry;
    g_registry = fresh;
}

} // namespace

ParallelRunner &
sharedParallelRunner(unsigned threads)
{
    std::call_once(g_registry_once, [] {
        g_registry = new RunnerRegistry;
        const int rc =
            pthread_atfork(nullptr, nullptr, &startChildRegistry);
        sbn_assert(rc == 0, "pthread_atfork failed: error ", rc);
    });

    const unsigned resolved =
        threads != 0 ? threads : hardwareThreads();
    RunnerRegistry &registry = *g_registry;
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto &slot = registry.runners[resolved];
    if (!slot)
        slot = std::make_unique<ParallelRunner>(resolved);
    return *slot;
}

} // namespace sbn

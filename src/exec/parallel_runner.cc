#include "exec/parallel_runner.hh"

#include <pthread.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>

#include "util/logging.hh"

namespace sbn {

unsigned
parseThreadsSpec(const char *spec)
{
    if (spec == nullptr)
        sbn_fatal("SBN_THREADS: null thread-count spec");

    const char *cursor = spec;
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (*cursor == '\0')
        sbn_fatal("SBN_THREADS: empty value (expected a thread count)");

    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(cursor, &end, 10);
    while (end != nullptr && (*end == ' ' || *end == '\t'))
        ++end;
    if (end == cursor || end == nullptr || *end != '\0')
        sbn_fatal("SBN_THREADS: '", spec,
                  "' is not a number (expected a decimal thread count)");
    if (errno == ERANGE || parsed > 4096)
        sbn_fatal("SBN_THREADS: '", spec,
                  "' is out of range (max 4096 worker threads)");
    if (parsed < 0)
        sbn_fatal("SBN_THREADS: '", spec,
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
        const unsigned parsed = parseThreadsSpec(env);
        return parsed != 0 ? parsed : ThreadPool::hardwareThreads();
    }();
    return cached;
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0 ? threads : ThreadPool::hardwareThreads())
{
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_ - 1);
}

ParallelRunner::~ParallelRunner() = default;

void
ParallelRunner::forEachIndex(std::size_t count,
                             const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (threads_ == 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Shared fan-out state: workers (pool + calling thread) claim
    // indices from an atomic cursor; the calling thread then waits for
    // the posted drainers to retire.
    struct FanOut
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::mutex mutex;
        std::condition_variable done;
        std::size_t pending = 0;
        std::exception_ptr error;
    } state;

    auto drain = [&] {
        while (!state.failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                state.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state.mutex);
                if (!state.error)
                    state.error = std::current_exception();
                state.failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const std::size_t helpers =
        std::min<std::size_t>(threads_ - 1, count - 1);
    state.pending = helpers;
    for (std::size_t w = 0; w < helpers; ++w) {
        pool_->post([&] {
            drain();
            std::lock_guard<std::mutex> lock(state.mutex);
            if (--state.pending == 0)
                state.done.notify_one();
        });
    }

    drain();

    std::unique_lock<std::mutex> lock(state.mutex);
    state.done.wait(lock, [&] { return state.pending == 0; });
    if (state.error)
        std::rethrow_exception(state.error);
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
 * pthread_atfork child handler. The inherited runners front pool
 * threads that do not exist in the child, so posting to them would
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
        threads != 0 ? threads : ThreadPool::hardwareThreads();
    RunnerRegistry &registry = *g_registry;
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto &slot = registry.runners[resolved];
    if (!slot)
        slot = std::make_unique<ParallelRunner>(resolved);
    return *slot;
}

} // namespace sbn

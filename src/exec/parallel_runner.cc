#include "exec/parallel_runner.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <thread>

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

bool
parseThreadsSpec(const char *spec, const char *source, unsigned &out,
                 std::string &error)
{
    if (spec == nullptr)
        return failWith(error, source, ": null thread-count spec");

    const char *cursor = spec;
    while (*cursor == ' ' || *cursor == '\t')
        ++cursor;
    if (*cursor == '\0')
        return failWith(error, source,
                        ": empty value (expected a thread count)");

    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(cursor, &end, 10);
    while (end != nullptr && (*end == ' ' || *end == '\t'))
        ++end;
    if (end == cursor || end == nullptr || *end != '\0')
        return failWith(error, source, ": '", spec,
                        "' is not a number (expected a decimal thread "
                        "count)");
    if (errno == ERANGE || parsed > 4096)
        return failWith(error, source, ": '", spec,
                        "' is out of range (max 4096 worker threads)");
    if (parsed < 0)
        return failWith(error, source, ": '", spec,
                        "' is negative (expected >= 0; 0 = all "
                        "hardware threads)");
    out = static_cast<unsigned>(parsed);
    return true;
}

unsigned
defaultExecThreads()
{
    static const unsigned cached = [] {
        const char *env = std::getenv("SBN_THREADS");
        unsigned parsed = 1;
        std::string error;
        if (env != nullptr &&
            !parseThreadsSpec(env, "SBN_THREADS", parsed, error))
            sbn_fatal(error);
        return parsed != 0 ? parsed : hardwareThreads();
    }();
    return cached;
}

namespace {

/** One forEachIndex call: items are claimed from an atomic cursor. */
struct FanOut
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

} // namespace

void
ParallelRunner::forEachIndex(
    std::size_t count, const std::function<void(std::size_t)> &fn) const
{
    FanOut fan{fn, count};
    const std::size_t wanted =
        count > 1 ? std::min<std::size_t>(threads_ - 1, count - 1) : 0;
    std::vector<std::thread> helpers;
    // std::thread throws (std::system_error, or std::bad_alloc for its
    // state) when a thread cannot start. The threads that did start
    // drain every index, and no result depends on how many there are.
    try {
        helpers.reserve(wanted);
        while (helpers.size() < wanted)
            helpers.emplace_back([&fan] { fan.drain(); });
    } catch (...) {
    }
    fan.drain();
    for (std::thread &helper : helpers)
        helper.join();
    if (fan.error)
        std::rethrow_exception(fan.error);
}

} // namespace sbn

/**
 * @file
 * Deterministic parallel execution of independent experiments.
 *
 * ParallelRunner fans independent work items (replications, sweep
 * grid points) across threads it starts for each call and collects
 * results *by index*, so every reduction happens in the same
 * order as the serial code path. Combined with pre-derived
 * per-replication seeds, results are bit-identical to serial execution
 * at any thread count and under any scheduling interleaving (the
 * determinism contract; see docs/performance.md).
 */

#ifndef SBN_EXEC_PARALLEL_RUNNER_HH
#define SBN_EXEC_PARALLEL_RUNNER_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace sbn {

/**
 * CPUs this process may run on: the count of its affinity mask
 * (sched_getaffinity), else every online CPU
 * (std::thread::hardware_concurrency()). Never less than 1.
 */
unsigned hardwareThreads();

/**
 * Process-wide default worker count used by the replicate() helpers
 * and sweeps when no explicit count is given: the SBN_THREADS
 * environment variable, read once, else 1 (serial). The serial
 * default keeps single-threaded semantics - including callback
 * invocation order - for existing callers; opt into parallelism per
 * call site or via the environment. A malformed SBN_THREADS is fatal.
 */
unsigned defaultExecThreads();

/**
 * Parse a worker-count spec read from @p source (the flag or
 * environment variable, e.g. "--threads" or "SBN_THREADS") into
 * @p out. Accepts a positive decimal integer (surrounding whitespace
 * allowed), capped at 4096; "0" means "every usable CPU"
 * (hardwareThreads()) and resolves to 0. Anything else (empty,
 * non-numeric, negative, trailing junk) returns false with a message
 * naming the source and the bad value in @p error -- a typo must not
 * silently degrade a sweep to serial execution.
 */
bool parseThreadsSpec(const char *spec, const char *source, unsigned &out,
                      std::string &error);

/**
 * Runs independent work items across threads, deterministically.
 *
 * A runner holds only its thread count T; T = 1 runs items inline,
 * with no threads and no locks. No thread outlives the fan-out that
 * started it, so concurrent callers and nested fan-outs on one runner
 * need no coordination, and a process that forks outside a fan-out
 * forks without runner threads.
 */
class ParallelRunner
{
  public:
    /** @param threads T; 0 means every usable CPU (hardwareThreads()). */
    explicit ParallelRunner(unsigned threads = 0)
        : threads_(threads != 0 ? threads : hardwareThreads())
    {
    }

    /** Total thread count (helpers + calling thread). */
    unsigned threads() const { return threads_; }

    /**
     * Invoke fn(i) once for every i in [0, count): start
     * min(T-1, count-1) helpers, claim indices from a shared cursor
     * beside them, and join them. Helpers that cannot start leave
     * their share to those that did. The first exception thrown by
     * any item is rethrown here (remaining items may be skipped).
     */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)> &fn) const;

    /** forEachIndex collecting fn(i) into slot i of the result. */
    template <typename R>
    std::vector<R>
    map(std::size_t count, const std::function<R(std::size_t)> &fn) const
    {
        std::vector<R> results(count);
        forEachIndex(count,
                     [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

    /**
     * map() with an ordered completion callback: emit(i, result) is
     * invoked exactly once per index, in increasing index order, as
     * soon as item i *and every lower-indexed item* have finished -
     * results stream out progressively instead of arriving only after
     * the full fan-out.
     *
     * With multiple threads the callback runs on whichever thread
     * closed the gap at the emission cursor, serialized by an internal
     * lock (never two emits at once, never out of order). The emitted
     * sequence is therefore identical at any thread count. If fn or
     * emit throws, the exception propagates to the caller, no index
     * is emitted twice, and once an emit has thrown no further index
     * is emitted.
     */
    template <typename R>
    std::vector<R>
    stream(std::size_t count, const std::function<R(std::size_t)> &fn,
           const std::function<void(std::size_t, const R &)> &emit) const
    {
        std::vector<R> results(count);
        std::vector<unsigned char> ready(count, 0);
        std::mutex gate;
        std::size_t cursor = 0;
        bool emit_failed = false;
        forEachIndex(count, [&](std::size_t i) {
            results[i] = fn(i);
            std::lock_guard<std::mutex> lock(gate);
            ready[i] = 1;
            // Advance the cursor before each emit and latch failures:
            // threads that were already mid-item when an emit threw
            // must neither re-emit that index nor emit past it.
            while (!emit_failed && cursor < count && ready[cursor]) {
                const std::size_t at = cursor++;
                try {
                    emit(at, results[at]);
                } catch (...) {
                    emit_failed = true;
                    throw;
                }
            }
        });
        return results;
    }

  private:
    unsigned threads_;
};

} // namespace sbn

#endif // SBN_EXEC_PARALLEL_RUNNER_HH

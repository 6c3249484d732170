/**
 * @file
 * Deterministic parallel execution of independent experiments.
 *
 * ParallelRunner fans independent work items (replications, sweep
 * grid points) across a fixed-size ThreadPool and collects results
 * *by index*, so every reduction happens in the same order as the
 * serial code path. Combined with pre-derived per-replication seeds,
 * results are bit-identical to serial execution at any thread count
 * and under any scheduling interleaving (the determinism contract;
 * see docs/performance.md).
 */

#ifndef SBN_EXEC_PARALLEL_RUNNER_HH
#define SBN_EXEC_PARALLEL_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/thread_pool.hh"
#include "stats/batch_means.hh"

namespace sbn {

/**
 * Process-wide default worker count used by runReplications() and the
 * replicate() helpers when no explicit count is given. Resolution:
 * the last setDefaultExecThreads() value if set, else the SBN_THREADS
 * environment variable, else 1 (serial). The serial default keeps
 * single-threaded semantics - including callback invocation order -
 * for existing callers; opt into parallelism per call site or via the
 * environment.
 */
unsigned defaultExecThreads();

/** Override the default; 0 restores "resolve from environment". */
void setDefaultExecThreads(unsigned threads);

/**
 * Parse an SBN_THREADS-style worker-count spec. Accepts a positive
 * decimal integer (surrounding whitespace allowed), capped at 4096;
 * "0" means "every usable CPU" (ThreadPool::hardwareThreads()) and
 * resolves to 0. Anything else (empty, non-numeric, negative,
 * trailing junk) is a configuration error and calls sbn_fatal with a
 * message naming the bad value -- a typo must not silently degrade a
 * sweep to serial execution.
 */
unsigned parseThreadsSpec(const char *spec);

/**
 * Runs independent work items across a worker pool, deterministically.
 *
 * A runner with T threads uses T-1 pool workers plus the calling
 * thread; T = 1 degenerates to plain inline loops with no pool and no
 * synchronization. Runner methods must not be re-entered from inside
 * a work item (no nested parallelism).
 */
class ParallelRunner
{
  public:
    /** @param threads worker count; 0 means every usable CPU
     *  (ThreadPool::hardwareThreads()). */
    explicit ParallelRunner(unsigned threads = 0);

    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Total worker count (pool workers + calling thread). */
    unsigned threads() const { return threads_; }

    /**
     * Invoke fn(i) once for every i in [0, count), spread across the
     * workers. Blocks until all invocations finish. The first
     * exception thrown by any item is rethrown here (remaining items
     * may be skipped).
     */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)> &fn);

    /** forEachIndex collecting fn(i) into slot i of the result. */
    template <typename R>
    std::vector<R>
    map(std::size_t count, const std::function<R(std::size_t)> &fn)
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
     * With multiple workers the callback runs on whichever worker
     * closed the gap at the emission cursor, serialized by an internal
     * lock (never two emits at once, never out of order). The emitted
     * sequence is therefore identical at any thread count. Callbacks
     * must not re-enter the runner; if fn or emit throws, the
     * exception propagates to the caller, no index is emitted twice,
     * and once an emit has thrown no further index is emitted.
     */
    template <typename R>
    std::vector<R>
    stream(std::size_t count, const std::function<R(std::size_t)> &fn,
           const std::function<void(std::size_t, const R &)> &emit)
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
            // workers that were already mid-item when an emit threw
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

    /**
     * Parallel independent replications, bit-identical to the serial
     * runReplications() path: the per-replication seeds are derived
     * from @p master_seed up front (same derivation stream as serial),
     * experiments run concurrently, and the accumulator consumes the
     * results in replication order.
     *
     * With one replication the half-width is reported as 0 (no CI).
     */
    Estimate runReplications(
        const std::function<double(std::uint64_t)> &experiment,
        unsigned replications, std::uint64_t master_seed = 1,
        double level = 0.95);

  private:
    unsigned threads_;
    std::unique_ptr<ThreadPool> pool_; // null when threads_ == 1
};

/**
 * Process-wide shared runner with @p threads workers (0 = hardware),
 * created on first use and kept for the process lifetime. The stats-
 * and core-layer replication helpers route through this so repeated
 * calls at the same worker count reuse one pool instead of spawning
 * and joining threads per call. Safe for concurrent top-level use
 * (callers share the pool); the no-nesting rule still applies.
 * Fork-safe: a forked child starts with no shared runners and builds
 * its own, so a runner obtained before fork() must not be used in
 * the child.
 */
ParallelRunner &sharedParallelRunner(unsigned threads);

} // namespace sbn

#endif // SBN_EXEC_PARALLEL_RUNNER_HH

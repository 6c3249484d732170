#include "exec/thread_pool.hh"

#include <sched.h>
#include <unistd.h>

#include <exception>

#include "util/logging.hh"

namespace sbn {

ThreadPool::ThreadPool(unsigned threads) : ownerPid_(getpid())
{
    sbn_assert(threads >= 1, "thread pool needs at least one worker");
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    // Fork safety: a thread that has not reached workerLoop() may
    // still be in its runtime's start-up code, and ASan's allocates
    // there under its allocator's lock. GCC 12's ASan does not take
    // that lock around fork(), so a fork() made then hands the child
    // a lock no thread will release, and the child's first new
    // threads block on it. Once every worker waits in workerLoop(),
    // an idle pool holds no such lock.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, threads] { return started_ == threads; });
}

ThreadPool::~ThreadPool()
{
    // Fork safety: in a forked child (shard --spawn workers, death
    // tests) the worker threads do not exist - only the forking
    // thread survives fork() - and the mutex/condvar state is
    // whatever the parent's threads left mid-flight. Touching either
    // or joining the phantom std::thread handles would deadlock the
    // child's exit path, so detach the handles and walk away; the
    // parent still owns and joins the real threads.
    if (getpid() != ownerPid_) {
        for (auto &worker : workers_)
            worker.detach();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sbn_assert(!stopping_, "post on a stopping thread pool");
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++started_;
    }
    cv_.notify_all();
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        // A raw posted task must not take the worker (and with it the
        // whole process) down: constructs that need failure reporting
        // catch inside the task and propagate to their waiter
        // (ParallelRunner does). Anything escaping to here is logged
        // and dropped so the pool stays usable.
        try {
            task();
        } catch (const std::exception &e) {
            sbn_warn("thread-pool task threw: ", e.what());
        } catch (...) {
            sbn_warn("thread-pool task threw a non-std exception");
        }
    }
}

unsigned
ThreadPool::hardwareThreads()
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

} // namespace sbn

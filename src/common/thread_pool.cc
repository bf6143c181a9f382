/**
 * @file
 * Implementation of the persistent thread pool.
 */

#include "common/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace twoinone {

namespace {

/** Depth of parallelFor task execution on this thread. */
thread_local int tls_parallel_depth = 0;

/** Live ScopedSerial guards, process-wide. */
std::atomic<int> serial_guards{0};

/** Execute a chunk with the nesting depth marked. */
void
runChunk(const ThreadPool::RangeFn &fn, int64_t begin, int64_t end)
{
    ++tls_parallel_depth;
    fn(begin, end);
    --tls_parallel_depth;
}

} // namespace

/** Per-parallelFor completion state shared by its chunks. */
struct ThreadPool::Sync
{
    std::mutex mu;
    std::condition_variable cv;
    int remaining = 0;
};

ThreadPool::ThreadPool(int threads) : nthreads_(threads < 1 ? 1 : threads)
{
    workers_.reserve(static_cast<size_t>(nthreads_ - 1));
    for (int i = 0; i < nthreads_ - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(envThreadCount());
    return pool;
}

int
ThreadPool::envThreadCount()
{
    if (const char *env = std::getenv("TWOINONE_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && v > 0)
            return static_cast<int>(v);
        TWOINONE_WARN("ignoring invalid TWOINONE_THREADS=", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

bool
ThreadPool::inParallelRegion()
{
    return tls_parallel_depth > 0 ||
           serial_guards.load(std::memory_order_relaxed) > 0;
}

ThreadPool::ScopedSerial::ScopedSerial()
{
    serial_guards.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::ScopedSerial::~ScopedSerial()
{
    serial_guards.fetch_sub(1, std::memory_order_relaxed);
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const RangeFn &fn)
{
    int64_t range = end - begin;
    if (range <= 0)
        return;
    if (grain < 1)
        grain = 1;

    int64_t max_chunks = (range + grain - 1) / grain;
    int chunks = static_cast<int>(
        max_chunks < nthreads_ ? max_chunks : nthreads_);

    if (chunks <= 1 || inParallelRegion()) {
        // Run inline WITHOUT marking the region: when a top-level
        // call collapses to one chunk (e.g. batch of 1), nested
        // kernels must still be free to parallelize. When already
        // inside a task the depth is necessarily > 0, so nested
        // calls stay inline either way.
        fn(begin, end);
        return;
    }

    // Fixed contiguous partition: chunk c covers
    // [begin + c*base + min(c, rem), ...) so sizes differ by <= 1.
    int64_t base = range / chunks;
    int64_t rem = range % chunks;

    Sync sync;
    sync.remaining = chunks - 1;

    {
        std::lock_guard<std::mutex> lk(mu_);
        int64_t lo = begin + base + (rem > 0 ? 1 : 0); // after chunk 0
        for (int c = 1; c < chunks; ++c) {
            int64_t len = base + (c < rem ? 1 : 0);
            queue_.push_back(Job{&fn, lo, lo + len, &sync});
            lo += len;
        }
    }
    cv_.notify_all();

    // The caller works on the first chunk itself.
    runChunk(fn, begin, begin + base + (rem > 0 ? 1 : 0));

    std::unique_lock<std::mutex> lk(sync.mu);
    sync.cv.wait(lk, [&sync] { return sync.remaining == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty())
                return;
            job = queue_.front();
            queue_.pop_front();
        }
        runChunk(*job.fn, job.begin, job.end);
        {
            std::lock_guard<std::mutex> lk(job.sync->mu);
            --job.sync->remaining;
            if (job.sync->remaining == 0)
                job.sync->cv.notify_one();
        }
    }
}

} // namespace twoinone

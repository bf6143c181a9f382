/**
 * @file
 * Persistent fixed-size thread pool with a deterministic parallelFor
 * primitive — the compute substrate underneath the tensor / nn hot
 * paths.
 *
 * Design constraints (deliberate, see README "Building &
 * benchmarking"):
 *
 *  - No work stealing. parallelFor splits [begin, end) into at most
 *    threads() contiguous chunks of near-equal size. Which thread
 *    runs which chunk is scheduling-dependent, but the chunk
 *    *boundaries* are not, and callers are required to make
 *    fn(lo, hi) equivalent to "for i in [lo, hi): work(i)" with
 *    work(i) independent of the chunking. Under that contract every
 *    output element is produced by exactly one work(i) with a fixed
 *    internal accumulation order, so results are bit-identical for
 *    any TWOINONE_THREADS setting. No atomic float accumulation
 *    anywhere.
 *
 *  - Grain-size cutoff: ranges smaller than the grain run inline on
 *    the calling thread, so small tensors never pay dispatch
 *    overhead.
 *
 *  - Nested parallelFor calls (a task calling parallelFor again) run
 *    inline rather than re-entering the pool; outer-level parallelism
 *    wins, e.g. Conv2d parallelizes over batch images and each
 *    per-image GEMM then runs serially on its worker.
 *
 * Pool size comes from TWOINONE_THREADS when set (and > 0), else
 * std::thread::hardware_concurrency().
 */

#ifndef TWOINONE_COMMON_THREAD_POOL_HH
#define TWOINONE_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace twoinone {

/**
 * Fixed-size thread pool. threads() counts the calling thread: a pool
 * of size T spawns T-1 workers and the caller executes the first
 * chunk of every parallelFor itself.
 */
class ThreadPool
{
  public:
    /** Chunk body: fn(lo, hi) processes indices [lo, hi). */
    using RangeFn = std::function<void(int64_t, int64_t)>;

    /** Pool with an explicit thread count (clamped to >= 1). */
    explicit ThreadPool(int threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /**
     * The process-wide pool used by the tensor/nn kernels. Created on
     * first use with envThreadCount() threads; TWOINONE_THREADS is
     * therefore read once per process.
     */
    static ThreadPool &global();

    /** TWOINONE_THREADS when set and > 0, else hardware concurrency. */
    static int envThreadCount();

    /** Total thread count including the caller. */
    int threads() const { return nthreads_; }

    /**
     * Run fn over [begin, end) split into contiguous chunks.
     *
     * Runs inline (no dispatch) when the range is at most @p grain
     * elements, when the pool has a single thread, when called from
     * inside another parallelFor task, or while a ScopedSerial guard
     * is alive. Otherwise the range is split into min(threads(),
     * ceil(range / grain)) chunks whose sizes differ by at most one;
     * the caller runs the first chunk and blocks until all chunks
     * finish.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const RangeFn &fn);

    /** True while the current thread is executing a parallelFor task,
     * or while any ScopedSerial guard is alive on any thread. */
    static bool inParallelRegion();

    /**
     * RAII guard that forces every thread's parallelFor to run inline
     * while alive — the calling thread's and any other thread's, such
     * as a serving dispatcher. Used to compare serial vs parallel
     * results bit-for-bit within one process and to time the serial
     * baselines.
     */
    class ScopedSerial
    {
      public:
        ScopedSerial();
        ~ScopedSerial();
        ScopedSerial(const ScopedSerial &) = delete;
        ScopedSerial &operator=(const ScopedSerial &) = delete;
    };

  private:
    struct Sync;

    struct Job
    {
        const RangeFn *fn = nullptr;
        int64_t begin = 0;
        int64_t end = 0;
        Sync *sync = nullptr;
    };

    void workerLoop();

    int nthreads_;
    std::vector<std::thread> workers_;
    std::deque<Job> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace twoinone

#endif // TWOINONE_COMMON_THREAD_POOL_HH

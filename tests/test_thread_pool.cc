/**
 * @file
 * Unit tests for the ThreadPool parallelFor primitive: full range
 * coverage with disjoint chunks, grain cutoff, nested-call inlining,
 * the process-wide ScopedSerial guard, and env-var thread-count
 * parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace twoinone {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    pool.parallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GrainCutoffRunsInlineAsOneChunk)
{
    ThreadPool pool(4);
    int calls = 0;
    int64_t got_lo = -1, got_hi = -1;
    // Range (100) <= grain (256): must be one inline fn invocation.
    pool.parallelFor(0, 100, 256, [&](int64_t lo, int64_t hi) {
        ++calls;
        got_lo = lo;
        got_hi = hi;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(got_lo, 0);
    EXPECT_EQ(got_hi, 100);
}

TEST(ThreadPool, ChunkCountRespectsGrain)
{
    ThreadPool pool(8);
    // Range 30 with grain 10 allows at most 3 chunks even with 8
    // threads.
    std::atomic<int> calls{0};
    pool.parallelFor(0, 30, 10, [&](int64_t lo, int64_t hi) {
        calls.fetch_add(1);
        EXPECT_GE(hi - lo, 10);
    });
    EXPECT_LE(calls.load(), 3);
    EXPECT_GE(calls.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64 * 32);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(0, 64, 1, [&](int64_t olo, int64_t ohi) {
        for (int64_t o = olo; o < ohi; ++o) {
            EXPECT_TRUE(ThreadPool::inParallelRegion());
            // Nested parallelFor must execute inline on this thread.
            ThreadPool::global().parallelFor(
                0, 32, 1, [&, o](int64_t ilo, int64_t ihi) {
                    for (int64_t i = ilo; i < ihi; ++i)
                        hits[static_cast<size_t>(o * 32 + i)].fetch_add(1);
                });
        }
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleChunkTopLevelLeavesRegionUnmarked)
{
    // A top-level call that collapses to one chunk (e.g. batch of 1
    // in Conv2d) must NOT mark the parallel region: nested kernels
    // still get the full pool.
    ThreadPool pool(4);
    pool.parallelFor(0, 1, 1, [&](int64_t, int64_t) {
        EXPECT_FALSE(ThreadPool::inParallelRegion());
        std::atomic<int> chunks{0};
        pool.parallelFor(0, 1000, 1,
                         [&](int64_t, int64_t) { chunks.fetch_add(1); });
        EXPECT_EQ(chunks.load(), 4);
    });
}

TEST(ThreadPool, ScopedSerialForcesInline)
{
    ThreadPool pool(4);
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    {
        ThreadPool::ScopedSerial serial;
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        int calls = 0;
        pool.parallelFor(0, 10000, 1,
                         [&](int64_t, int64_t) { ++calls; });
        EXPECT_EQ(calls, 1);
    }
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

/** The guard is process-wide: while it lives on this thread, a
 * parallelFor started on another thread (a serving dispatcher, say)
 * runs all its chunks inline on that thread. */
TEST(ThreadPool, ScopedSerialReachesOtherThreads)
{
    ThreadPool pool(4);
    ThreadPool::ScopedSerial serial;
    std::mutex mu;
    std::vector<std::thread::id> ran;
    std::thread::id caller;
    std::thread other([&] {
        caller = std::this_thread::get_id();
        pool.parallelFor(0, 10000, 1, [&](int64_t, int64_t) {
            std::lock_guard<std::mutex> lk(mu);
            ran.push_back(std::this_thread::get_id());
        });
    });
    other.join();
    ASSERT_EQ(ran.size(), 1u);
    EXPECT_EQ(ran[0], caller);
}

TEST(ThreadPool, SingleThreadPoolAlwaysInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    int calls = 0;
    pool.parallelFor(0, 100000, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EnvThreadCountIsPositive)
{
    // Whatever the environment says, the result must be usable.
    EXPECT_GE(ThreadPool::envThreadCount(), 1);
    EXPECT_GE(ThreadPool::global().threads(), 1);
}

TEST(ThreadPool, ConcurrentTopLevelCallsFromWorkers)
{
    // Two pools at once: tasks of an outer pool issuing parallelFor
    // on the global pool; the global pool treats those as top-level
    // (they are not ITS workers)... they ARE marked in-region by the
    // outer pool's depth guard, so they run inline — either way this
    // must complete and cover everything.
    ThreadPool outer(3);
    std::vector<std::atomic<int>> hits(300);
    for (auto &h : hits)
        h = 0;
    outer.parallelFor(0, 3, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
            ThreadPool::global().parallelFor(
                c * 100, (c + 1) * 100, 1, [&](int64_t ilo, int64_t ihi) {
                    for (int64_t i = ilo; i < ihi; ++i)
                        hits[static_cast<size_t>(i)].fetch_add(1);
                });
        }
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

} // namespace
} // namespace twoinone

/**
 * @file
 * Finely sharded MPMC request queue feeding the async serving
 * front-end (serve/server.hh).
 *
 * Producers (request threads calling Server::submit) are spread over
 * S independent mutex-guarded shards by an atomic round-robin ticket,
 * so under multi-producer load the shards' locks are contended 1/S as
 * often as a single queue lock would be. Every pushed request carries
 * a globally ordered sequence number drawn from one atomic counter;
 * consumers always pop the lowest-sequence head across the shards, so
 * the queue is FIFO in submission order even though the storage is
 * sharded — which is what makes batch composition follow the
 * submission order whenever submissions are ordered.
 *
 * Consumers serialize on a dedicated pop mutex (the dispatcher is the
 * only steady-state consumer; the lock exists so shutdown paths and
 * future multi-dispatcher configurations stay correct), while
 * producers keep their sharded fast path. Capacity is enforced with
 * an atomic size counter: tryPush refuses when full, which is the
 * admission-control point — the Server turns that refusal into a
 * counted ServeError shed instead of queueing unbounded backlog.
 */

#ifndef TWOINONE_SERVE_REQUEST_QUEUE_HH
#define TWOINONE_SERVE_REQUEST_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "tensor/tensor.hh"

namespace twoinone {
namespace serve {

/** A completed request: logits plus the serving metadata callers need
 * to audit the RPS defense (which precision served the batch) and
 * their latency budget. Delivered through a std::future; a shed or
 * cancelled request delivers a serve::ServeError exception instead. */
struct Reply
{
    Tensor y;            ///< logits, one row per submitted image
    int precision = 0;   ///< the batch's sampled precision (0 = fp)
    double latencyUs = 0.0; ///< submit -> completion on the server clock
};

/** One queued request (internal to the Server). */
struct AsyncRequest
{
    uint64_t seq = 0;       ///< global FIFO order
    int tenant = -1;        ///< owning tenant id
    Tensor x;               ///< input rows
    uint64_t arrivalNs = 0; ///< clock time at admission
    uint64_t deadlineNs = 0;///< absolute expiry; 0 = no deadline
    std::promise<Reply> promise;
};

/**
 * Bounded sharded MPMC FIFO of AsyncRequests. push is sharded
 * (multi-producer fast path); pop serializes consumers and returns
 * requests in global sequence order.
 */
class RequestQueue
{
  public:
    /**
     * @param shards Independent producer shards (clamped to >= 1).
     * @param capacity Max queued requests before tryPush refuses.
     */
    RequestQueue(int shards, size_t capacity);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Enqueue @p r (its seq is assigned here). Returns false — and
     * leaves @p r intact for the caller to shed — when the queue is
     * at capacity.
     */
    bool tryPush(AsyncRequest &r);

    /**
     * Pop the lowest-sequence queued request into @p out. Returns
     * false when the queue is empty.
     */
    bool pop(AsyncRequest &out);

    /** Requests currently queued. */
    size_t size() const
    {
        return size_.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }

    size_t capacity() const { return capacity_; }
    int shards() const { return static_cast<int>(shards_.size()); }

  private:
    struct alignas(64) Shard
    {
        std::mutex mu;
        std::deque<AsyncRequest> q;
    };

    std::vector<std::unique_ptr<Shard>> shards_;
    size_t capacity_;
    std::atomic<uint64_t> ticket_{0}; ///< producer shard round-robin
    std::atomic<uint64_t> seq_{0};    ///< global FIFO order
    std::atomic<size_t> size_{0};
    std::mutex popMu_; ///< consumers serialize (see file comment)
};

} // namespace serve
} // namespace twoinone

#endif // TWOINONE_SERVE_REQUEST_QUEUE_HH

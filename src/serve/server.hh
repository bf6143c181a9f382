/**
 * @file
 * serve::Server — the asynchronous, deadline-aware, multi-tenant
 * serving front-end, and the only one: every batched serve runs here.
 *
 * The Server runs a real event loop: producers submit from any thread
 * into a finely sharded MPMC RequestQueue per tenant (admission
 * control: a full queue sheds at submit with ServeError), and one
 * dispatcher thread forms serving batches with arrival-time adaptive
 * micro-batching — a batch closes when the next whole request would
 * overflow maxBatch (*size*) or when its oldest request has waited
 * maxBatchDelayUs (*age*), whichever comes first. Before a batch
 * computes, requests whose deadline already expired are shed (their
 * futures deliver ServeError; compute is never wasted on them). Each
 * closed batch draws one random precision from the tenant's seeded
 * stream (the paper's RPS defense), installs it through the shared
 * per-model RpsEngine in O(#layers), and executes on the shared
 * BatchExecutor, sharding micro-batches across the global ThreadPool.
 *
 * Multi-tenancy: many twoinone::Sessions register as tenants. Tenants
 * of the same model share one BatchExecutor and one RpsEngine (plan
 * replicas and weight-code caches are per model, not per tenant —
 * closing the PR 5 Session::attach fresh-engine follow-up), while
 * keeping their own queues, precision streams, traces, and stats.
 * The dispatcher schedules fairly: one closed batch per tenant turn,
 * round-robin over tenants with runnable work, so a backlogged tenant
 * cannot starve the others.
 *
 * Determinism: all timing decisions (age close, deadlines, latency
 * stamps) read the injected common/clock.hh Clock. Under a frozen
 * ManualClock batches close only on size or flush(), which makes
 * batch composition — and therefore precision traces and served
 * logits — a pure function of the submission order. The same holds
 * on a real clock for a Server started paused: submit, then flush()
 * packs the backlog whole request by whole request, in submission
 * order (pinned in tests/test_server.cc). Serial execution is a
 * ThreadPool::ScopedSerial guard held around flush(): the guard is
 * process-wide, so it reaches the dispatcher thread.
 */

#ifndef TWOINONE_SERVE_SERVER_HH
#define TWOINONE_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "serve/request_queue.hh"
#include "serve/runtime.hh"

namespace twoinone {

class Session;

namespace serve {

/** How the dispatcher picks the next closed batch among tenants. */
enum class SchedulingPolicy
{
    /** One batch per tenant turn, cursor scan — a backlogged tenant
     * cannot starve the others. The default; batch composition is
     * bit-identical to servers predating the policy knob. */
    RoundRobin,
    /** Serve the closeable batch whose most urgent pending request
     * has the earliest absolute deadline (requests without a
     * deadline sort last; ties go to the lowest tenant id). Trades
     * strict fairness for tail latency under deadline pressure —
     * the policy the serving autotuner searches over. */
    EarliestDeadlineFirst,
};

/** Policy name for reports/journals. */
const char *schedulingPolicyName(SchedulingPolicy p);

/** Async front-end configuration (per Server; batch geometry and the
 * precision seed come from each tenant session's ServeConfig). */
struct ServerConfig
{
    /** Admission bound: requests queued per tenant before submit
     * sheds with ServeError. */
    int queueCapacity = 1024;
    /** Age close: a non-empty batch whose oldest request has waited
     * this long is served even when not full. <= 0 disables age
     * closing — partial batches then wait for size or flush(). */
    double maxBatchDelayUs = 1000.0;
    /** Deadline applied to requests submitted without an explicit
     * one; 0 = no deadline. */
    uint64_t defaultDeadlineUs = 0;
    /** Start with the dispatcher paused (tests build backlog first,
     * then resume()). */
    bool startPaused = false;
    /** Time source for age/deadline/latency decisions; null = the
     * process SteadyClock. A ManualClock makes every batching and
     * shedding decision deterministic. */
    const Clock *clock = nullptr;
    /** Batch-picking policy across tenants. When the first tenant's
     * session carries a tuning artifact, addTenant replaces this and
     * maxBatchDelayUs with the artifact's server-scoped knobs, before
     * any batch forms. */
    SchedulingPolicy policy = SchedulingPolicy::RoundRobin;
};

/**
 * The multi-tenant async server. Movable-nothing (owns a thread).
 */
class Server
{
  public:
    using TenantId = int;

    explicit Server(ServerConfig cfg = ServerConfig());

    /** Stops the dispatcher and sheds any in-flight requests. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Register @p session as a tenant. Tenants on the same Network
     * must share the same RpsEngine (Session::attach has a shared-
     * engine overload) — the first tenant of a model compiles the
     * shared BatchExecutor from its session's serving config, and
     * @p input_shape (or the session's configured inputShape) fixes
     * the request geometry.
     */
    TenantId addTenant(Session &session,
                       const std::vector<int> &input_shape = {});

    /**
     * Submit a request of x.dim(0) images for @p tenant from any
     * thread. Returns a future delivering the logits, the batch's
     * sampled precision, and the request latency. Throws ServeError
     * — and counts it — when the request is malformed (rejected) or
     * the tenant's admission queue is full (shed). @p deadline_us
     * (relative to now; 0 = the config default) sheds the request
     * without computing it if a batch cannot start by then; the shed
     * is delivered through the future as ServeError.
     */
    std::future<Reply> submit(TenantId tenant, Tensor x,
                              uint64_t deadline_us = 0);

    /**
     * Serve everything admitted so far and block until every
     * in-flight request has completed or been shed. Partial batches
     * are closed once their queue is empty (overrides the age timer
     * and a paused dispatcher).
     */
    void flush();

    /** Suspend batch formation (admission stays open). */
    void pause();
    /** Resume batch formation. */
    void resume();

    /**
     * Stop the dispatcher; every request not yet served is shed with
     * ServeError. Idempotent; also run by the destructor.
     */
    void stop();

    /** The effective configuration (after any tuning adoption at the
     * first addTenant — see ServerConfig::policy). */
    ServerConfig config() const;

    /** Aggregate stats over all tenants. */
    ServeStats stats() const;
    /** One tenant's stats. */
    ServeStats tenantStats(TenantId tenant) const;

    /**
     * Precisions sampled so far for @p tenant, one per served batch.
     * Read it quiesced (after flush()/pause()/stop()) — the
     * dispatcher appends concurrently while running.
     */
    const std::vector<int> &precisionTrace(TenantId tenant) const;

    /**
     * Tenant ids in batch-completion order (fair-scheduling
     * observability; same quiescence contract as precisionTrace).
     */
    const std::vector<TenantId> &batchLog() const { return batchLog_; }

    /** Requests currently queued for @p tenant (excludes the batch
     * being formed). */
    size_t queued(TenantId tenant) const;

    int numTenants() const;

  private:
    /** Tenants of one model share the executor + engine. */
    struct ModelGroup
    {
        Network *net = nullptr;
        RpsEngine *engine = nullptr;
        std::unique_ptr<BatchExecutor> exec;
    };

    struct Tenant
    {
        Session *session = nullptr;
        ModelGroup *group = nullptr;
        std::unique_ptr<RequestQueue> queue;
        /** Head request that did not fit the forming batch. */
        std::optional<AsyncRequest> stash;
        /** The forming (not yet closed) batch. */
        std::vector<AsyncRequest> pending;
        int pendingRows = 0;
        Rng rng{0};
        std::vector<int> trace;
        // Stats (guarded by mu_).
        uint64_t requests = 0, rows = 0, batches = 0;
        uint64_t rejected = 0, shed = 0;
        double wallSeconds = 0.0;
        QuantileSketch latencyUs;
    };

    void dispatchLoop();
    /** Move queued requests into @p t's forming batch (whole-request
     * packing: a request that does not fit waits for the next
     * batch). */
    void fillPending(Tenant &t);
    /** Whether @p t's forming batch must be served now. */
    bool closeable(const Tenant &t, uint64_t now_ns) const;
    /** Earliest absolute deadline among @p t's pending requests
     * (UINT64_MAX when none carries a deadline) — the EDF sort key. */
    static uint64_t earliestDeadlineNs(const Tenant &t);
    /** Serve one closed batch (called with mu_ *unlocked*). */
    void executeBatch(Tenant &t, int tenant_id,
                      std::vector<AsyncRequest> batch);
    /** Shed one request with @p why (fulfils its promise). */
    static void shedRequest(AsyncRequest &r, const std::string &why);

    ServerConfig cfg_;
    const Clock *clock_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<ModelGroup>> groups_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::vector<TenantId> batchLog_;
    size_t cursor_ = 0; ///< fair-scheduling round-robin position
    uint64_t inFlight_ = 0; ///< admitted, not yet completed/shed
    bool paused_ = false;
    bool flushing_ = false;
    bool stop_ = false;
    bool stopped_ = false;
    std::thread dispatcher_;
};

} // namespace serve
} // namespace twoinone

#endif // TWOINONE_SERVE_SERVER_HH

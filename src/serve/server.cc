/**
 * @file
 * serve::Server implementation — the dispatcher event loop.
 *
 * Locking: mu_ guards tenant registration, pending batches, stats,
 * and the pause/flush/stop flags; each RequestQueue carries its own
 * internal locks. submit never holds a queue lock while waiting for
 * mu_ (tryPush releases the shard lock before the stats update), so
 * the dispatcher may pop queues while holding mu_ without a lock-
 * order cycle. Batch compute runs with mu_ *released* — producers
 * keep admitting while a batch executes.
 */

#include "serve/server.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "serve/session.hh"

namespace twoinone {
namespace serve {

namespace {

using WClock = std::chrono::steady_clock;

/** Producer shards per tenant queue. */
constexpr int kQueueShards = 4;

/** Dispatcher idle re-check period (real microseconds). Purely a
 * liveness bound — with a ManualClock it bounds how long the
 * dispatcher takes to *notice* an advanced clock, never what it
 * decides. */
constexpr int kIdlePollUs = 100;

} // namespace

const char *
schedulingPolicyName(SchedulingPolicy p)
{
    switch (p) {
      case SchedulingPolicy::RoundRobin: return "round_robin";
      case SchedulingPolicy::EarliestDeadlineFirst: return "edf";
    }
    TWOINONE_PANIC("unknown SchedulingPolicy");
}

Server::Server(ServerConfig cfg)
    : cfg_(cfg), clock_(cfg.clock != nullptr
                            ? cfg.clock
                            : &SteadyClock::instance())
{
    TWOINONE_ASSERT(cfg_.queueCapacity > 0,
                    "server needs a positive admission capacity");
    paused_ = cfg_.startPaused;
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

Server::~Server()
{
    stop();
}

Server::TenantId
Server::addTenant(Session &session, const std::vector<int> &input_shape)
{
    std::vector<int> shape =
        input_shape.empty() ? session.config().inputShape : input_shape;
    TWOINONE_ASSERT(!shape.empty(),
                    "async tenants need an explicit request image "
                    "shape (SessionConfig::inputShape or the "
                    "addTenant argument)");

    std::lock_guard<std::mutex> lk(mu_);
    // Server-scoped autotuner knobs ride in on the first tenant whose
    // checkpoint carried a tuning artifact (the session-scoped knobs
    // were already applied to its ServeConfig at load). Adopted
    // before any batch forms — later tenants never flip policy
    // mid-stream.
    if (tenants_.empty() && session.tuningArtifact() != nullptr) {
        const tune::TuningArtifact &a = *session.tuningArtifact();
        cfg_.maxBatchDelayUs = a.genome.maxDelayUs;
        cfg_.policy = a.genome.policy == 1
                          ? SchedulingPolicy::EarliestDeadlineFirst
                          : SchedulingPolicy::RoundRobin;
    }
    ModelGroup *group = nullptr;
    for (auto &g : groups_) {
        if (g->net == &session.network()) {
            group = g.get();
            break;
        }
    }
    if (group == nullptr) {
        // First tenant of this model: its session's serving config
        // fixes the model's batch geometry and datapath.
        auto g = std::make_unique<ModelGroup>();
        g->net = &session.network();
        g->engine = &session.engine();
        g->exec = std::make_unique<BatchExecutor>(
            *g->net, *g->engine, shape, session.config().serving);
        group = g.get();
        groups_.push_back(std::move(g));
    } else {
        // Tenants of one model must share its engine: two engines
        // over one network would fight over the installed precision
        // and duplicate the weight-code cache.
        TWOINONE_ASSERT(&session.engine() == group->engine,
                        "tenants of one model must share its "
                        "RpsEngine — use Session::attach(net, "
                        "engine)");
        TWOINONE_ASSERT(shape == std::vector<int>(
                                     group->exec->rowShape().begin() + 1,
                                     group->exec->rowShape().end()),
                        "tenants of one model must share its request "
                        "image shape");
    }

    auto t = std::make_unique<Tenant>();
    t->session = &session;
    t->group = group;
    t->queue = std::make_unique<RequestQueue>(
        kQueueShards, static_cast<size_t>(cfg_.queueCapacity));
    t->rng = Rng(session.config().serving.seed);
    tenants_.push_back(std::move(t));
    return static_cast<TenantId>(tenants_.size() - 1);
}

std::future<Reply>
Server::submit(TenantId tenant, Tensor x, uint64_t deadline_us)
{
    // Fetch the tenant under mu_ (addTenant may grow the vector);
    // the Tenant object itself is heap-stable.
    Tenant *tp = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        TWOINONE_ASSERT(
            tenant >= 0 &&
                static_cast<size_t>(tenant) < tenants_.size(),
            "unknown tenant id ", tenant);
        tp = tenants_[static_cast<size_t>(tenant)].get();
    }
    Tenant &t = *tp;

    // Malformed requests are caller data, not library bugs: reject,
    // count, keep serving.
    try {
        t.group->exec->validate(x);
    } catch (const ServeError &) {
        std::lock_guard<std::mutex> lk(mu_);
        ++t.rejected;
        throw;
    }

    AsyncRequest r;
    r.tenant = tenant;
    r.x = std::move(x);
    r.arrivalNs = clock_->nowNs();
    uint64_t budget =
        deadline_us != 0 ? deadline_us : cfg_.defaultDeadlineUs;
    r.deadlineNs = budget != 0 ? r.arrivalNs + budget * 1000 : 0;
    std::future<Reply> fut = r.promise.get_future();

    // Count the request in flight *before* it becomes poppable — the
    // dispatcher may serve it (and decrement) the instant it lands.
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_)
            throw ServeError("submit on a stopped server");
        ++inFlight_;
    }
    if (!t.queue->tryPush(r)) {
        // Admission control: the tenant's backlog is at capacity.
        // Shed here, at the cheapest possible point — before the
        // request ever occupies queue memory.
        std::lock_guard<std::mutex> lk(mu_);
        --inFlight_;
        ++t.shed;
        cv_.notify_all();
        throw ServeError(formatMessage(
            "shed at admission: tenant ", tenant, " queue is at "
            "capacity (", t.queue->capacity(), ")"));
    }
    cv_.notify_all();
    return fut;
}

void
Server::fillPending(Tenant &t)
{
    int cap = t.group->exec->maxBatch();
    if (t.stash.has_value()) {
        if (t.pendingRows + t.stash->x.dim(0) > cap)
            return;
        t.pendingRows += t.stash->x.dim(0);
        t.pending.push_back(std::move(*t.stash));
        t.stash.reset();
    }
    AsyncRequest r;
    while (t.queue->pop(r)) {
        if (t.pendingRows + r.x.dim(0) > cap) {
            t.stash = std::move(r);
            return;
        }
        t.pendingRows += r.x.dim(0);
        t.pending.push_back(std::move(r));
    }
}

uint64_t
Server::earliestDeadlineNs(const Tenant &t)
{
    uint64_t best = UINT64_MAX;
    for (const AsyncRequest &r : t.pending)
        if (r.deadlineNs != 0 && r.deadlineNs < best)
            best = r.deadlineNs;
    return best;
}

bool
Server::closeable(const Tenant &t, uint64_t now_ns) const
{
    if (t.pending.empty())
        return false;
    // Size close: full, or the stashed head request does not fit —
    // whole-request packing.
    if (t.pendingRows >= t.group->exec->maxBatch() ||
        t.stash.has_value())
        return true;
    // Flush close: nothing more is coming; serve the partial batch.
    if (flushing_ && !t.stash.has_value() && t.queue->empty())
        return true;
    // Age close: the oldest request has waited out the batch delay
    // (disabled entirely at <= 0 — partial batches then wait for
    // size or flush, the fully clock-independent configuration).
    if (cfg_.maxBatchDelayUs <= 0.0)
        return false;
    uint64_t oldest = t.pending.front().arrivalNs;
    uint64_t delay_ns =
        static_cast<uint64_t>(cfg_.maxBatchDelayUs * 1000.0);
    return now_ns >= oldest + delay_ns;
}

void
Server::dispatchLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        if (paused_ && !flushing_) {
            cv_.wait(lk, [this] {
                return stop_ || !paused_ || flushing_;
            });
            continue;
        }
        uint64_t now = clock_->nowNs();

        int picked = -1;
        if (cfg_.policy == SchedulingPolicy::EarliestDeadlineFirst) {
            // Deadline scheduling: fill every tenant, then serve the
            // closeable batch whose most urgent pending request has
            // the earliest absolute deadline. No deadline sorts last
            // (UINT64_MAX); ties break to the lowest tenant id, so
            // the pick order is deterministic under a ManualClock.
            uint64_t best = UINT64_MAX;
            for (size_t id = 0; id < tenants_.size(); ++id) {
                Tenant &t = *tenants_[id];
                fillPending(t);
                if (!closeable(t, now))
                    continue;
                uint64_t key = earliestDeadlineNs(t);
                if (picked < 0 || key < best) {
                    picked = static_cast<int>(id);
                    best = key;
                }
            }
        } else {
            // Fair scheduling: scan tenants round-robin from the
            // cursor, serving at most one closed batch per turn so a
            // backlogged tenant cannot starve the others.
            for (size_t i = 0; i < tenants_.size(); ++i) {
                size_t id = (cursor_ + i) % tenants_.size();
                Tenant &t = *tenants_[id];
                fillPending(t);
                if (closeable(t, now)) {
                    picked = static_cast<int>(id);
                    break;
                }
            }
        }
        if (picked < 0) {
            // Nothing closeable: idle until a submit lands or (real)
            // time passes. The poll bounds how late an age close or a
            // ManualClock advance is noticed; batching *decisions*
            // only ever read clock_.
            cv_.wait_for(lk,
                         std::chrono::microseconds(kIdlePollUs));
            continue;
        }

        Tenant *t = tenants_[static_cast<size_t>(picked)].get();
        std::vector<AsyncRequest> batch = std::move(t->pending);
        t->pending.clear();
        t->pendingRows = 0;
        cursor_ = (static_cast<size_t>(picked) + 1) % tenants_.size();

        lk.unlock();
        executeBatch(*t, picked, std::move(batch));
        lk.lock();
        if (inFlight_ == 0)
            cv_.notify_all(); // flush() waiters
    }
}

void
Server::shedRequest(AsyncRequest &r, const std::string &why)
{
    r.promise.set_exception(
        std::make_exception_ptr(ServeError(why)));
}

void
Server::executeBatch(Tenant &t, int tenant_id,
                     std::vector<AsyncRequest> batch)
{
    BatchExecutor &exec = *t.group->exec;

    // Deadline shed before compute: a request that already expired
    // gets ServeError through its future instead of wasting a slot in
    // the batch.
    uint64_t now = clock_->nowNs();
    size_t kept = 0, expired = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        AsyncRequest &r = batch[i];
        if (r.deadlineNs != 0 && now > r.deadlineNs) {
            shedRequest(r, formatMessage(
                "deadline expired: request waited ",
                (now - r.arrivalNs) / 1000, "us, budget was ",
                (r.deadlineNs - r.arrivalNs) / 1000, "us"));
            ++expired;
            continue;
        }
        if (kept != i)
            batch[kept] = std::move(r);
        ++kept;
    }
    batch.resize(kept);
    if (expired > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        t.shed += expired;
        inFlight_ -= expired;
    }
    if (batch.empty())
        return;

    WClock::time_point wall_start = WClock::now();

    // One precision draw per serving batch (paper Alg. 1 line 16)
    // from the tenant's own seeded stream, installed through the
    // model's shared code cache.
    int bits = exec.samplePrecision(t.rng);
    exec.installPrecision(bits);

    // Gather/scatter tables pointing straight at the request inputs
    // and the per-request reply tensors.
    size_t row_elems = exec.rowElems();
    size_t out_cols = exec.outCols();
    int rows = 0;
    for (const auto &r : batch)
        rows += r.x.dim(0);
    std::vector<Tensor> replies(batch.size());
    std::vector<const float *> src(static_cast<size_t>(rows));
    std::vector<float *> dst(static_cast<size_t>(rows));
    {
        size_t row = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
            int n = batch[i].x.dim(0);
            replies[i].ensure({n, static_cast<int>(out_cols)});
            for (int j = 0; j < n; ++j) {
                src[row] = batch[i].x.data() +
                           static_cast<size_t>(j) * row_elems;
                dst[row] = replies[i].data() +
                           static_cast<size_t>(j) * out_cols;
                ++row;
            }
        }
    }

    exec.execute(src.data(), dst.data(), rows);

    uint64_t done = clock_->nowNs();
    double wall = std::chrono::duration<double>(WClock::now() -
                                                wall_start)
                      .count();

    std::vector<double> latencies(batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
        latencies[i] =
            static_cast<double>(done - batch[i].arrivalNs) / 1000.0;

    // Record the batch before fulfilling its promises: a caller woken
    // by future.get() must observe this batch in stats()/traces.
    {
        std::lock_guard<std::mutex> lk(mu_);
        t.trace.push_back(bits);
        batchLog_.push_back(tenant_id);
        t.requests += batch.size();
        t.rows += static_cast<uint64_t>(rows);
        t.batches += 1;
        t.wallSeconds += wall;
        for (double l : latencies)
            t.latencyUs.add(l);
    }

    for (size_t i = 0; i < batch.size(); ++i) {
        Reply reply;
        reply.y = std::move(replies[i]);
        reply.precision = bits;
        reply.latencyUs = latencies[i];
        batch[i].promise.set_value(std::move(reply));
    }

    // inFlight_ drops only after the promises are fulfilled, so a
    // flush() return guarantees every future is ready.
    std::lock_guard<std::mutex> lk(mu_);
    inFlight_ -= batch.size();
}

void
Server::flush()
{
    std::unique_lock<std::mutex> lk(mu_);
    if (stopped_)
        return;
    flushing_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return inFlight_ == 0 || stopped_; });
    flushing_ = false;
}

void
Server::pause()
{
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = true;
}

void
Server::resume()
{
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
    cv_.notify_all();
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopped_)
            return;
        stop_ = true;
        cv_.notify_all();
    }
    dispatcher_.join();

    // Shed everything still in flight: forming batches, stashed
    // heads, queued requests. Their futures deliver ServeError.
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &tp : tenants_) {
        Tenant &t = *tp;
        uint64_t dropped = 0;
        for (auto &r : t.pending) {
            shedRequest(r, "server stopped before the request was "
                           "served");
            ++dropped;
        }
        t.pending.clear();
        t.pendingRows = 0;
        if (t.stash.has_value()) {
            shedRequest(*t.stash, "server stopped before the request "
                                  "was served");
            t.stash.reset();
            ++dropped;
        }
        AsyncRequest r;
        while (t.queue->pop(r)) {
            shedRequest(r, "server stopped before the request was "
                           "served");
            ++dropped;
        }
        t.shed += dropped;
        inFlight_ -= dropped;
    }
    stopped_ = true;
    cv_.notify_all();
}

ServerConfig
Server::config() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cfg_;
}

ServeStats
Server::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServeStats s;
    for (const auto &tp : tenants_) {
        const Tenant &t = *tp;
        s.requests += t.requests;
        s.rows += t.rows;
        s.batches += t.batches;
        s.rejected += t.rejected;
        s.shed += t.shed;
        s.wallSeconds += t.wallSeconds;
    }
    // QuantileSketch has no merge, so the aggregate reports the max
    // per-tenant quantile — a conservative (pessimistic) tail bound.
    for (const auto &tp : tenants_) {
        s.p50Us = std::max(s.p50Us, tp->latencyUs.quantile(0.5));
        s.p99Us = std::max(s.p99Us, tp->latencyUs.quantile(0.99));
        s.p999Us = std::max(s.p999Us, tp->latencyUs.quantile(0.999));
    }
    s.qps = s.wallSeconds > 0.0
                ? static_cast<double>(s.rows) / s.wallSeconds
                : 0.0;
    return s;
}

ServeStats
Server::tenantStats(TenantId tenant) const
{
    std::lock_guard<std::mutex> lk(mu_);
    TWOINONE_ASSERT(tenant >= 0 &&
                        static_cast<size_t>(tenant) < tenants_.size(),
                    "unknown tenant id ", tenant);
    const Tenant &t = *tenants_[static_cast<size_t>(tenant)];
    ServeStats s;
    s.requests = t.requests;
    s.rows = t.rows;
    s.batches = t.batches;
    s.rejected = t.rejected;
    s.shed = t.shed;
    s.wallSeconds = t.wallSeconds;
    s.qps = s.wallSeconds > 0.0
                ? static_cast<double>(s.rows) / s.wallSeconds
                : 0.0;
    s.p50Us = t.latencyUs.quantile(0.5);
    s.p99Us = t.latencyUs.quantile(0.99);
    s.p999Us = t.latencyUs.quantile(0.999);
    return s;
}

const std::vector<int> &
Server::precisionTrace(TenantId tenant) const
{
    TWOINONE_ASSERT(tenant >= 0 &&
                        static_cast<size_t>(tenant) < tenants_.size(),
                    "unknown tenant id ", tenant);
    return tenants_[static_cast<size_t>(tenant)]->trace;
}

size_t
Server::queued(TenantId tenant) const
{
    TWOINONE_ASSERT(tenant >= 0 &&
                        static_cast<size_t>(tenant) < tenants_.size(),
                    "unknown tenant id ", tenant);
    return tenants_[static_cast<size_t>(tenant)]->queue->size();
}

int
Server::numTenants() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<int>(tenants_.size());
}

} // namespace serve
} // namespace twoinone

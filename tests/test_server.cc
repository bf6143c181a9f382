/**
 * @file
 * Tests for the asynchronous multi-tenant serving front-end
 * (serve/server.hh): adaptive micro-batch closing (size vs age vs
 * flush), deadline load shedding before compute, admission control,
 * malformed-request rejection, fair round-robin scheduling across
 * tenants, whole-request packing, bit-identity with the engine's
 * per-layer reference forward at every candidate precision, seeded
 * precision draws (also with flush() under ScopedSerial), clean
 * shutdown with in-flight requests, and a multi-producer submit
 * hammer. Every batching decision runs against an injected
 * ManualClock, so the asserted quantities are deterministic —
 * including under the TWOINONE_THREADS=1/4 and TWOINONE_BACKEND=naive
 * ctest matrix and under TSan.
 */

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "common/clock.hh"
#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/server.hh"
#include "serve/session.hh"

namespace twoinone {
namespace {

Network
makeTinyNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 4;
    return convNetTiny(cfg, rng);
}

Tensor
makeInput(uint64_t seed, int batch = 4)
{
    Rng rng(seed);
    return Tensor::uniform({batch, 3, 8, 8}, rng, 0.0f, 1.0f);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " i=" << i;
}

SessionConfig
tenantConfig(uint64_t seed, int max_batch = 8, int micro_batch = 4)
{
    SessionConfig cfg;
    cfg.serving.maxBatch = max_batch;
    cfg.serving.microBatch = micro_batch;
    cfg.serving.seed = seed;
    cfg.serving.lazyPlanWarmup = true;
    cfg.inputShape = {3, 8, 8};
    return cfg;
}

/** A frozen clock + paused start make batch composition a pure
 * function of the submission order. */
serve::ServerConfig
frozenConfig(const ManualClock &clock, double delay_us = 0.0)
{
    serve::ServerConfig sc;
    sc.clock = &clock;
    sc.maxBatchDelayUs = delay_us;
    sc.startPaused = true;
    return sc;
}

/** With the clock frozen and age close armed, nothing closes until
 * the clock moves — and then everything pending serves as ONE batch:
 * a premature per-request close would show up as extra batches (and
 * differing per-batch precision draws). */
TEST(Server, ClosesOnAgeOnlyWhenTheClockSaysSo)
{
    Network net = makeTinyNet(11);
    ManualClock clock;
    serve::Server server(frozenConfig(clock, /*delay_us=*/100.0));
    Session session = Session::attach(net, tenantConfig(21));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> f1 =
        server.submit(tenant, makeInput(1, 2));
    std::future<serve::Reply> f2 =
        server.submit(tenant, makeInput(2, 2));

    // 4 of 8 rows pending: under the frozen clock this batch can only
    // close on age, and the clock has not moved yet.
    clock.advanceUs(101);
    server.resume();

    serve::Reply r1 = f1.get();
    serve::Reply r2 = f2.get();
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.rows, 4u);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(r1.precision, r2.precision); // one draw for the batch
    server.stop();
}

/** A full batch closes on size with the clock frozen at zero — age
 * never fires, yet the requests serve. */
TEST(Server, ClosesOnSizeWithoutAnyClockMovement)
{
    Network net = makeTinyNet(12);
    ManualClock clock;
    serve::Server server(frozenConfig(clock, /*delay_us=*/1000.0));
    Session session = Session::attach(net, tenantConfig(22));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> f1 =
        server.submit(tenant, makeInput(3, 4));
    std::future<serve::Reply> f2 =
        server.submit(tenant, makeInput(4, 4));
    server.resume();

    f1.get();
    f2.get();
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.batches, 1u); // 4 + 4 = maxBatch: one size close
    EXPECT_EQ(s.rows, 8u);
    server.stop();
}

/** An expired deadline sheds the request before compute: the future
 * delivers ServeError, no precision is drawn for it, and the shed is
 * counted. */
TEST(Server, DeadlineExpiryShedsBeforeCompute)
{
    Network net = makeTinyNet(13);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(23));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> doomed =
        server.submit(tenant, makeInput(5, 2), /*deadline_us=*/100);
    clock.advanceUs(200); // past the deadline before any batch forms
    server.resume();
    server.flush();

    EXPECT_THROW(doomed.get(), serve::ServeError);
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.batches, 0u); // the batch emptied: no compute, no draw
    EXPECT_TRUE(server.precisionTrace(tenant).empty());

    // The server keeps serving after the shed.
    std::future<serve::Reply> ok =
        server.submit(tenant, makeInput(6, 2), /*deadline_us=*/100);
    server.flush();
    EXPECT_EQ(ok.get().y.dim(0), 2);
    server.stop();
}

/** A full admission queue sheds at submit() with ServeError — counted,
 * and the queued requests still serve. */
TEST(Server, AdmissionControlShedsWhenQueueIsFull)
{
    Network net = makeTinyNet(14);
    ManualClock clock;
    serve::ServerConfig sc = frozenConfig(clock);
    sc.queueCapacity = 3;
    serve::Server server(sc);
    Session session = Session::attach(net, tenantConfig(24));
    int tenant = server.addTenant(session);

    std::vector<std::future<serve::Reply>> admitted;
    int sheds = 0;
    for (int i = 0; i < 5; ++i) {
        try {
            admitted.push_back(
                server.submit(tenant, makeInput(100 + i, 2)));
        } catch (const serve::ServeError &) {
            ++sheds;
        }
    }
    EXPECT_EQ(sheds, 2);
    EXPECT_EQ(server.stats().shed, 2u);

    server.resume();
    server.flush();
    for (auto &f : admitted)
        EXPECT_EQ(f.get().y.dim(0), 2);
    EXPECT_EQ(server.stats().rows, 6u);
    server.stop();
}

/** Malformed requests — wrong rank, wrong image shape, more rows than
 * maxBatch — are rejected synchronously at submit with ServeError and
 * counted, and the well-formed traffic around them serves
 * bit-identically to an undisturbed run. */
TEST(Server, MalformedRequestsRejectedWithoutDisruption)
{
    Network net = makeTinyNet(15);
    RpsEngine engine(net);
    std::vector<Tensor> good;
    for (int i = 0; i < 4; ++i)
        good.push_back(makeInput(7 + i));

    struct Run
    {
        std::vector<Tensor> y;
        std::vector<int> trace;
        serve::ServeStats stats;
    };
    auto serve_good = [&](bool with_junk) {
        ManualClock clock;
        serve::Server server(frozenConfig(clock));
        Session session =
            Session::attach(net, engine, tenantConfig(25));
        int tenant = server.addTenant(session);
        std::vector<std::future<serve::Reply>> futs;
        for (size_t i = 0; i < good.size(); ++i) {
            futs.push_back(server.submit(tenant, good[i]));
            if (!with_junk || i != 1)
                continue;
            EXPECT_THROW(server.submit(tenant, Tensor({2, 3}, 0.5f)),
                         serve::ServeError); // wrong rank
            EXPECT_THROW(
                server.submit(tenant, Tensor({2, 3, 8, 9}, 0.5f)),
                serve::ServeError); // wrong image shape
            try {
                server.submit(tenant, makeInput(8, 9)); // rows > 8
                ADD_FAILURE() << "oversized request accepted";
            } catch (const serve::ServeError &e) {
                // The rejection names the offending dimension.
                EXPECT_NE(std::string(e.what()).find("batch"),
                          std::string::npos);
            }
        }
        server.flush();
        Run r;
        for (auto &f : futs)
            r.y.push_back(f.get().y);
        r.trace = server.precisionTrace(tenant);
        r.stats = server.stats();
        server.stop();
        return r;
    };
    Run ref = serve_good(false);
    Run run = serve_good(true);

    EXPECT_EQ(ref.stats.rejected, 0u);
    EXPECT_EQ(run.stats.rejected, 3u);
    EXPECT_EQ(run.stats.shed, 0u);
    EXPECT_EQ(run.stats.requests, good.size());
    EXPECT_EQ(run.stats.rows, 4 * good.size());
    // Same sampled precisions, bit-identical logits.
    EXPECT_EQ(run.trace, ref.trace);
    for (size_t i = 0; i < good.size(); ++i)
        expectBitIdentical(ref.y[i], run.y[i],
                           "req=" + std::to_string(i));
}

/** Round-robin fairness: with both tenants backlogged, batch
 * completions alternate — the heavier tenant cannot starve the
 * lighter one. */
TEST(Server, FairSchedulingAcrossTwoTenants)
{
    Network net = makeTinyNet(16);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));

    // Tenants of one model share its engine.
    Session a = Session::attach(net, tenantConfig(26));
    Session b =
        Session::attach(net, a.engine(), tenantConfig(27));
    int ta = server.addTenant(a);
    int tb = server.addTenant(b);

    // Every request fills a whole batch, so each turn serves exactly
    // one request. A floods; B sends two.
    for (int i = 0; i < 6; ++i)
        server.submit(ta, makeInput(200 + i, 8));
    for (int i = 0; i < 2; ++i)
        server.submit(tb, makeInput(300 + i, 8));
    server.resume();
    server.flush();

    std::vector<int> expected = {ta, tb, ta, tb, ta, ta, ta, ta};
    EXPECT_EQ(server.batchLog(), expected);
    EXPECT_EQ(server.tenantStats(ta).batches, 6u);
    EXPECT_EQ(server.tenantStats(tb).batches, 2u);
    // Per-tenant precision streams are independent and seeded.
    EXPECT_EQ(server.precisionTrace(ta).size(), 6u);
    EXPECT_EQ(server.precisionTrace(tb).size(), 2u);
    server.stop();
}

/** Replies equal the engine's per-layer reference forward at their
 * batch's traced precision — pinned per candidate by serving through
 * single-candidate engines, and across the full rps4to16 set via the
 * seeded sampler. Calibrated static scales make a row's logits
 * independent of the batch it landed in. Mixed request sizes pin
 * whole-request packing: rows {4,3,8,2,5,1,6,7} at maxBatch 8 close
 * as [4,3] [8] [2,5,1] [6] [7]. */
TEST(Server, BitIdenticalToEngineForwardAtEveryCandidate)
{
    const std::vector<int> rows = {4, 3, 8, 2, 5, 1, 6, 7};
    const std::vector<size_t> batch_of = {0, 0, 1, 2, 2, 2, 3, 4};

    Network net = makeTinyNet(17);
    {
        Rng cal_rng(62);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    auto check = [&](RpsEngine &engine, uint64_t seed,
                     const std::string &what) {
        ManualClock clock;
        serve::Server server(frozenConfig(clock));
        Session session =
            Session::attach(net, engine, tenantConfig(seed));
        int tenant = server.addTenant(session);
        std::vector<Tensor> xs;
        std::vector<std::future<serve::Reply>> futs;
        for (size_t i = 0; i < rows.size(); ++i) {
            xs.push_back(makeInput(500 + i, rows[i]));
            futs.push_back(server.submit(tenant, xs.back()));
        }
        server.flush();

        const std::vector<int> trace = server.precisionTrace(tenant);
        ASSERT_EQ(trace.size(), 5u) << what;
        EXPECT_EQ(server.stats().batches, 5u) << what;
        for (int bits : trace)
            EXPECT_TRUE(engine.set().contains(bits)) << what;
        for (size_t i = 0; i < rows.size(); ++i) {
            serve::Reply r = futs[i].get();
            int bits = trace[batch_of[i]];
            EXPECT_EQ(r.precision, bits) << what;
            expectBitIdentical(engine.forwardQuantizedAt(bits, xs[i]),
                               r.y,
                               what + " req=" + std::to_string(i));
        }
        server.stop();
    };

    for (int bits : net.precisionSet().bits()) {
        // A single-candidate engine pins every draw to `bits`.
        RpsEngine engine(net, PrecisionSet({bits}));
        check(engine, 99, "bits=" + std::to_string(bits));
    }
    RpsEngine engine(net);
    check(engine, 4242, "rps");
}

/** Precision sampling is a pure function of the tenant's seed, and the
 * served logits are bit-identical run to run — also when flush() runs
 * under ScopedSerial, whose process-wide guard reaches the dispatcher
 * thread. */
TEST(Server, DeterministicPrecisionSampling)
{
    Network net = makeTinyNet(49);
    RpsEngine engine(net);

    auto run_once = [&](bool serial) {
        ManualClock clock;
        serve::Server server(frozenConfig(clock));
        Session session =
            Session::attach(net, engine, tenantConfig(1234));
        int tenant = server.addTenant(session);
        Rng req_rng(5);
        std::vector<std::future<serve::Reply>> futs;
        for (int i = 0; i < 6; ++i)
            futs.push_back(server.submit(
                tenant,
                Tensor::uniform({4, 3, 8, 8}, req_rng, 0.0f, 1.0f)));
        if (serial) {
            ThreadPool::ScopedSerial guard;
            server.flush();
        } else {
            server.flush();
        }
        std::pair<std::vector<int>, std::vector<Tensor>> out;
        out.first = server.precisionTrace(tenant);
        for (auto &f : futs)
            out.second.push_back(f.get().y);
        server.stop();
        return out;
    };

    auto a = run_once(false);
    auto b = run_once(false);
    auto c = run_once(true); // serial flush: same results, same trace

    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.first, c.first);
    ASSERT_FALSE(a.first.empty());
    for (int bits : a.first)
        EXPECT_TRUE(engine.set().contains(bits));
    for (size_t i = 0; i < a.second.size(); ++i) {
        expectBitIdentical(a.second[i], b.second[i],
                           "rerun req=" + std::to_string(i));
        expectBitIdentical(a.second[i], c.second[i],
                           "serial req=" + std::to_string(i));
    }
}

/** Stopping with requests still queued shed them all through their
 * futures — no hang, no leak (the ASan job runs this binary). */
TEST(Server, ShutdownShedsInFlightRequests)
{
    Network net = makeTinyNet(18);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(28));
    int tenant = server.addTenant(session);

    std::vector<std::future<serve::Reply>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(server.submit(tenant, makeInput(700 + i, 3)));
    server.stop(); // still paused: nothing was served

    for (auto &f : futs)
        EXPECT_THROW(f.get(), serve::ServeError);
    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.shed, 5u);
    EXPECT_EQ(s.requests, 0u);
}

/** Destruction without an explicit stop() sheds the same way. */
TEST(Server, DestructorShedsWithoutExplicitStop)
{
    Network net = makeTinyNet(19);
    ManualClock clock;
    std::vector<std::future<serve::Reply>> futs;
    {
        serve::Server server(frozenConfig(clock));
        Session session = Session::attach(net, tenantConfig(29));
        int tenant = server.addTenant(session);
        for (int i = 0; i < 3; ++i)
            futs.push_back(
                server.submit(tenant, makeInput(800 + i, 2)));
    }
    for (auto &f : futs)
        EXPECT_THROW(f.get(), serve::ServeError);
}

/** Multi-producer hammer: N threads submit M requests each through
 * the sharded queue while the dispatcher serves. Every future
 * completes, nothing is shed or lost, and every reply matches the
 * engine's reference forward at the reply's own precision — correct
 * for any interleaving, deterministic in the counted quantities via
 * the frozen clock. */
TEST(Server, MultiProducerSubmitHammer)
{
    const int kThreads = 4;
    const int kPerThread = 16;

    Network net = makeTinyNet(20);
    {
        // Static activation scales: the per-request reference forward
        // below must not depend on which batch the request landed in.
        Rng cal_rng(61);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    RpsEngine engine(net, net.precisionSet());
    ManualClock clock;
    serve::ServerConfig sc;
    sc.clock = &clock; // frozen: batches close on size/flush only
    sc.maxBatchDelayUs = 0.0;
    sc.queueCapacity = kThreads * kPerThread;
    serve::Server server(sc);
    Session session = Session::attach(net, engine, tenantConfig(30));
    int tenant = server.addTenant(session);

    struct Sent
    {
        Tensor x;
        std::future<serve::Reply> fut;
    };
    std::vector<std::vector<Sent>> sent(
        static_cast<size_t>(kThreads));
    std::vector<std::thread> producers;
    producers.reserve(static_cast<size_t>(kThreads));
    for (int p = 0; p < kThreads; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerThread; ++i) {
                Sent s;
                s.x = makeInput(
                    static_cast<uint64_t>(1000 + p * 100 + i), 2);
                s.fut = server.submit(tenant, s.x);
                sent[static_cast<size_t>(p)].push_back(std::move(s));
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    server.flush();

    serve::ServeStats s = server.stats();
    EXPECT_EQ(s.requests,
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(s.rows,
              static_cast<uint64_t>(kThreads * kPerThread * 2));
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(server.precisionTrace(tenant).size(), s.batches);

    // Each reply must equal the reference forward at its own batch's
    // precision — independent of how the producers interleaved.
    for (auto &per_thread : sent) {
        for (Sent &rec : per_thread) {
            serve::Reply r = rec.fut.get();
            Tensor ref = engine.forwardQuantizedAt(r.precision, rec.x);
            expectBitIdentical(ref, r.y, "hammer");
        }
    }
    server.stop();
}

/** Round-robin stays the default policy: specs and servers predating
 * the knob keep their batch order bit-identical. */
TEST(Server, RoundRobinIsTheDefaultPolicy)
{
    serve::ServerConfig sc;
    EXPECT_EQ(sc.policy, serve::SchedulingPolicy::RoundRobin);
    EXPECT_STREQ(serve::schedulingPolicyName(sc.policy),
                 "round_robin");
    EXPECT_STREQ(serve::schedulingPolicyName(
                     serve::SchedulingPolicy::EarliestDeadlineFirst),
                 "edf");
}

/** EDF picks the tenant whose oldest pending request has the nearest
 * deadline; deadline-free tenants queue behind every deadline-bearing
 * one. The same submission order under round-robin alternates (the
 * fairness test above) — the policy genuinely changes the pick. */
TEST(Server, EdfServesTheDeadlineUrgentTenantFirst)
{
    Network net = makeTinyNet(33);
    ManualClock clock;
    serve::ServerConfig sc = frozenConfig(clock);
    sc.policy = serve::SchedulingPolicy::EarliestDeadlineFirst;
    serve::Server server(sc);

    Session a = Session::attach(net, tenantConfig(34));
    Session b = Session::attach(net, a.engine(), tenantConfig(35));
    Session c = Session::attach(net, a.engine(), tenantConfig(36));
    int ta = server.addTenant(a);
    int tb = server.addTenant(b);
    int tc = server.addTenant(c);

    // A floods first, without deadlines; B's deadline is looser than
    // C's. Every request fills a whole batch (one pick per turn).
    for (int i = 0; i < 3; ++i)
        server.submit(ta, makeInput(400 + i, 8));
    for (int i = 0; i < 2; ++i)
        server.submit(tb, makeInput(500 + i, 8),
                      /*deadline_us=*/800000);
    for (int i = 0; i < 2; ++i)
        server.submit(tc, makeInput(600 + i, 8),
                      /*deadline_us=*/400000);
    server.resume();
    server.flush();

    std::vector<int> expected = {tc, tc, tb, tb, ta, ta, ta};
    EXPECT_EQ(server.batchLog(), expected);
    EXPECT_EQ(server.tenantStats(ta).batches, 3u);
    EXPECT_EQ(server.tenantStats(tb).batches, 2u);
    EXPECT_EQ(server.tenantStats(tc).batches, 2u);
    EXPECT_EQ(server.stats().shed, 0u); // ordered, nothing expired
    server.stop();
}

/** With every tenant deadline-free, EDF ties resolve to the lowest
 * tenant id — deterministic, and a backlogged heavy tenant drains
 * before a later-registered one (documented starvation trade-off the
 * scheduling term of the autotuner weighs against round-robin). */
TEST(Server, EdfTiesResolveToTheLowestTenantId)
{
    Network net = makeTinyNet(37);
    ManualClock clock;
    serve::ServerConfig sc = frozenConfig(clock);
    sc.policy = serve::SchedulingPolicy::EarliestDeadlineFirst;
    serve::Server server(sc);

    Session a = Session::attach(net, tenantConfig(38));
    Session b = Session::attach(net, a.engine(), tenantConfig(39));
    int ta = server.addTenant(a);
    int tb = server.addTenant(b);

    for (int i = 0; i < 2; ++i)
        server.submit(ta, makeInput(700 + i, 8));
    for (int i = 0; i < 2; ++i)
        server.submit(tb, makeInput(800 + i, 8));
    server.resume();
    server.flush();

    std::vector<int> expected = {ta, ta, tb, tb};
    EXPECT_EQ(server.batchLog(), expected);
    server.stop();
}

/** pause() halts batch formation while admission stays open; resume()
 * serves the accumulated backlog. */
TEST(Server, PauseHoldsTrafficResumeReleasesIt)
{
    Network net = makeTinyNet(31);
    ManualClock clock;
    serve::Server server(frozenConfig(clock));
    Session session = Session::attach(net, tenantConfig(32));
    int tenant = server.addTenant(session);

    std::future<serve::Reply> f =
        server.submit(tenant, makeInput(900, 8));
    EXPECT_EQ(server.queued(tenant), 1u);
    EXPECT_EQ(server.stats().batches, 0u);
    server.resume();
    EXPECT_EQ(f.get().y.dim(0), 8);
    EXPECT_EQ(server.stats().batches, 1u);
    server.stop();
}

} // namespace
} // namespace twoinone

/**
 * @file
 * Open-loop load generator for the asynchronous serving front-end
 * (serve::Server) — the ISSUE 7 tentpole benchmark.
 *
 * Measures, against one preact_mini tenant:
 *
 *  1. serial_qps — a one-thread Server: a pre-filled backlog flushed
 *     under ThreadPool::ScopedSerial, which is process-wide and so
 *     pins the dispatcher's batches to one thread.
 *  2. async_qps — the Server at saturation (the same backlog,
 *     flushed): dispatcher thread + pool-sharded micro-batches.
 *     scaling = async_qps / serial_qps.
 *  3. An open-loop Poisson sweep: offered rows/s laddered up to and
 *     past the measured saturation point. Arrivals are scheduled from
 *     seeded exponential inter-arrival draws and submitted at their
 *     wall-clock times regardless of completions (open loop — queueing
 *     delay is allowed to blow up, which is what exposes the knee).
 *     Each point reports achieved throughput, exact sorted-latency
 *     p50/p99/p99.9, and the shed rate (admission-control drops plus
 *     deadline expiries). The knee is the highest offered point that
 *     still achieves >= 90% of its offered load.
 *
 *  4. serve_tuned — the serving autotuner (tune::autotune) run
 *     against the same model, then the winner's configuration
 *     measured with the identical backlog-flush method as the
 *     defaults (best of three runs each, adjacent in time):
 *     speedup_vs_default = tuned_qps / default_qps, plus one
 *     open-loop Poisson point at 80% of the default's sustained
 *     throughput under each configuration for the iso-QPS p99
 *     comparison. The winner is carried through the production
 *     path — applyGenome for the session-scoped knobs,
 *     Server::addTenant adopting the server-scoped ones from the
 *     tenant's TuningArtifact.
 *
 * Results merge into BENCH_rps.json as "serve_async" and
 * "serve_tuned" sections (the file written by microbench_rps is
 * parsed and re-emitted with the sections replaced), tracked per PR
 * by ci/check_bench_regression.py via serve_async.scaling and
 * serve_tuned.speedup_vs_default.
 *
 * JSON schema:
 *   serve_async: {
 *     threads, rows_per_request,
 *     serial_qps, async_qps, scaling, knee_qps,
 *     sweep: [ { offered_qps, achieved_qps, p50_us, p99_us,
 *                p999_us, shed_rate } ]
 *   }
 *   serve_tuned: {
 *     threads, default_qps, tuned_qps, speedup_vs_default,
 *     iso_qps, default_p99_us, tuned_p99_us, p99_improvement_pct,
 *     predicted_cost, candidates, evaluated, mean_error_pct,
 *     genome: { max_batch, micro_batch, max_delay_us, replicas,
 *               policy, draw_bits, draw_weights }
 *   }
 *
 * Exits non-zero when (with >= 4 pool threads on >= 4 hardware cores)
 * the server does not scale >= 1.5x over the one-thread server, when
 * the sweep sheds requests below half the measured saturation
 * throughput (shedding while underloaded means admission control or
 * deadlines are misfiring), or when the autotuned configuration
 * neither sustains >= 1.15x the default configuration's QPS nor cuts
 * the iso-QPS p99 by >= 15%.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "harness/json.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "tune/autotuner.hh"
#include "workloads/model_library.hh"

namespace {

using namespace twoinone;
using WClock = std::chrono::steady_clock;

struct SweepPoint
{
    double offeredQps = 0.0;  ///< offered rows/s
    double achievedQps = 0.0; ///< served rows/s of the run window
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double shedRate = 0.0; ///< shed requests / offered requests
};

/** Exact quantile of an already sorted latency vector. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** One open-loop Poisson point: schedule arrivals at the offered
 * rate, submit each at its wall-clock time, then flush and account. */
SweepPoint
runPoint(serve::Server &server, serve::Server::TenantId tenant,
         const std::vector<Tensor> &pool, int n_requests,
         int rows_per_request, double offered_qps, uint64_t seed)
{
    Rng rng(seed);
    double req_per_s =
        offered_qps / static_cast<double>(rows_per_request);
    std::vector<double> arrival_s(static_cast<size_t>(n_requests));
    double t = 0.0;
    for (int i = 0; i < n_requests; ++i) {
        // Inverse-CDF exponential inter-arrival (u in (0,1]).
        double u = 1.0 - rng.uniform();
        t += -std::log(u) / req_per_s;
        arrival_s[static_cast<size_t>(i)] = t;
    }

    std::vector<std::future<serve::Reply>> futs;
    futs.reserve(static_cast<size_t>(n_requests));
    uint64_t admission_shed = 0;
    WClock::time_point start = WClock::now();
    for (int i = 0; i < n_requests; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<WClock::duration>(
                        std::chrono::duration<double>(
                            arrival_s[static_cast<size_t>(i)])));
        try {
            futs.push_back(server.submit(
                tenant, pool[static_cast<size_t>(i) % pool.size()]));
        } catch (const serve::ServeError &) {
            ++admission_shed; // queue full: open loop keeps going
        }
    }
    server.flush();
    double wall =
        std::chrono::duration<double>(WClock::now() - start).count();

    std::vector<double> lat;
    lat.reserve(futs.size());
    uint64_t served = 0, deadline_shed = 0;
    for (auto &f : futs) {
        try {
            serve::Reply r = f.get();
            lat.push_back(r.latencyUs);
            ++served;
        } catch (const serve::ServeError &) {
            ++deadline_shed;
        }
    }
    std::sort(lat.begin(), lat.end());

    SweepPoint p;
    p.offeredQps = offered_qps;
    p.achievedQps = wall > 0.0
                        ? static_cast<double>(served) *
                              rows_per_request / wall
                        : 0.0;
    p.p50Us = quantile(lat, 0.50);
    p.p99Us = quantile(lat, 0.99);
    p.p999Us = quantile(lat, 0.999);
    p.shedRate = static_cast<double>(admission_shed + deadline_shed) /
                 static_cast<double>(n_requests);
    return p;
}

harness::Json
jsonRound(double v)
{
    return harness::Json(std::round(v * 10.0) / 10.0);
}

} // namespace

int
main()
{
    bool fast = bench::fastMode();

    bench::banner("Async serving load generator (open-loop Poisson "
                  "sweep to the latency knee)");
    std::cout << "threads=" << ThreadPool::global().threads()
              << (fast ? " (fast mode)" : "") << "\n\n";

    Rng rng(2025);
    ModelConfig mcfg;
    mcfg.baseWidth = fast ? 8 : 16;
    Network net = preActResNetMini(mcfg, rng);
    {
        Rng cal_rng(63);
        Calibrator cal(net);
        cal.calibrate(
            {Tensor::uniform({8, 3, 8, 8}, cal_rng, 0.0f, 1.0f)});
    }
    RpsEngine engine(net);

    const int rows_per_request = 4;
    const int backlog_requests = fast ? 48 : 96;
    SessionConfig sess_cfg;
    sess_cfg.serving.maxBatch = rows_per_request * 4;
    sess_cfg.serving.microBatch = rows_per_request;
    sess_cfg.serving.mode = serve::PlanMode::Quantized;
    sess_cfg.serving.seed = 77;
    sess_cfg.serving.lazyPlanWarmup = false;
    sess_cfg.inputShape = {3, 8, 8};

    Rng req_rng(19);
    std::vector<Tensor> pool;
    for (int i = 0; i < 32; ++i)
        pool.push_back(Tensor::uniform({rows_per_request, 3, 8, 8},
                                       req_rng, 0.0f, 1.0f));

    // One backlog run: a paused Server pre-filled with the backlog,
    // then resumed and flushed; rows/s over the flush.
    auto backlogQps = [&](const SessionConfig &sc,
                          const tune::TuningArtifact *artifact) {
        serve::ServerConfig scfg;
        scfg.queueCapacity = backlog_requests;
        scfg.maxBatchDelayUs = 200.0;
        scfg.startPaused = true; // pre-fill, then serve the backlog
        serve::Server server(scfg);
        Session sess = Session::attach(net, engine, sc);
        if (artifact != nullptr)
            sess.setTuningArtifact(*artifact);
        serve::Server::TenantId tenant = server.addTenant(sess);
        std::vector<std::future<serve::Reply>> futs;
        for (int i = 0; i < backlog_requests; ++i)
            futs.push_back(server.submit(
                tenant, pool[static_cast<size_t>(i) % pool.size()]));
        WClock::time_point t0 = WClock::now();
        server.resume();
        server.flush();
        double wall =
            std::chrono::duration<double>(WClock::now() - t0).count();
        for (auto &f : futs)
            f.get();
        server.stop();
        return wall > 0.0 ? static_cast<double>(backlog_requests) *
                                rows_per_request / wall
                          : 0.0;
    };

    // --- 1. Serial baseline: a one-thread Server -------------------
    double serial_qps = 0.0;
    {
        ThreadPool::ScopedSerial guard; // reaches the dispatcher
        serial_qps = backlogQps(sess_cfg, nullptr);
    }

    // --- 2. Async saturation throughput ----------------------------
    double async_qps = backlogQps(sess_cfg, nullptr);
    double scaling = serial_qps > 0.0 ? async_qps / serial_qps : 0.0;
    std::printf("%-24s %14s %14s %8s\n", "serving (rows/s)",
                "serial_qps", "async_qps", "scaling");
    std::printf("%-24s %14.0f %14.0f %7.2fx\n", "one thread vs pool",
                serial_qps, async_qps, scaling);

    // --- 3. Open-loop Poisson offered-load sweep -------------------
    // Ladder up to and past saturation; deadlines bound how long a
    // request may queue once the knee is crossed, so the overloaded
    // points degrade by shedding instead of queueing without bound.
    std::vector<double> ladder = {0.25, 0.5, 0.75, 0.9, 1.1, 1.4};
    int sweep_requests = fast ? 40 : 80;
    std::vector<SweepPoint> sweep;
    double knee_qps = 0.0;
    std::printf("\n%-12s %12s %10s %10s %10s %10s\n", "offered_qps",
                "achieved", "p50_us", "p99_us", "p999_us", "shed");
    for (size_t i = 0; i < ladder.size(); ++i) {
        serve::ServerConfig scfg;
        scfg.queueCapacity = sweep_requests;
        scfg.maxBatchDelayUs = 500.0;
        // Deadline: generous at low load, binding past the knee.
        scfg.defaultDeadlineUs = 200000;
        serve::Server server(scfg);
        Session sess = Session::attach(net, engine, sess_cfg);
        serve::Server::TenantId tenant = server.addTenant(sess);
        SweepPoint p = runPoint(server, tenant, pool, sweep_requests,
                                rows_per_request,
                                ladder[i] * async_qps,
                                /*seed=*/9000 + i);
        server.stop();
        sweep.push_back(p);
        if (p.achievedQps >= 0.9 * p.offeredQps)
            knee_qps = std::max(knee_qps, p.offeredQps);
        std::printf("%-12.0f %12.0f %10.0f %10.0f %10.0f %9.1f%%\n",
                    p.offeredQps, p.achievedQps, p.p50Us, p.p99Us,
                    p.p999Us, 100.0 * p.shedRate);
    }
    std::printf("knee: %.0f rows/s\n", knee_qps);

    // --- 4. Serving autotuner: default vs tuned sustained QPS ------
    // Both configurations are measured with the identical
    // backlog-flush method (best of three adjacent runs, noise
    // floor); the tuned run carries the winner through the
    // production path: applyGenome for the session-scoped knobs and
    // Server::addTenant adopting the server-scoped ones from the
    // tenant's TuningArtifact.
    tune::TuneResult tuned;
    {
        Session sess = Session::attach(net, engine, sess_cfg);
        tune::TuneConfig tcfg;
        tcfg.seed = 4242;
        tcfg.population = 12;
        tcfg.cycles = fast ? 4 : 6;
        tcfg.probeRows = 8;
        tuned = tune::autotune(sess, tcfg);
    }
    const ServingGenome &win = tuned.artifact.genome;

    auto sustainedQps = [&](const SessionConfig &sc,
                            const tune::TuningArtifact *artifact) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep)
            best = std::max(best, backlogQps(sc, artifact));
        return best;
    };

    SessionConfig tuned_cfg = sess_cfg;
    tune::applyGenome(win, tuned_cfg.serving);
    double default_qps = sustainedQps(sess_cfg, nullptr);
    double tuned_qps = sustainedQps(tuned_cfg, &tuned.artifact);
    double tuned_speedup =
        default_qps > 0.0 ? tuned_qps / default_qps : 0.0;

    // Iso-QPS tail latency: the same open-loop Poisson point (80% of
    // the default configuration's sustained throughput — near enough
    // to the knee that service-rate headroom shows up in the queue)
    // served under each configuration; best p99 of two runs each.
    double iso_rate = 0.8 * default_qps;
    int iso_requests = fast ? 60 : 120;
    auto isoP99 = [&](const SessionConfig &sc,
                      const tune::TuningArtifact *artifact,
                      uint64_t seed) {
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 2; ++rep) {
            serve::ServerConfig scfg;
            scfg.queueCapacity = iso_requests;
            scfg.maxBatchDelayUs = 500.0;
            scfg.defaultDeadlineUs = 200000;
            serve::Server server(scfg);
            Session sess = Session::attach(net, engine, sc);
            if (artifact != nullptr)
                sess.setTuningArtifact(*artifact);
            serve::Server::TenantId tenant = server.addTenant(sess);
            SweepPoint p =
                runPoint(server, tenant, pool, iso_requests,
                         rows_per_request, iso_rate, seed + rep);
            server.stop();
            best = std::min(best, p.p99Us);
        }
        return best;
    };
    double default_p99 = isoP99(sess_cfg, nullptr, 31000);
    double tuned_p99 = isoP99(tuned_cfg, &tuned.artifact, 32000);
    double p99_improvement =
        default_p99 > 0.0
            ? (default_p99 - tuned_p99) / default_p99 * 100.0
            : 0.0;

    std::printf("\n%-24s %14s %14s %8s\n", "autotuned serving",
                "default_qps", "tuned_qps", "speedup");
    std::printf("%-24s %14.0f %14.0f %7.2fx\n", "backlog flush",
                default_qps, tuned_qps, tuned_speedup);
    std::printf("%-24s %14.0f %14.0f %7.1f%%\n",
                "iso-QPS p99 (us)", default_p99, tuned_p99,
                p99_improvement);
    std::cout << "  selected: " << win.describe()
              << " (predicted cost " << tuned.artifact.predictedCost
              << ", " << tuned.candidates.size() << " candidates, "
              << tuned.evaluated << " evaluations, mean "
                 "predicted-vs-measured error "
              << tuned.meanErrorPct << "%)\n";

    // --- Merge the serve_async section into BENCH_rps.json ---------
    harness::Json doc = harness::Json::object();
    {
        std::ifstream in("BENCH_rps.json");
        if (in) {
            std::stringstream ss;
            ss << in.rdbuf();
            try {
                doc = harness::Json::parse(ss.str());
            } catch (const harness::JsonError &e) {
                std::cerr << "warning: BENCH_rps.json unparseable ("
                          << e.what() << "), starting fresh\n";
                doc = harness::Json::object();
            }
        }
    }
    harness::Json section = harness::Json::object();
    section.set("threads", harness::Json(static_cast<int>(
                               ThreadPool::global().threads())));
    section.set("rows_per_request",
                harness::Json(rows_per_request));
    section.set("serial_qps", jsonRound(serial_qps));
    section.set("async_qps", jsonRound(async_qps));
    section.set("scaling",
                harness::Json(std::round(scaling * 100.0) / 100.0));
    section.set("knee_qps", jsonRound(knee_qps));
    harness::Json points = harness::Json::array();
    for (const SweepPoint &p : sweep) {
        harness::Json row = harness::Json::object();
        row.set("offered_qps", jsonRound(p.offeredQps));
        row.set("achieved_qps", jsonRound(p.achievedQps));
        row.set("p50_us", jsonRound(p.p50Us));
        row.set("p99_us", jsonRound(p.p99Us));
        row.set("p999_us", jsonRound(p.p999Us));
        row.set("shed_rate", harness::Json(
                                 std::round(p.shedRate * 1000.0) /
                                 1000.0));
        points.push(std::move(row));
    }
    section.set("sweep", std::move(points));
    doc.set("serve_async", std::move(section));

    harness::Json tuned_section = harness::Json::object();
    tuned_section.set("threads",
                      harness::Json(static_cast<int>(
                          ThreadPool::global().threads())));
    tuned_section.set("default_qps", jsonRound(default_qps));
    tuned_section.set("tuned_qps", jsonRound(tuned_qps));
    tuned_section.set("speedup_vs_default",
                      harness::Json(
                          std::round(tuned_speedup * 100.0) / 100.0));
    tuned_section.set("iso_qps", jsonRound(iso_rate));
    tuned_section.set("default_p99_us", jsonRound(default_p99));
    tuned_section.set("tuned_p99_us", jsonRound(tuned_p99));
    tuned_section.set("p99_improvement_pct",
                      harness::Json(
                          std::round(p99_improvement * 10.0) / 10.0));
    tuned_section.set("predicted_cost",
                      jsonRound(tuned.artifact.predictedCost));
    tuned_section.set("candidates",
                      harness::Json(static_cast<int>(
                          tuned.candidates.size())));
    tuned_section.set("evaluated",
                      harness::Json(static_cast<int>(tuned.evaluated)));
    tuned_section.set("mean_error_pct",
                      harness::Json(
                          std::round(tuned.meanErrorPct * 10.0) /
                          10.0));
    harness::Json genome = harness::Json::object();
    genome.set("max_batch", harness::Json(win.maxBatch));
    genome.set("micro_batch", harness::Json(win.microBatch));
    genome.set("max_delay_us", jsonRound(win.maxDelayUs));
    genome.set("replicas", harness::Json(win.replicas));
    genome.set("policy", harness::Json(std::string(
                             win.policy == 1 ? "edf" : "round_robin")));
    harness::Json gbits = harness::Json::array();
    for (int b : win.drawBits)
        gbits.push(harness::Json(b));
    genome.set("draw_bits", std::move(gbits));
    harness::Json gweights = harness::Json::array();
    for (int w : win.drawWeights)
        gweights.push(harness::Json(w));
    genome.set("draw_weights", std::move(gweights));
    tuned_section.set("genome", std::move(genome));
    doc.set("serve_tuned", std::move(tuned_section));
    {
        std::ofstream out("BENCH_rps.json");
        out << doc.dump(2) << "\n";
    }
    std::cout
        << "\nmerged serve_async + serve_tuned into BENCH_rps.json\n";

    // --- Gates -----------------------------------------------------
    // Underloaded points must not shed: admission control and
    // deadlines only bite past the knee.
    for (const SweepPoint &p : sweep) {
        if (p.offeredQps < 0.5 * async_qps && p.shedRate > 0.0) {
            std::cerr << "FAIL: shed " << 100.0 * p.shedRate
                      << "% of requests at " << p.offeredQps
                      << " rows/s, well under the " << async_qps
                      << " rows/s saturation point\n";
            return 1;
        }
    }
    // Thread scaling needs real cores behind the pool (same gate
    // shape as microbench_rps): a 1-2 core host cannot express it.
    unsigned hw = std::thread::hardware_concurrency();
    if (ThreadPool::global().threads() >= 4 && hw >= 4 &&
        scaling < 1.5) {
        std::cerr << "FAIL: async serving scaling " << scaling
                  << "x over the one-thread server is below the 1.5x "
                     "acceptance floor\n";
        return 1;
    }
    // The autotuned configuration must buy a real end-to-end win over
    // the defaults: >= 1.15x sustained QPS on the same backlog, or
    // >= 15% lower p99 at iso-QPS (the near-knee tail is where
    // service-rate headroom shows; the sustained ceiling of this
    // overhead-dominated mini model sits close to the compute-only
    // bound). Same core caveat as above: a starved pool cannot
    // express batching/replica headroom.
    if (ThreadPool::global().threads() >= 4 && hw >= 4 &&
        tuned_speedup < 1.15 && p99_improvement < 15.0) {
        std::cerr << "FAIL: autotuned serving config sustains only "
                  << tuned_speedup
                  << "x the default configuration's QPS and improves "
                     "iso-QPS p99 by only "
                  << p99_improvement
                  << "% — neither the 1.15x QPS floor nor the 15% "
                     "p99 floor holds\n";
        return 1;
    }
    return 0;
}

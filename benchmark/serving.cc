/**
 * @file
 * The two serving workloads.
 *
 * mini_poisson (open loop): preActResNetMini at width 16 behind a
 * single-tenant serve::Server, one 3x8x8 image per request. Poisson
 * arrivals at a low and a high fixed rate and a 64-deep closed loop
 * (saturation) take turns over the run; the traced run adds a short
 * goodput bisection as a diagnostic. The convs are tiny, so the per-batch
 * framework cost dominates: dispatch, precision install,
 * gather/scatter and the age close.
 *
 * r50_stream (closed loop): the servable ResNet-50 stand-in at width
 * 16, loaded with Session::fromCheckpoint(streamArtifact) under a
 * cache budget of 40% of the full engine cache, driven by one thread
 * that keeps eight four-row requests outstanding. The integer conv
 * kernels do most of the work, and each random per-batch draw under
 * the budget evicts and hydrates engine cells.
 *
 * The parent process builds and calibrates the model, saves the
 * artifact, draws the request pool from the seed and computes every
 * reference reply serially; the child loads the artifact, serves, and
 * checks each reply bit for bit against its reference.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "common/thread_pool.hh"
#include "io/checkpoint.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "stats.hh"
#include "workloads/model_library.hh"

namespace rpsbench {

using namespace twoinone;

namespace {

using Clock = std::chrono::steady_clock;

struct Spec
{
    bool r50 = false;
    int width = 16;
    std::vector<int> shape;  ///< one image, [C, H, W]
    int rowsPerRequest = 1;
    int poolRequests = 0;
    int maxBatch = 16;
    int microBatch = 4;
    double maxDelayUs = 500.0;
    uint64_t deadlineUs = 0;
    double budgetFrac = 0.0; ///< 0 = unbudgeted eager load
    int replayRows = 8;      ///< batch size of the traced replay
};

Spec
specFor(const Options &o)
{
    Spec s;
    s.width = o.smoke ? 8 : 16;
    if (o.workload == "mini_poisson") {
        s.shape = {3, 8, 8};
        s.poolRequests = 512;
        s.deadlineUs = 50000;
    } else {
        s.r50 = true;
        s.shape = {3, 32, 32};
        s.rowsPerRequest = 4;
        s.poolRequests = o.smoke ? 4 : 16;
        s.budgetFrac = 0.4;
        s.replayRows = 16;
    }
    return s;
}

std::string
artifactPath(const Options &o)
{
    return o.workDir + "/model.ckpt";
}

std::string
poolPath(const Options &o)
{
    return o.workDir + "/pool.bin";
}

/** The seeded request pool and, per request and candidate precision,
 * the reference logits. */
struct Pool
{
    std::vector<int> bits;
    std::vector<Tensor> x;
    std::vector<std::vector<Tensor>> ref; ///< [request][bits index]
    uint64_t budgetBytes = 0;
    uint64_t fullCacheBytes = 0;
};

void
writeTensor(std::ofstream &out, const Tensor &t)
{
    uint32_t rank = static_cast<uint32_t>(t.shape().size());
    out.write(reinterpret_cast<const char *>(&rank), sizeof rank);
    for (int d : t.shape())
        out.write(reinterpret_cast<const char *>(&d), sizeof d);
    out.write(reinterpret_cast<const char *>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(float)));
}

Tensor
readTensor(std::ifstream &in)
{
    uint32_t rank = 0;
    in.read(reinterpret_cast<char *>(&rank), sizeof rank);
    if (!in || rank == 0 || rank > 8)
        throw std::runtime_error("pool file: bad tensor header");
    std::vector<int> shape(rank);
    for (int &d : shape)
        in.read(reinterpret_cast<char *>(&d), sizeof d);
    Tensor t(shape);
    in.read(reinterpret_cast<char *>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
    if (!in)
        throw std::runtime_error("pool file: truncated tensor");
    return t;
}

void
writePool(const std::string &path, const Pool &p)
{
    std::ofstream out(path, std::ios::binary);
    uint32_t nbits = static_cast<uint32_t>(p.bits.size());
    uint32_t nreq = static_cast<uint32_t>(p.x.size());
    out.write(reinterpret_cast<const char *>(&nbits), sizeof nbits);
    out.write(reinterpret_cast<const char *>(&nreq), sizeof nreq);
    out.write(reinterpret_cast<const char *>(&p.budgetBytes),
              sizeof p.budgetBytes);
    out.write(reinterpret_cast<const char *>(&p.fullCacheBytes),
              sizeof p.fullCacheBytes);
    for (int b : p.bits)
        out.write(reinterpret_cast<const char *>(&b), sizeof b);
    for (uint32_t i = 0; i < nreq; ++i) {
        writeTensor(out, p.x[i]);
        for (const Tensor &r : p.ref[i])
            writeTensor(out, r);
    }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

Pool
readPool(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    uint32_t nbits = 0, nreq = 0;
    Pool p;
    in.read(reinterpret_cast<char *>(&nbits), sizeof nbits);
    in.read(reinterpret_cast<char *>(&nreq), sizeof nreq);
    in.read(reinterpret_cast<char *>(&p.budgetBytes), sizeof p.budgetBytes);
    in.read(reinterpret_cast<char *>(&p.fullCacheBytes),
            sizeof p.fullCacheBytes);
    if (!in || nbits == 0 || nbits > 32 || nreq == 0 || nreq > 100000)
        throw std::runtime_error("pool file: bad header");
    p.bits.resize(nbits);
    for (int &b : p.bits)
        in.read(reinterpret_cast<char *>(&b), sizeof b);
    for (uint32_t i = 0; i < nreq; ++i) {
        p.x.push_back(readTensor(in));
        p.ref.emplace_back();
        for (uint32_t b = 0; b < nbits; ++b)
            p.ref.back().push_back(readTensor(in));
    }
    return p;
}

Network
buildModel(const Spec &s)
{
    Rng rng(kWeightSeed);
    if (s.r50)
        return workloads::servableResNet50(rng, s.width);
    ModelConfig mc;
    mc.baseWidth = s.width;
    return preActResNetMini(mc, rng);
}

/** Bit-for-bit reply check against the precomputed references. */
class Checker
{
  public:
    Checker(const Pool &pool, Result &r) : pool_(pool), r_(r) {}

    /** Whether @p rep is exactly the reference reply to request
     * @p idx at the precision the server reports it drew. */
    bool
    check(size_t idx, const serve::Reply &rep)
    {
        ++checked_;
        auto it = std::find(pool_.bits.begin(), pool_.bits.end(),
                            rep.precision);
        if (it == pool_.bits.end())
            return wrong("precision " + std::to_string(rep.precision) +
                         " is not a candidate");
        const Tensor &ref =
            pool_.ref[idx][static_cast<size_t>(it - pool_.bits.begin())];
        if (rep.y.shape() != ref.shape() ||
            std::memcmp(rep.y.data(), ref.data(),
                        ref.size() * sizeof(float)) != 0)
            return wrong("request " + std::to_string(idx) + " at " +
                         std::to_string(rep.precision) +
                         " bits differs from its reference");
        return true;
    }

    /** Same check for rows a replayed batch wrote straight to @p y. */
    bool
    checkRows(size_t idx, int bits, const float *y)
    {
        serve::Reply rep;
        rep.precision = bits;
        const Tensor &ref = pool_.ref[idx][0];
        rep.y = Tensor(ref.shape());
        std::memcpy(rep.y.data(), y, ref.size() * sizeof(float));
        return check(idx, rep);
    }

    uint64_t checked() const { return checked_; }
    uint64_t wrongCount() const { return wrong_; }

  private:
    bool
    wrong(const std::string &why)
    {
        if (wrong_++ == 0)
            r_.fail("wrong answer: " + why);
        return false;
    }

    const Pool &pool_;
    Result &r_;
    uint64_t checked_ = 0;
    uint64_t wrong_ = 0;
};

/** One load phase's raw outcome. */
struct Phase
{
    std::string name;
    double offered = 0.0;  ///< rows/s (open loop)
    double seconds = 0.0;
    uint64_t attempted = 0;
    uint64_t served = 0;
    uint64_t failed = 0;   ///< shed at admission or deadline
    std::vector<double> at;    ///< per served request: due time, s
    std::vector<double> done;  ///< per served request: completion, s
    std::vector<double> latMs; ///< per served request: latency, ms
    std::vector<double> lagUs; ///< per sent request: send - due, us
    double achieved = 0.0; ///< served rows/s
    double submitS = 0.0;  ///< time spent inside Server::submit
};

struct Sent
{
    size_t idx = 0;
    double due = 0.0;
    double sent = 0.0;
    std::future<serve::Reply> fut;
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Receive @p s, check it, and fold it into @p ph; returns the reply's
 * completion time on the phase clock (NaN when shed). */
double
receive(Sent &s, Checker &chk, Phase &ph)
{
    try {
        serve::Reply rep = s.fut.get();
        chk.check(s.idx, rep);
        ++ph.served;
        ph.at.push_back(s.due);
        ph.latMs.push_back((s.sent - s.due) * 1e3 + rep.latencyUs * 1e-3);
        ph.done.push_back(s.sent + rep.latencyUs * 1e-6);
        return ph.done.back();
    } catch (const serve::ServeError &) {
        ++ph.failed;
        return std::nan("");
    }
}

/** Open loop: submit on a seeded Poisson schedule regardless of
 * completions; latency counts from each request's due time. */
Phase
openLoop(serve::Server &srv, int tenant, const Spec &spec, const Pool &pool,
         Checker &chk, const std::string &name, double rows_per_s,
         double seconds, uint64_t seed, Tracer &t)
{
    Phase ph;
    ph.name = name;
    ph.offered = rows_per_s;
    ph.seconds = seconds;
    std::vector<double> due =
        poissonSchedule(seed, rows_per_s / spec.rowsPerRequest, seconds);
    std::vector<Sent> sent;
    sent.reserve(due.size());
    Scope phase(t, "phase." + name);
    t.arg(phase.id(), "offered_rows_s", rows_per_s);
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < due.size(); ++i) {
        Clock::time_point at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i]));
        if (Clock::now() < at)
            std::this_thread::sleep_until(at);
        Sent s;
        s.idx = i % pool.x.size();
        s.due = due[i];
        s.sent = since(start);
        ++ph.attempted;
        ph.lagUs.push_back((s.sent - s.due) * 1e6);
        try {
            int id = t.begin("submit");
            s.fut = srv.submit(tenant, pool.x[s.idx]);
            t.end(id);
            ph.submitS += since(start) - s.sent;
            sent.push_back(std::move(s));
        } catch (const serve::ServeError &) {
            ++ph.failed; // admission shed: the open loop keeps going
        }
    }
    double last = seconds;
    for (Sent &s : sent) {
        double done = receive(s, chk, ph);
        if (!std::isnan(done))
            last = std::max(last, done);
    }
    ph.achieved = static_cast<double>(ph.served) * spec.rowsPerRequest / last;
    return ph;
}

/** Closed loop: keep @p outstanding requests in flight from one
 * thread for @p seconds; the rate counts the rows completed within
 * them. */
Phase
closedLoop(serve::Server &srv, int tenant, const Spec &spec,
           const Pool &pool, Checker &chk, const std::string &name,
           int outstanding, double seconds, Tracer &t)
{
    Phase ph;
    ph.name = name;
    ph.seconds = seconds;
    std::deque<Sent> inflight;
    size_t next = 0;
    Scope phase(t, "phase." + name);
    t.arg(phase.id(), "outstanding", outstanding);
    Clock::time_point start = Clock::now();
    auto submitOne = [&] {
        Sent s;
        s.idx = next++ % pool.x.size();
        s.sent = s.due = since(start);
        int id = t.begin("submit");
        s.fut = srv.submit(tenant, pool.x[s.idx]);
        t.end(id);
        ph.submitS += since(start) - s.sent;
        inflight.push_back(std::move(s));
    };
    for (int i = 0; i < outstanding; ++i)
        submitOne();
    while (!inflight.empty()) {
        Sent s = std::move(inflight.front());
        inflight.pop_front();
        ++ph.attempted;
        receive(s, chk, ph);
        if (since(start) < seconds)
            submitOne();
    }
    double within = static_cast<double>(
        std::count_if(ph.done.begin(), ph.done.end(),
                      [&](double d) { return d < seconds; }));
    ph.achieved = within * spec.rowsPerRequest / seconds;
    return ph;
}

/**
 * Per-segment statistics of one kind of load: either short phases
 * interleaved with the other kinds over the whole run, or windows of
 * one long phase. Medians over segments stay put when the host is
 * slow for a stretch of the run: only the segments it overlaps move.
 */
struct Series
{
    std::string name;
    double offered = 0.0; ///< rows/s, 0 for a closed loop
    std::vector<double> p50, tail, rate, lagUs;
    double tailPct = 0.0;
    uint64_t attempted = 0, served = 0, failed = 0;

    /** Fold in one segment: latencies (ms) sent at times @p at (s)
     * over @p seconds, and its served rows/s. The tail samples are the
     * p99s of windows of about 1200 requests, so a host stall of a few
     * milliseconds moves only the windows it overlaps. */
    void
    segment(const std::vector<double> &at, const std::vector<double> &lat_ms,
            double seconds, double rows_s)
    {
        int windows = std::max(1, static_cast<int>(lat_ms.size() / 1200));
        Tail t = windowedTail(at, lat_ms, 0.0, seconds, windows);
        tailPct = t.pct;
        if (t.perWindow.empty())
            tail.push_back(t.value);
        else
            tail.insert(tail.end(), t.perWindow.begin(), t.perWindow.end());
        p50.push_back(median(lat_ms));
        rate.push_back(rows_s);
    }

    void
    add(const Phase &ph)
    {
        segment(ph.at, ph.latMs, ph.seconds, ph.achieved);
        lagUs.insert(lagUs.end(), ph.lagUs.begin(), ph.lagUs.end());
        attempted += ph.attempted;
        served += ph.served;
        failed += ph.failed;
    }

    Json
    json() const
    {
        Json j = Json::object();
        j.set("name", Json(name));
        j.set("segments", Json(static_cast<int>(rate.size())));
        if (offered > 0.0) {
            j.set("offered_rows_s", Json(offered));
            j.set("achieved_over_offered", Json(median(rate) / offered));
            j.set("lag_us_p99", Json(percentile(lagUs, 99.0)));
        }
        j.set("achieved_rows_s", Json(median(rate)));
        j.set("attempted", Json(attempted));
        j.set("served", Json(served));
        j.set("failed", Json(failed));
        j.set("p50_ms", Json(median(p50)));
        j.set("tail_pct", Json(tailPct));
        j.set("tail_ms", Json(median(tail)));
        for (auto [key, v] : {std::pair<const char *, const std::vector<double> *>{
                                  "segment_rows_s", &rate},
                              {"segment_p50_ms", &p50},
                              {"segment_tail_ms", &tail}}) {
            Json a = Json::array();
            for (double x : *v)
                a.push(Json(x));
            j.set(key, std::move(a));
        }
        return j;
    }
};

/** @p ph cut into @p n windows by send time (rates by completion). */
Series
windowsOf(const Phase &ph, int rows_per_request, int n)
{
    Series s;
    s.name = ph.name;
    s.offered = ph.offered;
    s.lagUs = ph.lagUs;
    s.attempted = ph.attempted;
    s.served = ph.served;
    s.failed = ph.failed;
    double width = ph.seconds / n;
    for (int w = 0; w < n; ++w) {
        std::vector<double> at, lat;
        for (size_t i = 0; i < ph.at.size(); ++i)
            if (std::floor(ph.at[i] / width) == w) {
                at.push_back(ph.at[i] - w * width);
                lat.push_back(ph.latMs[i]);
            }
        double rows = 0.0;
        for (double d : ph.done)
            if (std::floor(d / width) == w)
                rows += rows_per_request;
        s.segment(at, lat, width, rows / width);
    }
    return s;
}

/** A loaded, serving deployment: session + server + tenant. */
struct Deployment
{
    std::unique_ptr<Session> session;
    /** Declared after the session it references, so destroyed first. */
    std::unique_ptr<serve::Server> server;
    int tenant = 0;
};

/** Time fromCheckpoint -> addTenant -> first reply, @p reps times;
 * the last deployment stays up for the measured phases. */
void
setUp(const Options &o, const Spec &spec, const Pool &pool, Checker &chk,
      Deployment &dep, LayerReport &l, std::vector<double> &total, Tracer &t)
{
    SessionConfig cfg;
    cfg.serving.maxBatch = spec.maxBatch;
    cfg.serving.microBatch = spec.microBatch;
    cfg.serving.mode = serve::PlanMode::Quantized;
    cfg.serving.seed = kDrawSeed;
    cfg.inputShape = spec.shape;
    if (spec.budgetFrac > 0.0) {
        cfg.streamArtifact = true;
        cfg.cacheBudgetBytes = pool.budgetBytes;
    }
    serve::ServerConfig scfg;
    scfg.maxBatchDelayUs = spec.maxDelayUs;
    scfg.defaultDeadlineUs = spec.deadlineUs;
    for (int rep = 0; rep < 9; ++rep) {
        dep.server.reset();
        dep.session.reset();
        Scope s(t, "setup");
        double t0 = nowS();
        {
            Scope sp(t, "load");
            dep.session = std::make_unique<Session>(
                Session::fromCheckpoint(artifactPath(o), cfg));
        }
        double t1 = nowS();
        {
            Scope sp(t, "compile");
            dep.server = std::make_unique<serve::Server>(scfg);
            dep.tenant = dep.server->addTenant(*dep.session);
        }
        double t2 = nowS();
        {
            Scope sp(t, "first_reply");
            serve::Reply first =
                dep.server->submit(dep.tenant, pool.x[0]).get();
            chk.check(0, first);
        }
        double t3 = nowS();
        l.setupLoadS.push_back(t1 - t0);
        l.setupCompileS.push_back(t2 - t1);
        l.setupFirstS.push_back(t3 - t2);
        total.push_back(t3 - t0);
    }
}

/** Replay batches of spec.replayRows pool rows straight through a
 * BatchExecutor, at the precision draws the server made, one span per
 * call; fills the unit/install/engine fields of @p l. */
void
replay(Deployment &dep, const Spec &spec, const Pool &pool, Checker &chk,
       double seconds, LayerReport &l, Tracer &t)
{
    dep.server->pause(); // quiesce: precisionTrace is read below
    std::vector<int> draws = dep.server->precisionTrace(dep.tenant);
    if (draws.empty())
        draws = pool.bits;
    Session &sess = *dep.session;
    RpsEngine &engine = sess.engine();
    serve::BatchExecutor exec(sess.network(), engine, spec.shape,
                              sess.config().serving);
    // A replayed batch is whole pool requests, so each request's rows
    // land contiguously and check against its reference.
    const size_t per_req = static_cast<size_t>(spec.rowsPerRequest);
    const size_t reqs = static_cast<size_t>(spec.replayRows) / per_req;
    const int rows = static_cast<int>(reqs * per_req);
    const size_t cols = exec.outCols();
    std::vector<const float *> src(static_cast<size_t>(rows));
    std::vector<float> out(static_cast<size_t>(rows) * cols);
    std::vector<float *> dst(static_cast<size_t>(rows));
    for (size_t i = 0; i < dst.size(); ++i)
        dst[i] = out.data() + i * cols;
    for (int i = 0; i < exec.numReplicas(); ++i)
        l.arenaBytes += static_cast<double>(exec.plan(i).arenaBytes());

    Clock::time_point start = Clock::now();
    size_t unit = 0;
    for (; since(start) < seconds || unit < 8; ++unit) {
        int bits = draws[unit % draws.size()];
        for (size_t j = 0; j < reqs; ++j) {
            const Tensor &x = pool.x[(unit * reqs + j) % pool.x.size()];
            for (size_t q = 0; q < per_req; ++q)
                src[j * per_req + q] = x.data() + q * exec.rowElems();
        }
        uint64_t h0 = engine.cellHydrations();
        uint64_t e0 = engine.cacheEvictions();
        uint64_t b0 = engine.columnRebuilds();
        double t0 = nowS();
        {
            Scope u(t, "unit");
            t.arg(u.id(), "bits", bits);
            {
                Scope s(t, "install");
                exec.installPrecision(bits);
            }
            l.installUs.push_back((nowS() - t0) * 1e6);
            Scope s(t, "execute");
            exec.execute(src.data(), dst.data(), rows);
        }
        l.unitUs.push_back((nowS() - t0) * 1e6);
        uint64_t fills =
            engine.cellHydrations() - h0 + engine.columnRebuilds() - b0;
        l.fills += fills;
        l.hydrations += engine.cellHydrations() - h0;
        l.evictions += engine.cacheEvictions() - e0;
        l.coldInstalls += fills > 0 ? 1 : 0;
        for (size_t j = 0; j < reqs; ++j)
            chk.checkRows((unit * reqs + j) % pool.x.size(), bits,
                          out.data() + j * per_req * cols);
    }
    l.selfUs = t.selfTimeUs("unit");
    l.spansPerUnit = static_cast<double>(t.countUnder("unit")) /
                     static_cast<double>(unit);
}

/**
 * Goodput, a per-layer diagnostic of the traced mini run: the highest
 * offered rate whose windowed p99 stays within 20 ms with at most 0.1%
 * of requests failed while the server keeps up with 97% of the offered
 * rows, by a six-probe log-scale bisection over [4000, 64000] rows/s.
 * Each probe is short and its pass/fail flips with a few milliseconds
 * of host stall, so it is too noisy to be an end-to-end metric. The
 * probes' submits are not traced: at up to 64000 rows/s their spans
 * would swamp the trace and slow the generator. Returns the probes;
 * sets l.goodputRowsS.
 */
Json
goodput(const Options &o, const Spec &spec, const Pool &pool, Checker &chk,
        Deployment &dep, LayerReport &l, Tracer &t)
{
    Scope sp(t, "goodput");
    Tracer quiet(false);
    Json probes = Json::array();
    LogBisection bis(4000.0, 64000.0, 6);
    for (int k = 0; !bis.done(); ++k) {
        double rate = bis.next();
        Phase ph = openLoop(*dep.server, dep.tenant, spec, pool, chk,
                            "probe", rate, 0.025 * o.seconds,
                            o.seed * 31 + 100 + k, quiet);
        Series s;
        s.add(ph);
        bool pass = median(s.tail) <= 20.0 &&
                    ph.failed <= ph.attempted / 1000 &&
                    ph.achieved >= 0.97 * rate;
        bis.record(pass);
        Json pj = Json::object();
        pj.set("offered_rows_s", Json(rate));
        pj.set("achieved_rows_s", Json(ph.achieved));
        pj.set("p99_ms", Json(median(s.tail)));
        pj.set("failed", Json(ph.failed));
        pj.set("pass", Json(pass));
        probes.push(std::move(pj));
    }
    l.goodputRowsS = bis.result();
    return probes;
}

/** The traced run of a serving workload: per-layer metrics only. */
void
tracedRun(const Options &o, const Spec &spec, const Pool &pool,
          Checker &chk, Deployment &dep, LayerReport &l, Result &r,
          Tracer &t)
{
    RpsEngine &engine = dep.session->engine();
    serve::ServeStats s0 = dep.server->stats();
    double io0 = rcharBytes();
    Phase ph = spec.r50
                   ? closedLoop(*dep.server, dep.tenant, spec, pool, chk,
                                "traced", 8, 0.25 * o.seconds, t)
                   : openLoop(*dep.server, dep.tenant, spec, pool, chk,
                              "traced", 12000.0, 0.25 * o.seconds,
                              o.seed * 31 + 7, t);
    serve::ServeStats s1 = dep.server->stats();
    double batches = static_cast<double>(s1.batches - s0.batches);
    l.unitRows = batches > 0.0
                     ? static_cast<double>(s1.rows - s0.rows) / batches
                     : 0.0;
    l.ioBytesPerUnit = batches > 0.0 ? (rcharBytes() - io0) / batches : 0.0;
    l.generatorBusyFrac = ph.submitS / ph.seconds;
    r.details.set("traced_phase", windowsOf(ph, spec.rowsPerRequest, 1).json());
    r.attempted += ph.attempted;
    r.failed += ph.failed;
    // Before the replay, which pauses the server.
    if (!spec.r50)
        r.details.set("goodput_probes",
                      goodput(o, spec, pool, chk, dep, l, t));

    replay(dep, spec, pool, chk, 0.25 * o.seconds, l, t);

    Tensor x({spec.replayRows, spec.shape[0], spec.shape[1], spec.shape[2]});
    for (int i = 0; i < spec.replayRows; ++i)
        x.setSlice0(i, pool.x[static_cast<size_t>(i) % pool.x.size()].slice0(
                           0, 1));
    {
        Scope s(t, "plan_profile");
        profilePlan(dep.session->network(), engine,
                    serve::PlanMode::Quantized, x, o.smoke ? 2 : 10, l);
    }
    double elem = 0.0;
    for (int b : pool.bits)
        elem += b <= 8 ? 1.0 : 2.0;
    convCost(dep.session->network(), spec.replayRows, spec.shape[1],
             elem / static_cast<double>(pool.bits.size()), l);
    l.masterBytes = masterBytes(dep.session->network());
    l.cacheBytes = static_cast<double>(engine.cacheBytes());
    emitLayers(l, r);
    if (spec.r50 && l.forwardUs > 0.0)
        r.details.set("step_coverage", Json(l.stepSumUs / l.forwardUs));
}

} // namespace

void
prepareServing(const Options &o)
{
    Spec spec = specFor(o);
    Network net = buildModel(spec);
    {
        Rng cal_rng(63);
        Calibrator cal(net);
        cal.calibrate({Tensor::uniform(
            {8, spec.shape[0], spec.shape[1], spec.shape[2]}, cal_rng, 0.0f,
            1.0f)});
    }
    RpsEngine engine(net);
    for (int bits : net.precisionSet().bits())
        engine.setPrecision(bits);
    checkpoint::SaveOptions so;
    so.includeEngineCache = true;
    so.includeEnginePacks = true;
    checkpoint::save(artifactPath(o), net, &engine, so);

    Pool pool;
    pool.bits = net.precisionSet().bits();
    pool.fullCacheBytes = engine.cacheBytes();
    pool.budgetBytes = static_cast<uint64_t>(
        spec.budgetFrac * static_cast<double>(pool.fullCacheBytes));
    Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
    for (int i = 0; i < spec.poolRequests; ++i)
        pool.x.push_back(Tensor::uniform({spec.rowsPerRequest,
                                          spec.shape[0], spec.shape[1],
                                          spec.shape[2]},
                                         rng, 0.0f, 1.0f));
    {
        // References come from the in-process model on the serial
        // legacy path, independent of the loaded artifact, the plans
        // and the pool the server shards across.
        ThreadPool::ScopedSerial serial;
        for (const Tensor &x : pool.x) {
            pool.ref.emplace_back();
            for (int bits : pool.bits)
                pool.ref.back().push_back(engine.forwardQuantizedAt(bits, x));
        }
    }
    writePool(poolPath(o), pool);
}

void
runServing(const Options &o, Result &r, Tracer &t)
{
    // A 1 ns timer slack lets the generator wake within microseconds
    // of each due time instead of the default 50 us.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Spec spec = specFor(o);
    Pool pool = readPool(poolPath(o));
    Checker chk(pool, r);
    LayerReport l;
    Deployment dep;
    std::vector<double> setup;
    setUp(o, spec, pool, chk, dep, l, setup, t);
    r.details.set("full_cache_mb", Json(pool.fullCacheBytes / 1048576.0));
    r.details.set("budget_mb", Json(pool.budgetBytes / 1048576.0));

    const double sec = o.seconds;
    // Unmeasured warm-up: a fresh server can run at about half speed
    // for its first second or so.
    if (spec.r50)
        closedLoop(*dep.server, dep.tenant, spec, pool, chk, "warmup", 8,
                   0.15 * sec, t);
    else
        openLoop(*dep.server, dep.tenant, spec, pool, chk, "warmup",
                 12000.0, 0.15 * sec, o.seed * 31 + 1, t);

    if (o.traced()) {
        tracedRun(o, spec, pool, chk, dep, l, r, t);
    } else {
        // all[0] gives the latencies, all.back() the throughput.
        std::vector<Series> all;
        if (spec.r50) {
            Phase ph = closedLoop(*dep.server, dep.tenant, spec, pool, chk,
                                  "closed8", 8, 0.85 * sec, t);
            all.push_back(windowsOf(ph, spec.rowsPerRequest, 10));
            // A window holds too few requests for a p99 of its own; the
            // tail comes from the whole phase instead.
            Tail whole = windowedTail(ph.at, ph.latMs, 0.0, ph.seconds, 1);
            all[0].tail.assign(1, whole.value);
            all[0].tailPct = whole.pct;
        } else {
            // Low, high and saturation segments take turns, eight times
            // over, so each kind samples the whole run.
            all.resize(3);
            all[0].name = "low";
            all[0].offered = 4000.0;
            all[1].name = "high";
            all[1].offered = 12000.0;
            all[2].name = "closed64";
            const int kRounds = 8;
            double seg = 0.85 * sec / (3 * kRounds);
            for (int k = 0; k < kRounds; ++k) {
                uint64_t s = o.seed * 31 + 10 * k;
                for (int i = 0; i < 2; ++i)
                    all[static_cast<size_t>(i)].add(openLoop(
                        *dep.server, dep.tenant, spec, pool, chk,
                        all[static_cast<size_t>(i)].name,
                        all[static_cast<size_t>(i)].offered, seg, s + i, t));
                all[2].add(closedLoop(*dep.server, dep.tenant, spec, pool,
                                      chk, all[2].name, 64, seg, t));
            }
        }
        Json phases = Json::array();
        for (const Series &s : all) {
            phases.push(s.json());
            r.attempted += s.attempted;
            r.failed += s.failed;
        }
        const Series &lat = all.front();
        const Series &thr = all.back();
        r.metric("throughput", median(thr.rate), "items/s", thr.rate.size(),
                 "closed-loop rows/s, median of segments");
        r.metric("p50_ms", median(lat.p50), "ms", lat.served,
                 lat.name + " load, median of segment p50s");
        r.metric("tail_ms", median(lat.tail), "ms", lat.served,
                 lat.name + " load, " + pctLabel(lat.tailPct) +
                     (lat.tail.size() > 1 ? ", median of windows" : ""));
        r.metric("setup_s", median(setup), "s", setup.size(),
                 "fromCheckpoint -> addTenant -> first reply");
        r.details.set("phases", std::move(phases));
    }
    RpsEngine &engine = dep.session->engine();
    r.details.set("cache_evictions", Json(engine.cacheEvictions()));
    r.details.set("cell_hydrations", Json(engine.cellHydrations()));
    r.details.set("replies_checked", Json(chk.checked()));
    r.details.set("wrong_replies", Json(chk.wrongCount()));
    r.failed += chk.wrongCount();
}

} // namespace rpsbench

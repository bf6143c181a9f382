/**
 * @file
 * Scenario runner implementation.
 */

#include "harness/runner.hh"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "adversarial/epgd.hh"
#include "adversarial/fgsm.hh"
#include "adversarial/pgd.hh"
#include "adversarial/trainer.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "io/checkpoint.hh"
#include "io/serialize.hh"
#include "nn/model_zoo.hh"
#include "quant/rps_engine.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

namespace twoinone {
namespace harness {

namespace {

TrainMethod
trainMethodFromName(const std::string &name)
{
    if (name == "natural")
        return TrainMethod::Natural;
    if (name == "fgsm")
        return TrainMethod::Fgsm;
    if (name == "pgd7")
        return TrainMethod::Pgd7;
    if (name == "free")
        return TrainMethod::Free;
    TWOINONE_PANIC("unvalidated train method reached the runner: ",
                   name);
}

Network
buildModel(const ScenarioSpec &spec, Rng &rng)
{
    ModelConfig mc;
    mc.numClasses = spec.data.numClasses;
    mc.baseWidth = spec.model.baseWidth;
    if (!spec.model.precisions.empty())
        mc.precisions = PrecisionSet(spec.model.precisions);
    if (spec.model.arch == "preact_mini")
        return preActResNetMini(mc, rng);
    if (spec.model.arch == "wide_mini")
        return wideResNetMini(mc, rng);
    return convNetTiny(mc, rng);
}

std::unique_ptr<Attack>
buildAttack(const AttackSpec &as, const PrecisionSet &candidates)
{
    AttackConfig cfg = AttackConfig::fromEps255(
        static_cast<float>(as.eps255),
        static_cast<float>(as.alpha255), as.steps);
    if (as.kind == "epgd")
        return std::make_unique<EpgdAttack>(cfg, candidates);
    if (as.kind == "fgsm")
        return std::make_unique<FgsmAttack>(cfg);
    return std::make_unique<PgdAttack>(cfg);
}

/** Argmax hits of the replies @p ys against @p labels, where request
 * r holds rows [r * rowsPerRequest, (r + 1) * rowsPerRequest). A shed
 * request (empty logits, already counted by the Server) scores
 * nothing. Adds the rows scored to @p total. */
uint64_t
scoreReplies(const std::vector<Tensor> &ys,
             const std::vector<int> &labels, int rowsPerRequest,
             uint64_t &total)
{
    uint64_t hits = 0;
    for (size_t r = 0; r < ys.size(); ++r) {
        if (ys[r].empty())
            continue;
        std::vector<int> pred = ops::argmaxRows(ys[r]);
        for (size_t i = 0; i < pred.size(); ++i) {
            size_t row = r * static_cast<size_t>(rowsPerRequest) + i;
            hits += pred[i] == labels[row] ? 1 : 0;
        }
        total += pred.size();
    }
    return hits;
}

/** Lift any budget on @p eng, fill it at every precision of @p set to
 * measure its fully populated size, then cap it at @p pct percent of
 * that. Returns the budget in bytes. */
size_t
clampCache(RpsEngine &eng, const PrecisionSet &set, int pct)
{
    EngineCacheConfig ec = eng.cacheConfig();
    ec.budgetBytes = 0;
    eng.setCacheConfig(ec);
    for (int bits : set.bits())
        eng.setPrecision(bits);
    ec.budgetBytes = eng.cacheBytes() * static_cast<size_t>(pct) / 100;
    eng.setCacheConfig(ec);
    return ec.budgetBytes;
}

/** Journaled error strings must not depend on where the bundle lives
 * (same-seed runs into different --out dirs are digest-identical), so
 * every occurrence of the bundle path becomes a placeholder. */
std::string
scrubBundlePath(std::string s, const std::string &bundle)
{
    for (size_t pos = s.find(bundle); pos != std::string::npos;
         pos = s.find(bundle, pos)) {
        s.replace(pos, bundle.size(), "<bundle>");
        pos += std::strlen("<bundle>");
    }
    return s;
}

} // namespace

void
ensureDir(const std::string &path)
{
    std::string cur;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            cur.push_back(path[i]);
            continue;
        }
        if (i < path.size())
            cur.push_back('/');
        if (cur.empty() || cur == "/")
            continue;
        if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST)
            TWOINONE_PANIC("cannot create directory ", cur, ": ",
                           std::strerror(errno));
    }
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        TWOINONE_PANIC("cannot open ", path, " for writing");
    out << text;
    out.flush();
    TWOINONE_ASSERT(static_cast<bool>(out), "short write to ", path);
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, std::string outDir)
    : spec_(std::move(spec)), outDir_(std::move(outDir)),
      attackRng_(spec_.seed ^ 0xADF0ULL)
{
    bundle_ = outDir_ + "/" + spec_.name;
    ckptPath_ = bundle_ + "/model.ckpt";
}

RunResult
ScenarioRunner::run()
{
    setUp();
    deploySession();
    if (spec_.tuning.enabled)
        runTuning();
    for (size_t i = 0; i < spec_.phases.size(); ++i)
        runPhase(static_cast<int>(i));
    foldSession();
    journal_->emit("run_complete",
                   [&] {
                       Json d = Json::object();
                       d.set("phases",
                             Json(static_cast<uint64_t>(
                                 spec_.phases.size())));
                       d.set("faults_injected",
                             Json(injector_->injected()));
                       d.set("faults_recovered",
                             Json(injector_->recovered()));
                       return d;
                   }());
    journal_->close();

    RunResult res;
    res.metrics = buildMetrics();
    res.bundleDir = bundle_;
    res.metricsPath = bundle_ + "/metrics.json";
    res.faultsRecovered =
        injector_->injected() == injector_->recovered();
    writeTextFile(res.metricsPath, res.metrics.dump(2) + "\n");
    return res;
}

void
ScenarioRunner::setUp()
{
    ensureDir(bundle_);

    Json run = Json::object();
    run.set("harness_format", Json(1));
    run.set("name", Json(spec_.name));
    run.set("seed", Json(spec_.seed));
    run.set("isa_tier",
            Json(gemm::isaTierName(gemm::activeIsaTier())));
    run.set("spec", spec_.echo);
    writeTextFile(bundle_ + "/run.json", run.dump(2) + "\n");

    journal_ =
        std::make_unique<EventJournal>(bundle_ + "/events.jsonl");
    injector_ = std::make_unique<FaultInjector>(spec_.faults,
                                                spec_.seed, *journal_);

    SyntheticConfig dc = spec_.data;
    dc.seed = spec_.seed ^ 0xDA7AULL;
    data_ = makeSynthetic(dc, spec_.name + "-data");

    Json d = Json::object();
    d.set("classes", Json(spec_.data.numClasses));
    d.set("train", Json(spec_.data.trainSize));
    d.set("test", Json(spec_.data.testSize));
    journal_->emit("dataset", std::move(d));
}

void
ScenarioRunner::deploySession()
{
    Rng mrng(spec_.seed ^ 0x30DE1ULL);
    Network net = buildModel(spec_, mrng);
    {
        Json d = Json::object();
        d.set("arch", Json(spec_.model.arch));
        d.set("precisions", Json(net.precisionSet().name()));
        journal_->emit("model", std::move(d));
    }

    if (spec_.model.trainEpochs > 0) {
        TrainConfig tc;
        tc.method = trainMethodFromName(spec_.model.trainMethod);
        tc.epochs = spec_.model.trainEpochs;
        tc.batchSize = 32;
        tc.rps = true;
        tc.seed = spec_.seed ^ 0x7EA1ULL;
        Trainer trainer(net, tc);
        trainer.fit(data_.train);
        Json d = Json::object();
        d.set("method", Json(spec_.model.trainMethod));
        d.set("epochs", Json(spec_.model.trainEpochs));
        d.set("steps", Json(trainer.stepsTaken()));
        journal_->emit("train", std::move(d));
    }

    // Persist through a temporary owning session so deployment takes
    // the same artifact-load path production does.
    {
        Session staging = Session::fromNetwork(std::move(net));
        if (spec_.model.calibrateBatches > 0) {
            std::vector<Tensor> batches;
            int rows = std::min(16, data_.train.size());
            int span = std::max(1, data_.train.size() - rows + 1);
            for (int i = 0; i < spec_.model.calibrateBatches; ++i) {
                int start = (i * rows) % span;
                batches.push_back(
                    data_.train.batch(start, rows).images);
            }
            staging.calibrate(batches);
            Json d = Json::object();
            d.set("batches", Json(spec_.model.calibrateBatches));
            journal_->emit("calibrate", std::move(d));
        }
        staging.save(ckptPath_);
        ++ckptSaves_;
        journal_->emit("checkpoint_save", [&] {
            Json d = Json::object();
            d.set("artifact", Json("model.ckpt"));
            d.set("stage", Json("deploy"));
            return d;
        }());
    }

    installSession(loadSession());
    journal_->emit("session_deploy", [&] {
        Json d = Json::object();
        d.set("candidates", Json(session_->candidates().name()));
        d.set("mode", Json(spec_.serving.mode == serve::PlanMode::Float
                               ? "float"
                               : "quantized"));
        d.set("async", Json(spec_.async));
        if (spec_.session.streamArtifact)
            d.set("stream", Json(true));
        if (spec_.cacheBudgetPct > 0)
            d.set("cache_budget_pct", Json(spec_.cacheBudgetPct));
        if (spec_.async)
            d.set("sessions", Json(spec_.sessions));
        return d;
    }());
}

void
ScenarioRunner::installSession(Session next)
{
    foldSession();
    server_.reset();
    extraTenants_.clear();
    tenantIds_.clear();
    session_ = std::move(next);
    ++ckptLoads_;

    serve::ServerConfig sc = spec_.server;
    sc.clock = &clock_;
    server_ = std::make_unique<serve::Server>(sc);
    const std::vector<int> &shape = session_->config().inputShape;
    tenantIds_.push_back(server_->addTenant(*session_, shape));
    for (int i = 1; i < spec_.sessions; ++i) {
        // Extra tenants share the deployed model and engine but draw
        // their batch precisions from their own seeded streams.
        SessionConfig cfg;
        cfg.serving = session_->config().serving;
        cfg.serving.seed = spec_.seed + static_cast<uint64_t>(i);
        extraTenants_.push_back(Session::attach(
            session_->network(), session_->engine(), std::move(cfg)));
    }
    for (Session &t : extraTenants_)
        tenantIds_.push_back(server_->addTenant(t, shape));
    tenantTraceMarks_.assign(tenantIds_.size(), 0);
}

tune::TuneResult
ScenarioRunner::runTuning()
{
    tune::TuneConfig tc;
    // Derived from the scenario seed, so same spec + seed = same
    // winning genome and artifact bytes.
    tc.seed = spec_.seed ^ 0x7C3EULL;
    tc.population = spec_.tuning.population;
    tc.cycles = spec_.tuning.cycles;
    tc.measuredProbes = spec_.tuning.probeRequests > 0;
    tc.probeRows = std::max(1, spec_.tuning.probeRequests);
    tune::TuneResult res = tune::autotune(*session_, tc);
    std::string selected = res.artifact.genome.describe();
    double cost = static_cast<double>(res.artifact.predictedCost);
    uint64_t candidates = static_cast<uint64_t>(res.candidates.size());
    uint64_t evaluated = static_cast<uint64_t>(res.evaluated);

    // Measured probe values never reach the journal: events stay a
    // pure function of the spec + seed on one machine.
    Json d = Json::object();
    d.set("genome", Json(selected));
    d.set("predicted_cost", Json(cost));
    d.set("candidates", Json(candidates));
    d.set("evaluated", Json(evaluated));
    d.set("cycles", Json(spec_.tuning.cycles));
    d.set("population", Json(spec_.tuning.population));
    d.set("found", Json(res.found));
    journal_->emit("tuning_selected", std::move(d));

    tuning_ = Json::object();
    tuning_.set("selected", Json(selected));
    tuning_.set("predicted_cost", Json(cost));
    tuning_.set("candidates", Json(candidates));
    tuning_.set("evaluated", Json(evaluated));
    tuning_.set("mean_error_pct", Json(res.meanErrorPct));
    tuning_.set("applied", Json(spec_.tuning.apply && res.found));

    if (spec_.tuning.apply && res.found) {
        // Embed the winner and take the production path: re-save the
        // artifact, reload through Session::fromCheckpoint (which
        // auto-applies the genome), rebuild the Server (which adopts
        // the server-scoped knobs from the tenant's artifact).
        session_->setTuningArtifact(res.artifact);
        session_->save(ckptPath_);
        ++ckptSaves_;
        journal_->emit("checkpoint_save", [&] {
            Json sd = Json::object();
            sd.set("artifact", Json("model.ckpt"));
            sd.set("stage", Json("tuned"));
            return sd;
        }());
        installSession(loadSession());
        const serve::ServeConfig &applied =
            session_->config().serving;
        Json a = Json::object();
        a.set("max_batch", Json(applied.maxBatch));
        a.set("micro_batch", Json(applied.microBatch));
        a.set("replicas", Json(applied.replicas));
        a.set("policy", Json(serve::schedulingPolicyName(
                            server_->config().policy)));
        a.set("max_delay_us", Json(res.artifact.genome.maxDelayUs));
        journal_->emit("tuning_applied", std::move(a));
    }
    return res;
}

tune::TuneResult
ScenarioRunner::tuneOnly()
{
    setUp();
    deploySession();
    tune::TuneResult res = runTuning();
    foldSession();
    journal_->close();
    writeTextFile(bundle_ + "/metrics.json",
                  buildMetrics().dump(2) + "\n");
    return res;
}

Session
ScenarioRunner::loadSession()
{
    SessionConfig cfg = spec_.session;
    cfg.serving = spec_.serving;
    cfg.serving.seed = spec_.seed;
    // The request image geometry, for the Server and the autotuner's
    // probes/analytical workload.
    for (int i = 1; i < data_.test.images.ndim(); ++i)
        cfg.inputShape.push_back(data_.test.images.dim(i));
    cfg.onLoadRetry = [this](int attempt, const std::string &error) {
        ++loadRetries_;
        Json d = Json::object();
        d.set("attempt", Json(attempt));
        d.set("error", Json(scrubBundlePath(error, bundle_)));
        journal_->emit("load_retry", std::move(d));
    };
    Session s = Session::fromCheckpoint(ckptPath_, std::move(cfg));
    // The spec budget is a percentage of the fully populated cache:
    // serving runs under LRU eviction from the first batch.
    if (spec_.cacheBudgetPct > 0)
        clampCache(s.engine(), s.candidates(), spec_.cacheBudgetPct);
    return s;
}

Dataset
ScenarioRunner::takeBatch(int rows)
{
    TWOINONE_ASSERT(rows <= data_.test.size(),
                    "scenario traffic batch exceeds the test set");
    if (cursor_ + rows > data_.test.size())
        cursor_ = 0;
    Dataset b = data_.test.batch(cursor_, rows);
    cursor_ += rows;
    return b;
}

void
ScenarioRunner::foldSession()
{
    if (!session_)
        return;
    // The Server carries the stats and per-tenant traces; flush() has
    // quiesced the dispatcher at every fold point. Traces concatenate
    // in tenant order — deterministic.
    serve::ServeStats s = server_->stats();
    accRequests_ += s.requests;
    accRows_ += s.rows;
    accBatches_ += s.batches;
    accRejected_ += s.rejected;
    accShed_ += s.shed;
    accWall_ += s.wallSeconds;
    accRebuilds_ += session_->engine().columnRebuilds();
    accEvictions_ += session_->engine().cacheEvictions();
    accHydrations_ += session_->engine().cellHydrations();
    for (serve::Server::TenantId id : tenantIds_) {
        const std::vector<int> &tr = server_->precisionTrace(id);
        trace_.insert(trace_.end(), tr.begin(), tr.end());
    }
}

void
ScenarioRunner::runPhase(int index)
{
    const PhaseSpec &ps = spec_.phases[static_cast<size_t>(index)];
    {
        Json d = Json::object();
        d.set("phase", Json(index));
        d.set("kind", Json(ps.type));
        d.set("points", Json(ps.points));
        journal_->emit("phase_start", std::move(d));
    }

    for (int p = 0; p < ps.points; ++p) {
        bool starved = applyFaults(index, p);
        if (ps.type == "adversarial")
            adversarialPoint(index, p, ps, starved);
        else if (ps.type == "soak")
            soakCycle(index, p, ps, starved);
        else
            steadyPoint(index, p, ps.requestsPerPoint, ps.rowsPerRequest,
                        starved);
    }

    Json d = Json::object();
    d.set("phase", Json(index));
    journal_->emit("phase_end", std::move(d));
}

std::vector<Tensor>
ScenarioRunner::serveRequests(std::vector<Tensor> xs, bool starved)
{
    // A starved pool serves the whole point inline: the guard is
    // process-wide, so it reaches the dispatcher thread.
    std::optional<ThreadPool::ScopedSerial> serial;
    if (starved)
        serial.emplace();
    std::vector<std::future<serve::Reply>> futs;
    futs.reserve(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        // Round-robin the tenants: every session sees traffic and
        // the dispatcher's fair scheduling is exercised.
        serve::Server::TenantId tenant =
            tenantIds_[i % tenantIds_.size()];
        futs.push_back(server_->submit(tenant, std::move(xs[i])));
    }
    server_->flush();
    std::vector<Tensor> out;
    out.reserve(futs.size());
    for (auto &f : futs) {
        try {
            out.push_back(std::move(f.get().y));
        } catch (const serve::ServeError &) {
            // Shed (deadline/shutdown) — already counted by the
            // Server; the caller skips its accuracy rows.
            out.emplace_back();
        }
    }
    return out;
}

void
ScenarioRunner::journalPoint(const char *event, int phase, int point,
                             const Json &fields, bool starved)
{
    Json d = Json::object();
    d.set("phase", Json(phase));
    d.set("point", Json(point));
    for (const auto &kv : fields.members())
        d.set(kv.first, kv.second);
    // Per-tenant trace deltas since the last point, flattened in
    // tenant order (flush() has quiesced the dispatcher).
    Json drawn = Json::array();
    for (size_t t = 0; t < tenantIds_.size(); ++t) {
        const std::vector<int> &tr =
            server_->precisionTrace(tenantIds_[t]);
        for (size_t i = tenantTraceMarks_[t]; i < tr.size(); ++i)
            drawn.push(Json(tr[i]));
        tenantTraceMarks_[t] = tr.size();
    }
    d.set("precisions", std::move(drawn));
    journal_->emit(event, std::move(d));

    if (starved) {
        // The point was served inline on the starved pool — the
        // server degraded to serial execution without shedding work.
        Json r = Json::object();
        r.set("kind", Json("starve_pool"));
        r.set("phase", Json(phase));
        r.set("point", Json(point));
        r.set("via", Json("serial_drain"));
        injector_->settle(std::move(r), true);
    }
}

void
ScenarioRunner::steadyPoint(int phase, int point, int nRequests,
                            int rowsPerRequest, bool starved)
{
    std::vector<Tensor> xs;
    std::vector<int> labels;
    xs.reserve(static_cast<size_t>(nRequests));
    for (int r = 0; r < nRequests; ++r) {
        Dataset b = takeBatch(rowsPerRequest);
        xs.push_back(std::move(b.images));
        labels.insert(labels.end(), b.labels.begin(), b.labels.end());
    }
    natCorrect_ += scoreReplies(serveRequests(std::move(xs), starved),
                                labels, rowsPerRequest, natTotal_);

    Json d = Json::object();
    d.set("requests", Json(nRequests));
    d.set("rows", Json(nRequests * rowsPerRequest));
    journalPoint("point", phase, point, d, starved);
}

void
ScenarioRunner::adversarialPoint(int phase, int point,
                                 const PhaseSpec &ps, bool starved)
{
    int rows = ps.requestsPerPoint * ps.rowsPerRequest;
    Dataset clean = takeBatch(rows);

    // The adversary samples its own generation precision from the
    // candidate set (the paper's threat model) and crafts against the
    // live network; serving then draws independent batch precisions —
    // the robust-accuracy gap under live switching is the defense.
    int attackBits = session_->candidates().sample(attackRng_);
    session_->switchPrecision(attackBits);
    std::unique_ptr<Attack> attack =
        buildAttack(ps.attack, session_->candidates());
    Tensor adv = attack->perturb(session_->network(), clean.images,
                                 clean.labels, attackRng_);

    std::vector<Tensor> xs;
    xs.reserve(static_cast<size_t>(ps.requestsPerPoint));
    for (int r = 0; r < ps.requestsPerPoint; ++r)
        xs.push_back(
            adv.slice0(r * ps.rowsPerRequest, ps.rowsPerRequest));
    uint64_t correct =
        scoreReplies(serveRequests(std::move(xs), starved),
                     clean.labels, ps.rowsPerRequest, robTotal_);
    robCorrect_ += correct;

    Json d = Json::object();
    d.set("attack", Json(ps.attack.kind));
    d.set("attack_bits", Json(attackBits));
    d.set("rows", Json(rows));
    d.set("correct", Json(correct));
    journalPoint("attack_point", phase, point, d, starved);
}

void
ScenarioRunner::soakCycle(int phase, int cycle, const PhaseSpec &ps,
                          bool starved)
{
    for (int b = 0; b < ps.batchesPerCycle; ++b)
        steadyPoint(phase, cycle * ps.batchesPerCycle + b,
                    ps.requestsPerPoint, ps.rowsPerRequest,
                    starved && b == 0);
    if ((cycle + 1) % ps.checkpointEvery == 0) {
        saveCheckpoint(phase, cycle);
        reloadSession(phase, cycle);
    }
}

bool
ScenarioRunner::applyFaults(int phase, int point)
{
    bool starved = false;
    for (const FaultSpec *f : injector_->at(phase, point)) {
        Json d = Json::object();
        d.set("kind", Json(f->type));
        d.set("phase", Json(phase));
        d.set("point", Json(point));

        if (f->type == "cache_storm") {
            uint64_t before = session_->engine().columnRebuilds();
            for (int s = 0; s < f->storms; ++s) {
                session_->engine().detach();
                session_->engine().refresh();
            }
            ++cacheStorms_;
            d.set("storms", Json(f->storms));
            d.set("rebuilds",
                  Json(session_->engine().columnRebuilds() - before));
            injector_->fired(std::move(d));
            // The engine rebuilt its full cache each storm; serving
            // continues from the refreshed cells.
            Json r = Json::object();
            r.set("kind", Json("cache_storm"));
            r.set("via", Json("cache_rebuild"));
            injector_->settle(std::move(r), true);
        } else if (f->type == "memory_pressure") {
            // Clamp the cache to the fault's share of its true full
            // size, then drive full candidate sweeps through it — an
            // eviction storm. The budget stays in force afterwards,
            // so the remaining traffic keeps serving under memory
            // pressure.
            RpsEngine &eng = session_->engine();
            size_t budget =
                clampCache(eng, session_->candidates(), f->budgetPct);
            for (int s = 0; s < f->storms; ++s) {
                for (int bits : session_->candidates().bits())
                    eng.setPrecision(bits);
            }
            ++memPressure_;
            d.set("budget_pct", Json(f->budgetPct));
            d.set("storms", Json(f->storms));
            injector_->fired(std::move(d));
            // Recovered = the LRU held the byte invariant through
            // the storm; serving continues inside the budget. (Cell
            // byte sizes are ISA-tier-dependent, so eviction counts
            // never reach the journal — only the invariant does.)
            bool within = eng.cacheBytes() <= budget;
            Json r = Json::object();
            r.set("kind", Json("memory_pressure"));
            r.set("via", Json("lru_eviction"));
            r.set("within_budget", Json(within));
            injector_->settle(std::move(r), within);
        } else if (f->type == "starve_pool") {
            // The starved point settles the fault once it is served.
            starved = true;
            injector_->fired(std::move(d));
        } else if (f->type == "malformed_request") {
            injector_->fired(std::move(d));
            injectMalformedRequest(*f, phase, point);
        } else { // torn_save / corrupt_checkpoint
            journal_->emit("fault_armed", std::move(d));
        }
    }
    return starved;
}

void
ScenarioRunner::injectMalformedRequest(const FaultSpec &f, int phase,
                                       int point)
{
    Tensor bad;
    if (f.kind == "oversized") {
        Dataset b = takeBatch(1);
        std::vector<int> shape = b.images.shape();
        shape[0] = spec_.serving.maxBatch + 1;
        bad = Tensor(shape, 0.5f);
    } else if (f.kind == "wrong_shape") {
        Dataset b = takeBatch(1);
        std::vector<int> shape = b.images.shape();
        shape[static_cast<size_t>(shape.size()) - 1] += 1;
        bad = Tensor(shape, 0.5f);
    } else { // wrong_rank
        bad = Tensor({2, 3}, 0.5f);
    }
    Json d = Json::object();
    d.set("kind", Json("malformed_request"));
    d.set("request", Json(f.kind));
    try {
        server_->submit(tenantIds_[0], std::move(bad));
        // A malformed request that the server accepted is a real
        // robustness hole: leave the fault unrecovered.
        d.set("accepted", Json(true));
        injector_->settle(std::move(d), false);
    } catch (const serve::ServeError &e) {
        d.set("phase", Json(phase));
        d.set("point", Json(point));
        d.set("error", Json(scrubBundlePath(e.what(), bundle_)));
        injector_->settle(std::move(d), true, "request_rejected");
    }
}

void
ScenarioRunner::saveCheckpoint(int phase, int cycle)
{
    bool torn = injector_->find("torn_save", phase, cycle) != nullptr;
    if (torn)
        injector_->armTornWrite(ckptPath_);
    try {
        session_->save(ckptPath_);
        injector_->disarm();
        ++ckptSaves_;
        Json d = Json::object();
        d.set("artifact", Json("model.ckpt"));
        d.set("phase", Json(phase));
        d.set("point", Json(cycle));
        journal_->emit("checkpoint_save", std::move(d));
    } catch (const io::CheckpointError &e) {
        injector_->disarm();
        if (!torn)
            throw; // not ours — a genuine save failure
        Json d = Json::object();
        d.set("phase", Json(phase));
        d.set("point", Json(cycle));
        d.set("error", Json(scrubBundlePath(e.what(), bundle_)));
        journal_->emit("save_failed", std::move(d));
        // The save protocol is temp-file + rename: a torn write must
        // leave the previous artifact fully readable.
        bool intact = true;
        try {
            checkpoint::Checkpoint::read(ckptPath_);
        } catch (const io::CheckpointError &) {
            intact = false;
        }
        Json r = Json::object();
        r.set("kind", Json("torn_save"));
        r.set("target_intact", Json(intact));
        injector_->settle(std::move(r), intact);
    }
}

void
ScenarioRunner::reloadSession(int phase, int cycle)
{
    const FaultSpec *corrupt =
        injector_->find("corrupt_checkpoint", phase, cycle);
    if (corrupt != nullptr)
        injector_->armCorruptRead(*corrupt, ckptPath_);
    uint64_t retriesBefore = loadRetries_;
    try {
        Session next = loadSession();
        injector_->disarm();
        installSession(std::move(next));
        Json d = Json::object();
        d.set("phase", Json(phase));
        d.set("point", Json(cycle));
        if (spec_.session.streamArtifact)
            d.set("stream", Json(true));
        journal_->emit("checkpoint_load", std::move(d));
        if (corrupt != nullptr) {
            // The corrupted read was survived via the retry budget.
            Json r = Json::object();
            r.set("kind", Json("corrupt_checkpoint"));
            r.set("via", Json("load_retry"));
            r.set("retries", Json(loadRetries_ - retriesBefore));
            injector_->settle(std::move(r), true);
        }
    } catch (const io::CheckpointError &e) {
        injector_->disarm();
        if (corrupt == nullptr)
            throw; // not ours — a genuine artifact problem
        // Persistent corruption exhausted the retries: degrade by
        // keeping the previously deployed session serving.
        ++degraded_;
        Json d = Json::object();
        d.set("phase", Json(phase));
        d.set("point", Json(cycle));
        d.set("error", Json(scrubBundlePath(e.what(), bundle_)));
        journal_->emit("load_failed", std::move(d));
        Json r = Json::object();
        r.set("kind", Json("corrupt_checkpoint"));
        r.set("via", Json("degraded_to_previous_session"));
        injector_->settle(std::move(r), true);
    }
}

Json
ScenarioRunner::buildMetrics()
{
    Json counts = Json::object();
    counts.set("batches", Json(accBatches_));
    counts.set("rows", Json(accRows_));
    counts.set("requests", Json(accRequests_));
    counts.set("rejected_requests", Json(accRejected_));
    counts.set("shed_requests", Json(accShed_));
    counts.set("events", Json(journal_->count()));
    counts.set("precision_switches",
               Json(static_cast<uint64_t>(trace_.size())));
    counts.set("faults_injected", Json(injector_->injected()));
    counts.set("faults_recovered", Json(injector_->recovered()));
    counts.set("degraded", Json(degraded_));
    counts.set("checkpoint_saves", Json(ckptSaves_));
    counts.set("checkpoint_loads", Json(ckptLoads_));
    counts.set("load_retries", Json(loadRetries_));
    counts.set("cache_storms", Json(cacheStorms_));
    counts.set("column_rebuilds", Json(accRebuilds_));
    // Conditional: scenarios predating the streaming/budget features
    // keep their baseline key sets byte-for-byte.
    if (spec_.session.streamArtifact || spec_.cacheBudgetPct > 0 ||
        memPressure_ > 0) {
        counts.set("cache_evictions", Json(accEvictions_));
        counts.set("cell_hydrations", Json(accHydrations_));
        counts.set("memory_pressure_faults", Json(memPressure_));
    }

    // Precision-trace digest: FNV-1a over the sampled bit-widths as
    // little-endian u32s — machine-independent (pure RNG), so
    // baselines may exact-compare it.
    std::vector<uint8_t> traceBytes;
    traceBytes.reserve(trace_.size() * 4);
    for (int p : trace_) {
        uint32_t u = static_cast<uint32_t>(p);
        traceBytes.push_back(static_cast<uint8_t>(u & 0xFF));
        traceBytes.push_back(static_cast<uint8_t>((u >> 8) & 0xFF));
        traceBytes.push_back(static_cast<uint8_t>((u >> 16) & 0xFF));
        traceBytes.push_back(static_cast<uint8_t>((u >> 24) & 0xFF));
    }
    Json digests = Json::object();
    digests.set("events", Json(journal_->digestHex()));
    digests.set("precision_trace",
                Json(digestToHex(io::fnv1a(
                    traceBytes.data(), traceBytes.size()))));

    Json accuracy = Json::object();
    if (natTotal_ > 0)
        accuracy.set("natural_pct",
                     Json(100.0 * static_cast<double>(natCorrect_) /
                          static_cast<double>(natTotal_)));
    if (robTotal_ > 0)
        accuracy.set("robust_pct",
                     Json(100.0 * static_cast<double>(robCorrect_) /
                          static_cast<double>(robTotal_)));

    serve::ServeStats last = server_->stats();
    Json timing = Json::object();
    timing.set("wall_seconds", Json(accWall_));
    timing.set("qps", Json(accWall_ > 0.0
                               ? static_cast<double>(accRows_) /
                                     accWall_
                               : 0.0));
    timing.set("p50_us", Json(last.p50Us));
    timing.set("p99_us", Json(last.p99Us));
    timing.set("p999_us", Json(last.p999Us));

    Json m = Json::object();
    m.set("scenario", Json(spec_.name));
    m.set("seed", Json(spec_.seed));
    m.set("counts", std::move(counts));
    m.set("digests", std::move(digests));
    m.set("accuracy", std::move(accuracy));
    m.set("timing", std::move(timing));
    // The tuning section lives outside "counts" so baselines can
    // ignore it wholesale while still exact-comparing the traffic
    // counts.
    if (!tuning_.isNull())
        m.set("tuning", tuning_);
    return m;
}

} // namespace harness
} // namespace twoinone

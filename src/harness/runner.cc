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
    mc.numClasses = spec.data.classes;
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

/** Copy rows [start, start+len) of a [N, ...] tensor. */
Tensor
sliceRows(const Tensor &src, int start, int len)
{
    std::vector<int> shape = src.shape();
    shape[0] = len;
    Tensor out(shape);
    size_t rowElems = src.size() / static_cast<size_t>(src.dim(0));
    std::memcpy(out.data(),
                src.data() + static_cast<size_t>(start) * rowElems,
                static_cast<size_t>(len) * rowElems * sizeof(float));
    return out;
}

} // namespace

namespace {

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
    injector_ =
        std::make_unique<FaultInjector>(spec_.faults, spec_.seed);

    SyntheticConfig dc;
    dc.numClasses = spec_.data.classes;
    dc.height = spec_.data.size;
    dc.width = spec_.data.size;
    dc.trainSize = spec_.data.train;
    dc.testSize = spec_.data.test;
    dc.seed = spec_.seed ^ 0xDA7AULL;
    data_ = makeSynthetic(dc, spec_.name + "-data");

    Json d = Json::object();
    d.set("classes", Json(spec_.data.classes));
    d.set("train", Json(spec_.data.train));
    d.set("test", Json(spec_.data.test));
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

    session_.emplace(loadSession());
    ++ckptLoads_;
    journal_->emit("session_deploy", [&] {
        Json d = Json::object();
        d.set("candidates", Json(session_->candidates().name()));
        d.set("mode", Json(spec_.serving.mode));
        d.set("async", Json(spec_.serving.async));
        if (spec_.session.stream)
            d.set("stream", Json(true));
        if (spec_.session.cacheBudgetPct > 0)
            d.set("cache_budget_pct",
                  Json(spec_.session.cacheBudgetPct));
        if (spec_.serving.async)
            d.set("sessions", Json(spec_.serving.sessions));
        return d;
    }());
    rebuildServer();
}

void
ScenarioRunner::teardownServer()
{
    // The Server and the extra tenants hold references into the live
    // session's network and engine — they must die first.
    server_.reset();
    extraTenants_.clear();
    tenantIds_.clear();
    tenantTraceMarks_.clear();
}

void
ScenarioRunner::rebuildServer()
{
    teardownServer();

    serve::ServerConfig sc;
    sc.clock = &clock_;
    // Admission must hold every request one traffic point submits
    // before its flush.
    for (const PhaseSpec &ps : spec_.phases)
        sc.queueCapacity = std::max(
            sc.queueCapacity,
            ps.type == "bursty" ? ps.burstRequests : ps.requestsPerBatch);
    sc.maxBatchDelayUs = static_cast<double>(spec_.serving.maxDelayUs);
    sc.defaultDeadlineUs =
        static_cast<uint64_t>(spec_.serving.deadlineUs);
    sc.policy = spec_.serving.policy == "edf"
                    ? serve::SchedulingPolicy::EarliestDeadlineFirst
                    : serve::SchedulingPolicy::RoundRobin;
    server_ = std::make_unique<serve::Server>(sc);

    // One image of the synthetic set fixes the request geometry.
    std::vector<int> shape;
    for (int i = 1; i < data_.test.images.ndim(); ++i)
        shape.push_back(data_.test.images.dim(i));

    tenantIds_.push_back(server_->addTenant(*session_, shape));
    for (int i = 1; i < spec_.serving.sessions; ++i) {
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

    tuned_ = true;
    tuneCandidates_ = static_cast<uint64_t>(res.candidates.size());
    tuneEvaluated_ = static_cast<uint64_t>(res.evaluated);
    tuneMeanErrPct_ = res.meanErrorPct;
    tunePredictedCost_ =
        static_cast<double>(res.artifact.predictedCost);
    tuneSelected_ = res.artifact.genome.describe();

    // Measured probe values never reach the journal: events stay a
    // pure function of the spec + seed on one machine.
    Json d = Json::object();
    d.set("genome", Json(tuneSelected_));
    d.set("predicted_cost", Json(tunePredictedCost_));
    d.set("candidates", Json(tuneCandidates_));
    d.set("evaluated", Json(tuneEvaluated_));
    d.set("cycles", Json(spec_.tuning.cycles));
    d.set("population", Json(spec_.tuning.population));
    d.set("found", Json(res.found));
    journal_->emit("tuning_selected", std::move(d));

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
        foldSession();
        teardownServer();
        session_ = loadSession();
        ++ckptLoads_;
        rebuildServer();
        tuneApplied_ = true;
        const serve::ServeConfig &applied =
            session_->config().serving;
        Json a = Json::object();
        a.set("max_batch", Json(applied.maxBatch));
        a.set("micro_batch", Json(applied.microBatch));
        a.set("replicas", Json(applied.replicas));
        a.set("policy",
              Json(res.artifact.genome.policy == 1 ? "edf"
                                                   : "round_robin"));
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
    spec_.tuning.enabled = true; // the subcommand implies tuning
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
    SessionConfig cfg;
    cfg.serving.maxBatch = spec_.serving.maxBatch;
    cfg.serving.microBatch = spec_.serving.microBatch;
    cfg.serving.mode = spec_.serving.mode == "float"
                           ? serve::PlanMode::Float
                           : serve::PlanMode::Quantized;
    cfg.serving.seed = spec_.seed;
    cfg.serving.replicas = spec_.serving.replicas;
    cfg.serving.lazyPlanWarmup = spec_.serving.lazyWarmup;
    cfg.serving.drawBits = spec_.serving.drawBits;
    cfg.serving.drawWeights.assign(spec_.serving.drawWeights.begin(),
                                   spec_.serving.drawWeights.end());
    // The request image geometry, for the Server and the autotuner's
    // probes/analytical workload.
    for (int i = 1; i < data_.test.images.ndim(); ++i)
        cfg.inputShape.push_back(data_.test.images.dim(i));
    cfg.loadRetries = spec_.session.loadRetries;
    cfg.loadRetryBackoffMs = spec_.session.retryBackoffMs;
    cfg.streamArtifact = spec_.session.stream;
    cfg.pinnedBits = spec_.session.pinnedBits;
    cfg.onLoadRetry = [this](int attempt, const std::string &error) {
        ++loadRetries_;
        Json d = Json::object();
        d.set("attempt", Json(attempt));
        d.set("error", Json(scrubBundlePath(error, bundle_)));
        journal_->emit("load_retry", std::move(d));
    };
    Session s = Session::fromCheckpoint(ckptPath_, std::move(cfg));
    if (spec_.session.cacheBudgetPct > 0) {
        // The spec budget is a percentage of the fully populated
        // cache: fill it once to measure, then clamp — serving runs
        // under LRU eviction from the first batch.
        RpsEngine &eng = s.engine();
        for (int bits : s.candidates().bits())
            eng.setPrecision(bits);
        EngineCacheConfig ec = eng.cacheConfig();
        ec.budgetBytes =
            eng.cacheBytes() *
            static_cast<size_t>(spec_.session.cacheBudgetPct) / 100;
        eng.setCacheConfig(std::move(ec));
    }
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

Json
ScenarioRunner::traceDelta()
{
    // Per-tenant deltas since the last journal mark, flattened in
    // tenant order (the dispatcher is quiesced by flush() at every
    // journal point).
    Json arr = Json::array();
    for (size_t t = 0; t < tenantIds_.size(); ++t) {
        const std::vector<int> &tr =
            server_->precisionTrace(tenantIds_[t]);
        for (size_t i = tenantTraceMarks_[t]; i < tr.size(); ++i)
            arr.push(Json(tr[i]));
        tenantTraceMarks_[t] = tr.size();
    }
    return arr;
}

void
ScenarioRunner::runPhase(int index)
{
    const PhaseSpec &ps = spec_.phases[static_cast<size_t>(index)];
    {
        Json d = Json::object();
        d.set("phase", Json(index));
        d.set("kind", Json(ps.type));
        d.set("points", Json(ps.points()));
        journal_->emit("phase_start", std::move(d));
    }

    if (ps.type == "steady") {
        for (int b = 0; b < ps.batches; ++b) {
            applyFaults(index, b);
            steadyPoint(index, b, ps.requestsPerBatch,
                        ps.rowsPerRequest);
        }
    } else if (ps.type == "bursty") {
        for (int burst = 0; burst < ps.bursts; ++burst) {
            applyFaults(index, burst);
            steadyPoint(index, burst, ps.burstRequests,
                        ps.rowsPerRequest);
        }
    } else if (ps.type == "adversarial") {
        for (int b = 0; b < ps.batches; ++b) {
            applyFaults(index, b);
            adversarialPoint(index, b, ps);
        }
    } else { // soak
        for (int cycle = 0; cycle < ps.cycles; ++cycle) {
            applyFaults(index, cycle);
            soakCycle(index, cycle, ps);
        }
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
ScenarioRunner::steadyPoint(int phase, int point, int nRequests,
                            int rowsPerRequest)
{
    std::vector<Tensor> xs;
    std::vector<std::vector<int>> labels;
    xs.reserve(static_cast<size_t>(nRequests));
    for (int r = 0; r < nRequests; ++r) {
        Dataset b = takeBatch(rowsPerRequest);
        xs.push_back(b.images);
        labels.push_back(b.labels);
    }
    bool starved = starveNextPoint_;
    starveNextPoint_ = false;
    std::vector<Tensor> ys = serveRequests(std::move(xs), starved);
    for (size_t r = 0; r < ys.size(); ++r) {
        if (ys[r].empty())
            continue; // shed
        std::vector<int> pred = ops::argmaxRows(ys[r]);
        for (size_t i = 0; i < pred.size(); ++i) {
            ++natTotal_;
            if (pred[i] == labels[r][i])
                ++natCorrect_;
        }
    }

    Json d = Json::object();
    d.set("phase", Json(phase));
    d.set("point", Json(point));
    d.set("requests", Json(nRequests));
    d.set("rows", Json(nRequests * rowsPerRequest));
    d.set("precisions", traceDelta());
    journal_->emit("point", std::move(d));

    if (starved) {
        // The point was served inline on the starved pool — the
        // server degraded to serial execution without shedding work.
        injector_->noteRecovered();
        Json r = Json::object();
        r.set("kind", Json("starve_pool"));
        r.set("phase", Json(phase));
        r.set("point", Json(point));
        r.set("via", Json("serial_drain"));
        journal_->emit("fault_recovered", std::move(r));
    }
}

void
ScenarioRunner::adversarialPoint(int phase, int point,
                                 const PhaseSpec &ps)
{
    int rows = ps.requestsPerBatch * ps.rowsPerRequest;
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
    xs.reserve(static_cast<size_t>(ps.requestsPerBatch));
    for (int r = 0; r < ps.requestsPerBatch; ++r)
        xs.push_back(sliceRows(adv, r * ps.rowsPerRequest,
                               ps.rowsPerRequest));
    std::vector<Tensor> ys =
        serveRequests(std::move(xs), /*starved=*/false);
    uint64_t correct = 0;
    for (int r = 0; r < ps.requestsPerBatch; ++r) {
        const Tensor &logits = ys[static_cast<size_t>(r)];
        if (logits.empty())
            continue; // shed
        std::vector<int> pred = ops::argmaxRows(logits);
        for (size_t i = 0; i < pred.size(); ++i) {
            ++robTotal_;
            size_t idx =
                static_cast<size_t>(r * ps.rowsPerRequest) + i;
            if (pred[i] == clean.labels[idx]) {
                ++robCorrect_;
                ++correct;
            }
        }
    }

    Json d = Json::object();
    d.set("phase", Json(phase));
    d.set("point", Json(point));
    d.set("attack", Json(ps.attack.kind));
    d.set("attack_bits", Json(attackBits));
    d.set("rows", Json(rows));
    d.set("correct", Json(correct));
    d.set("precisions", traceDelta());
    journal_->emit("attack_point", std::move(d));
}

void
ScenarioRunner::soakCycle(int phase, int cycle, const PhaseSpec &ps)
{
    for (int b = 0; b < ps.batchesPerCycle; ++b)
        steadyPoint(phase, cycle * ps.batchesPerCycle + b,
                    ps.requestsPerBatch, ps.rowsPerRequest);
    if ((cycle + 1) % ps.checkpointEvery == 0) {
        saveCheckpoint(phase, cycle);
        reloadSession(phase, cycle);
    }
}

void
ScenarioRunner::applyFaults(int phase, int point)
{
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
            injector_->noteInjected();
            d.set("storms", Json(f->storms));
            d.set("rebuilds",
                  Json(session_->engine().columnRebuilds() - before));
            journal_->emit("fault_injected", std::move(d));
            // The engine rebuilt its full cache each storm; serving
            // continues from the refreshed cells.
            injector_->noteRecovered();
            Json r = Json::object();
            r.set("kind", Json("cache_storm"));
            r.set("via", Json("cache_rebuild"));
            journal_->emit("fault_recovered", std::move(r));
        } else if (f->type == "memory_pressure") {
            // Lift any active budget, fill the cache to measure its
            // true full size, clamp it to the fault's budget, then
            // drive full candidate sweeps through the budgeted cache
            // — an eviction storm. The budget stays in force
            // afterwards, so the remaining traffic keeps serving
            // under memory pressure.
            RpsEngine &eng = session_->engine();
            EngineCacheConfig ec = eng.cacheConfig();
            ec.budgetBytes = 0;
            eng.setCacheConfig(ec);
            for (int bits : session_->candidates().bits())
                eng.setPrecision(bits);
            ec.budgetBytes =
                eng.cacheBytes() *
                static_cast<size_t>(f->budgetPct) / 100;
            eng.setCacheConfig(ec);
            for (int s = 0; s < f->storms; ++s) {
                for (int bits : session_->candidates().bits())
                    eng.setPrecision(bits);
            }
            ++memPressure_;
            injector_->noteInjected();
            d.set("budget_pct", Json(f->budgetPct));
            d.set("storms", Json(f->storms));
            journal_->emit("fault_injected", std::move(d));
            // Recovered = the LRU held the byte invariant through
            // the storm; serving continues inside the budget. (Cell
            // byte sizes are ISA-tier-dependent, so eviction counts
            // never reach the journal — only the invariant does.)
            bool within = eng.cacheBytes() <= ec.budgetBytes;
            Json r = Json::object();
            r.set("kind", Json("memory_pressure"));
            r.set("via", Json("lru_eviction"));
            r.set("within_budget", Json(within));
            if (within) {
                injector_->noteRecovered();
                journal_->emit("fault_recovered", std::move(r));
            } else {
                journal_->emit("fault_unrecovered", std::move(r));
            }
        } else if (f->type == "starve_pool") {
            starveNextPoint_ = true;
            injector_->noteInjected();
            journal_->emit("fault_injected", std::move(d));
            // Recovery is journaled by the starved point itself.
        } else if (f->type == "malformed_request") {
            journal_->emit("fault_injected", std::move(d));
            injectMalformedRequest(*f, phase, point);
        } else if (f->type == "torn_save") {
            pendingTorn_ = f;
            journal_->emit("fault_armed", std::move(d));
        } else { // corrupt_checkpoint
            pendingCorrupt_ = f;
            journal_->emit("fault_armed", std::move(d));
        }
    }
}

void
ScenarioRunner::injectMalformedRequest(const FaultSpec &f, int phase,
                                       int point)
{
    injector_->noteInjected();
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
    try {
        server_->submit(tenantIds_[0], std::move(bad));
        // A malformed request that the server accepted is a real
        // robustness hole: leave the fault unrecovered.
        Json d = Json::object();
        d.set("kind", Json("malformed_request"));
        d.set("request", Json(f.kind));
        d.set("accepted", Json(true));
        journal_->emit("fault_unrecovered", std::move(d));
    } catch (const serve::ServeError &e) {
        injector_->noteRecovered();
        Json d = Json::object();
        d.set("kind", Json("malformed_request"));
        d.set("request", Json(f.kind));
        d.set("phase", Json(phase));
        d.set("point", Json(point));
        d.set("error", Json(scrubBundlePath(e.what(), bundle_)));
        journal_->emit("request_rejected", std::move(d));
    }
}

void
ScenarioRunner::saveCheckpoint(int phase, int point)
{
    const FaultSpec *torn = pendingTorn_;
    pendingTorn_ = nullptr;
    if (torn != nullptr)
        injector_->armTornWrite(*torn, ckptPath_);
    try {
        session_->save(ckptPath_);
        injector_->disarm();
        ++ckptSaves_;
        Json d = Json::object();
        d.set("artifact", Json("model.ckpt"));
        d.set("phase", Json(phase));
        d.set("point", Json(point));
        journal_->emit("checkpoint_save", std::move(d));
    } catch (const io::CheckpointError &e) {
        injector_->disarm();
        if (torn == nullptr)
            throw; // not ours — a genuine save failure
        Json d = Json::object();
        d.set("phase", Json(phase));
        d.set("point", Json(point));
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
        if (intact) {
            injector_->noteRecovered();
            journal_->emit("fault_recovered", std::move(r));
        } else {
            journal_->emit("fault_unrecovered", std::move(r));
        }
    }
}

void
ScenarioRunner::reloadSession(int phase, int point)
{
    const FaultSpec *corrupt = pendingCorrupt_;
    pendingCorrupt_ = nullptr;
    if (corrupt != nullptr)
        injector_->armCorruptRead(*corrupt, ckptPath_);
    uint64_t retriesBefore = loadRetries_;
    try {
        Session next = loadSession();
        injector_->disarm();
        foldSession();
        // The server (and its tenant sessions) reference the outgoing
        // session's network and engine — tear down before the
        // replacement, rebuild over the new session after.
        teardownServer();
        session_ = std::move(next);
        rebuildServer();
        ++ckptLoads_;
        Json d = Json::object();
        d.set("phase", Json(phase));
        d.set("point", Json(point));
        if (spec_.session.stream)
            d.set("stream", Json(true));
        journal_->emit("checkpoint_load", std::move(d));
        if (corrupt != nullptr) {
            // The corrupted read was survived via the retry budget.
            injector_->noteRecovered();
            Json r = Json::object();
            r.set("kind", Json("corrupt_checkpoint"));
            r.set("via", Json("load_retry"));
            r.set("retries",
                  Json(loadRetries_ - retriesBefore));
            journal_->emit("fault_recovered", std::move(r));
        }
    } catch (const io::CheckpointError &e) {
        injector_->disarm();
        if (corrupt == nullptr)
            throw; // not ours — a genuine artifact problem
        // Persistent corruption exhausted the retries: degrade by
        // keeping the previously deployed session serving.
        ++degraded_;
        injector_->noteRecovered();
        Json d = Json::object();
        d.set("phase", Json(phase));
        d.set("point", Json(point));
        d.set("error", Json(scrubBundlePath(e.what(), bundle_)));
        journal_->emit("load_failed", std::move(d));
        Json r = Json::object();
        r.set("kind", Json("corrupt_checkpoint"));
        r.set("via", Json("degraded_to_previous_session"));
        journal_->emit("fault_recovered", std::move(r));
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
    if (spec_.session.stream || spec_.session.cacheBudgetPct > 0 ||
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
    if (tuned_) {
        // Candidate counts and the winner ride on float cost ordering
        // (machine-dependent under -march=native): the section lives
        // outside "counts" so baselines can ignore it wholesale while
        // still exact-comparing the traffic counts.
        Json t = Json::object();
        t.set("selected", Json(tuneSelected_));
        t.set("predicted_cost", Json(tunePredictedCost_));
        t.set("candidates", Json(tuneCandidates_));
        t.set("evaluated", Json(tuneEvaluated_));
        t.set("mean_error_pct", Json(tuneMeanErrPct_));
        t.set("applied", Json(tuneApplied_));
        m.set("tuning", std::move(t));
    }
    return m;
}

} // namespace harness
} // namespace twoinone

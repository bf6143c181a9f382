/**
 * @file
 * Session implementation.
 */

#include "serve/session.hh"

#include <chrono>
#include <thread>

#include "io/checkpoint.hh"
#include "quant/calibration.hh"
#include "tensor/ops.hh"
#include "tune/autotuner.hh"

namespace twoinone {

namespace {

/** The engine cache set a session config asks for: the explicit
 * subset when given, else the network's full bound set. */
PrecisionSet
engineSet(const SessionConfig &cfg, const Network &net)
{
    return cfg.cacheSet.empty() ? net.precisionSet() : cfg.cacheSet;
}

/** Retry-with-backoff around an artifact load: transient
 * corruption (a racing writer, flaky storage) often clears on the
 * next attempt; persistent corruption exhausts the budget and
 * surfaces the last CheckpointError to the caller — recoverable,
 * never a crash. */
template <typename Fn>
auto
loadWithRetries(const SessionConfig &cfg, Fn &&fn) -> decltype(fn())
{
    int attempts = 1 + std::max(0, cfg.loadRetries);
    for (int a = 1;; ++a) {
        try {
            return fn();
        } catch (const io::CheckpointError &e) {
            if (a >= attempts)
                throw;
            if (cfg.onLoadRetry)
                cfg.onLoadRetry(a, e.what());
            if (cfg.loadRetryBackoffMs > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    cfg.loadRetryBackoffMs << (a - 1)));
            }
        }
    }
}

} // namespace

Session::Session(std::unique_ptr<Network> owned, Network *net,
                 SessionConfig cfg, std::unique_ptr<RpsEngine> engine,
                 RpsEngine *shared_engine)
    : cfg_(std::move(cfg)), owned_(std::make_unique<Owned>()),
      net_(net), extEngine_(shared_engine)
{
    TWOINONE_ASSERT(net_ != nullptr, "session needs a network");
    TWOINONE_ASSERT(!net_->precisionSet().empty(),
                    "session needs an RPS-capable network "
                    "(non-empty precision set)");
    TWOINONE_ASSERT(extEngine_ == nullptr || engine == nullptr,
                    "a session holds one engine: owned or shared");
    owned_->net = std::move(owned);
    if (!engine && extEngine_ == nullptr)
        engine = std::make_unique<RpsEngine>(*net_,
                                             engineSet(cfg_, *net_));
    owned_->engine = std::move(engine);
    // Byte budget / pins apply to the session-owned engine on every
    // construction path (a shared engine's policy belongs to its
    // owner). A pinned precision outside the cache set is caller data
    // gone wrong — reject it here instead of panicking in the engine.
    RpsEngine *own = owned_->engine.get();
    if (own && (cfg_.cacheBudgetBytes > 0 || !cfg_.pinnedBits.empty())) {
        for (int b : cfg_.pinnedBits) {
            if (!own->set().contains(b))
                throw serve::ServeError(formatMessage(
                    "pinned precision ", b,
                    " is not in the engine cache set ",
                    own->set().name()));
        }
        EngineCacheConfig ec;
        ec.budgetBytes = cfg_.cacheBudgetBytes;
        ec.pinnedBits = cfg_.pinnedBits;
        own->setCacheConfig(std::move(ec));
    }
}

Session
Session::fromCheckpoint(const std::string &path, SessionConfig cfg)
{
    struct Loaded
    {
        std::unique_ptr<Network> net;
        std::unique_ptr<tune::TuningArtifact> tuning;
        std::unique_ptr<RpsEngine> engine;
    };
    // The whole load runs inside the retry budget: a corrupt section
    // surfaces wherever it is first read — the model sections at
    // open, an eagerly restored engine cell at restoreEngine.
    Loaded l = loadWithRetries(cfg, [&] {
        checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::open(path);
        Loaded out;
        out.net = std::make_unique<Network>(ckpt.instantiate());
        if (ckpt.tuning() != nullptr)
            out.tuning =
                std::make_unique<tune::TuningArtifact>(*ckpt.tuning());
        // A serialized code cache warm-starts the engine — unless the
        // caller asked for a different candidate subset, which the
        // artifact's full-set cache does not represent.
        if (cfg.cacheSet.empty())
            out.engine = ckpt.restoreEngine(*out.net, cfg.streamArtifact);
        return out;
    });
    // Sessions require an RPS-capable model; the constructor treats a
    // precision-less network as a caller bug (panic), but here the
    // network comes from the artifact — recoverable input.
    if (l.net->precisionSet().empty())
        throw io::CheckpointError(
            path + " holds a model with no candidate precision set — "
                   "not servable through a Session");
    // A tuning section carries the serving autotuner's winner: (by
    // default) apply its session-scoped knobs to the serving config
    // before any Server builds its executor.
    if (l.tuning != nullptr && cfg.applyTuning)
        tune::applyGenome(l.tuning->genome, cfg.serving);
    Network *raw = l.net.get();
    Session s(std::move(l.net), raw, std::move(cfg), std::move(l.engine));
    s.tuning_ = std::move(l.tuning);
    return s;
}

Session
Session::fromNetwork(Network net, SessionConfig cfg)
{
    auto owned = std::make_unique<Network>(std::move(net));
    Network *raw = owned.get();
    return Session(std::move(owned), raw, std::move(cfg), nullptr);
}

Session
Session::attach(Network &net, SessionConfig cfg)
{
    return Session(nullptr, &net, std::move(cfg), nullptr);
}

Session
Session::attach(Network &net, RpsEngine &engine, SessionConfig cfg)
{
    TWOINONE_ASSERT(&engine.network() == &net,
                    "shared engine must be built on the attached "
                    "network");
    return Session(nullptr, &net, std::move(cfg), nullptr, &engine);
}

void
Session::switchPrecision(int bits)
{
    // Reject before touching the engine: Network::setPrecision treats
    // an out-of-set precision as a library bug (panic), but at the
    // session boundary it is caller data — the installed precision
    // must keep serving bit-identically after the rejection.
    if (bits != 0 && !net_->precisionSet().contains(bits))
        throw serve::ServeError(formatMessage(
            "rejected precision switch: ", bits,
            " is not in the model's bound set ",
            net_->precisionSet().name()));
    eng().setPrecision(bits);
}

int
Session::switchRandom(Rng &rng)
{
    int bits = eng().samplePrecision(rng);
    switchPrecision(bits);
    return bits;
}

int
Session::activePrecision() const
{
    return eng().activePrecision();
}

serve::ExecutionPlan *
Session::planFor(serve::PlanMode mode, const Tensor &x)
{
    if (planShape_.empty())
        planShape_ = x.shape();
    if (x.ndim() != static_cast<int>(planShape_.size()) ||
        x.dim(0) > planShape_[0])
        return nullptr;
    for (size_t i = 1; i < planShape_.size(); ++i) {
        if (x.dim(static_cast<int>(i)) != planShape_[i])
            return nullptr;
    }
    std::unique_ptr<serve::ExecutionPlan> &slot =
        mode == serve::PlanMode::Float ? owned_->planFloat
                                       : owned_->planQuant;
    if (!slot)
        slot = net_->compile(net_->precisionSet(), mode, planShape_);
    return slot.get();
}

Tensor
Session::forward(const Tensor &x)
{
    return net_->forward(x, /*train=*/false);
}

Tensor
Session::forwardQuantized(const Tensor &x)
{
    if (serve::ExecutionPlan *p = planFor(serve::PlanMode::Quantized, x))
        return p->run(x);
    return net_->forwardQuantized(x);
}

std::vector<int>
Session::predict(const Tensor &x)
{
    if (serve::ExecutionPlan *p = planFor(serve::PlanMode::Float, x))
        return ops::argmaxRows(p->run(x));
    return net_->predict(x);
}

void
Session::calibrate(const std::vector<Tensor> &batches)
{
    Calibrator cal(*net_);
    cal.calibrate(batches);
}

void
Session::save(const std::string &path, bool include_engine_cache)
{
    checkpoint::SaveOptions opts;
    opts.includeEngineCache = include_engine_cache;
    opts.tuning = tuning_.get(); // round-trips survive by default
    checkpoint::save(path, *net_, &eng(), opts);
}

void
Session::save(const std::string &path,
              const checkpoint::SaveOptions &opts)
{
    checkpoint::save(path, *net_, &eng(), opts);
}

void
Session::setTuningArtifact(const tune::TuningArtifact &artifact)
{
    tuning_ = std::make_unique<tune::TuningArtifact>(artifact);
}

} // namespace twoinone

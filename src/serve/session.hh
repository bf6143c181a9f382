/**
 * @file
 * twoinone::Session — the user-facing deployment facade.
 *
 * Before sessions, standing a trained RPS model up for serving took a
 * five-step caller ritual: construct the model, attach an RpsEngine,
 * run the Calibrator, compile plans, build the serving executor. A
 * Session deploys the model behind one object (it compiles and owns
 * its inference plans), and serve::Server (serve/server.hh) serves it
 * as a tenant:
 *
 *   auto s = Session::fromCheckpoint("model.ckpt");
 *   serve::Server server;
 *   int t = server.addTenant(s, {3, 32, 32});
 *   server.submit(t, x).get();    // batched RPS serving
 *   s.predict(x);                 // predictions on the session's plan
 *   s.switchPrecision(8);         // explicit precision control
 *
 * Construction paths:
 *  - fromCheckpoint(path): rebuild the network from its persisted
 *    spec + state; when the artifact carries a serialized weight-code
 *    cache, the engine warm-starts from it — zero quantization passes
 *    before the first served batch.
 *  - fromNetwork(net): take ownership of an in-process model (e.g.
 *    fresh out of the Trainer) and wire the same stack.
 *  - attach(net): non-owning variant for callers that keep driving
 *    the network directly (the evaluation harness).
 *
 * The underlying pieces stay reachable (network()/engine()) — the
 * facade narrows the default path, it does not wall off the internals.
 */

#ifndef TWOINONE_SERVE_SESSION_HH
#define TWOINONE_SERVE_SESSION_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/checkpoint.hh"
#include "nn/network.hh"
#include "quant/rps_engine.hh"
#include "serve/runtime.hh"
#include "tune/artifact.hh"

namespace twoinone {

/**
 * Session construction options.
 */
struct SessionConfig
{
    /** Serving-loop configuration (batch geometry, datapath mode,
     * sampling seed, replicas) the Server reads when this session
     * becomes a tenant. lazyPlanWarmup defaults on for sessions: cold
     * start pays one structural pass instead of one dry pass per
     * candidate. */
    serve::ServeConfig serving = defaultServing();

    /** Per-request image shape [C, H, W...]; empty = the caller
     * passes it to serve::Server::addTenant. */
    std::vector<int> inputShape;

    /** Engine cache candidates; empty = the network's full bound
     * set. An empty set warm-starts the engine from a checkpoint's
     * serialized code cache when it carries one; a non-empty set
     * overrides it (the cache is built fresh for the requested
     * subset, and the artifact's cells are never read). */
    PrecisionSet cacheSet;

    /** @name Streaming artifacts & cache budgets
     * fromCheckpoint() always opens the artifact the same way (header,
     * directory and model state); streamArtifact picks when the engine
     * code cells — the dominant payload on ImageNet-class shapes — are
     * decoded. Off, every cell is decoded and imported at load, and a
     * corrupt one fails the load. On, each cell stays on disk until
     * its (layer, precision) is first installed, and a corrupt one is
     * rebuilt from the masters — load RSS drops from ~the full cache
     * to ~model state plus the resident cells. cacheBudgetBytes
     * (0 = unlimited) caps the engine cache with LRU-by-(layer,
     * precision) eviction; evicted cells rehydrate from the artifact
     * (or re-quantize from the masters), bit-identically. pinnedBits
     * lists precisions never evicted. The budget applies to
     * session-owned engines on every construction path; pinned
     * precisions must be cached candidates. */
    /** @{ */
    bool streamArtifact = false;
    size_t cacheBudgetBytes = 0;
    std::vector<int> pinnedBits;
    /** @} */

    /** Auto-apply a checkpoint's tuning section (serving autotuner
     * winner) to the serving config: batch geometry, replicas,
     * precision draw distribution. The artifact stays readable via
     * tuningArtifact() either way (the Server adopts the
     * server-scoped knobs — max delay, scheduling policy — from it). */
    bool applyTuning = true;

    /** @name Artifact-load resilience
     * fromCheckpoint() retries a failed load (open, instantiate,
     * engine restore) up to loadRetries extra times — a transiently
     * corrupt read (a racing writer, flaky storage) often succeeds on
     * the next attempt — sleeping loadRetryBackoffMs doubled per
     * attempt between tries.
     * Exhaustion rethrows the last io::CheckpointError — a
     * recoverable condition the caller can degrade on, never a
     * crash. onLoadRetry (when set) observes each failed attempt
     * (1-based) and its error before the backoff sleep — the scenario
     * harness journals these. */
    /** @{ */
    int loadRetries = 0;
    int loadRetryBackoffMs = 0;
    std::function<void(int attempt, const std::string &error)>
        onLoadRetry;
    /** @} */

    static serve::ServeConfig
    defaultServing()
    {
        serve::ServeConfig c;
        c.lazyPlanWarmup = true;
        return c;
    }
};

/**
 * A deployed RPS model: network + precision-switch engine behind one
 * facade; serve::Server serves it as a tenant. Movable, non-copyable.
 */
class Session
{
  public:
    /** Load a model artifact and wire the serving stack around it,
     * retrying per SessionConfig::loadRetries (throws
     * io::CheckpointError once the artifact stays malformed through
     * every attempt — recoverable, the process stays healthy). */
    static Session fromCheckpoint(const std::string &path,
                                  SessionConfig cfg = SessionConfig());

    /** Take ownership of @p net and wire the serving stack. */
    static Session fromNetwork(Network net,
                               SessionConfig cfg = SessionConfig());

    /** Wire the serving stack around a caller-owned network, which
     * must outlive the session. The network's active precision is
     * left wherever the last switch put it. */
    static Session attach(Network &net,
                          SessionConfig cfg = SessionConfig());

    /** attach() variant sharing a caller-owned engine instead of
     * building a fresh one: sessions multiplexed over one model by
     * serve::Server must share its weight-code cache (quantizing the
     * same weights once per tenant would duplicate the dominant
     * cold-start cost and double-install precisions). @p engine must
     * be built on @p net; it outlives the session. */
    static Session attach(Network &net, RpsEngine &engine,
                          SessionConfig cfg = SessionConfig());

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** @name Precision control */
    /** @{ */
    /** Switch the active precision through the engine cache
     * (O(#layers)); 0 = full precision. A precision outside the
     * model's bound set is caller data gone wrong, not a library
     * bug: the call throws serve::ServeError *before* touching the
     * engine, so the previously installed precision keeps serving
     * bit-identically. */
    void switchPrecision(int bits);
    /** Sample a candidate uniformly, switch to it, return it. */
    int switchRandom(Rng &rng);
    int activePrecision() const;
    /** The engine's candidate set. */
    const PrecisionSet &candidates() const { return eng().set(); }
    /** @} */

    /** @name Direct inference (active precision)
     * predict() and forwardQuantized() run the session's own compiled
     * plans (one float, one quantized): each is compiled with eager
     * warm-up over the network's bound set on its first use, sized
     * for the input shape of the first predict() or
     * forwardQuantized() call. A batch that does not fit that shape
     * runs the network's per-layer loop, bit-identically. */
    /** @{ */
    /** Logits on the float fake-quant datapath (the layer loop). */
    Tensor forward(const Tensor &x);
    /** Logits on the integer-code datapath. */
    Tensor forwardQuantized(const Tensor &x);
    /** Predicted class per row, on the float datapath. */
    std::vector<int> predict(const Tensor &x);
    /** @} */

    /** @name Calibration & persistence */
    /** @{ */
    /** Record activation ranges over @p batches and flip the model to
     * static-scale quantization (persisted by save()). */
    void calibrate(const std::vector<Tensor> &batches);
    /** Write the model artifact: arch spec, weights, BN banks,
     * calibration banks, and (by default) the engine code cache. When
     * the session carries a tuning artifact it is embedded too, so
     * save/load round-trips preserve the autotuned configuration. */
    void save(const std::string &path,
              bool include_engine_cache = true);
    /** save() variant with full control over the artifact sections
     * (engine packs, explicit tuning artifact, ...). */
    void save(const std::string &path,
              const checkpoint::SaveOptions &opts);
    /** @} */

    /** @name Escape hatches */
    /** @{ */
    Network &network() { return *net_; }
    RpsEngine &engine() { return eng(); }
    /** The construction-time configuration (the Server reads the
     * serving geometry and input shape of its tenants). */
    const SessionConfig &config() const { return cfg_; }
    /** The tuning artifact this session loaded from its checkpoint
     * (null when the artifact had no tuning section or the session
     * was not checkpoint-built). */
    const tune::TuningArtifact *tuningArtifact() const
    {
        return tuning_.get();
    }
    /** Attach @p artifact to the session (persisted by save(); the
     * serving config is NOT re-derived — call tune::applyGenome
     * before the session joins a Server to change live behavior). */
    void setTuningArtifact(const tune::TuningArtifact &artifact);
    /** @} */

  private:
    Session(std::unique_ptr<Network> owned, Network *net,
            SessionConfig cfg, std::unique_ptr<RpsEngine> engine,
            RpsEngine *shared_engine = nullptr);

    /** The precision engine in use: the shared caller-owned one when
     * attached with one, else the session-owned engine. */
    RpsEngine &eng() const
    {
        return extEngine_ != nullptr ? *extEngine_ : *owned_->engine;
    }

    /** This session's plan for @p mode, compiled on first use;
     * nullptr when @p x does not fit the plan shape. */
    serve::ExecutionPlan *planFor(serve::PlanMode mode, const Tensor &x);

    /** What the session owns: the network (fromCheckpoint /
     * fromNetwork), the engine (unless shared) and the plans. One
     * heap block, so the defaulted move assignment frees a replaced
     * session's state as a unit, in reverse member order: the plans
     * and the engine before the network they point into. */
    struct Owned
    {
        std::unique_ptr<Network> net;
        std::unique_ptr<RpsEngine> engine;
        std::unique_ptr<serve::ExecutionPlan> planFloat;
        std::unique_ptr<serve::ExecutionPlan> planQuant;
    };

    SessionConfig cfg_;
    std::unique_ptr<Owned> owned_;
    Network *net_ = nullptr;
    /** Non-owning shared engine (attach(net, engine)); when set, the
     * session owns no engine. */
    RpsEngine *extEngine_ = nullptr;
    /** Tuning artifact carried by the loaded checkpoint (if any). */
    std::unique_ptr<tune::TuningArtifact> tuning_;
    /** The input shape the plans are sized for (empty until the first
     * predict() or forwardQuantized()). */
    std::vector<int> planShape_;
};

} // namespace twoinone

#endif // TWOINONE_SERVE_SESSION_HH

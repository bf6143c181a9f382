/**
 * @file
 * The batched RPS serving core: BatchExecutor, the shared executor
 * under serve::Server (serve/server.hh), plus the serving config,
 * stats and error types.
 *
 * BatchExecutor owns the compiled ExecutionPlan replicas for one
 * (network, engine, request shape) and executes one serving batch at
 * a time: install a precision through the RpsEngine's code cache
 * (O(#layers)), gather request rows straight from caller-owned row
 * pointers into per-replica plan arenas sharded across the global
 * ThreadPool, and scatter the logits straight back into caller-owned
 * row pointers. The layers are read-only during a batch, so replicas
 * share the weights and caches while owning their arenas and write
 * disjoint logit rows — outputs are bit-identical for any
 * TWOINONE_THREADS setting, and the precision trace is a pure
 * function of the caller's sampling seed.
 *
 * The Server forms the batches (one random precision draw each — the
 * paper's RPS defense) and reports ServeStats: rows/s (QPS),
 * per-request p50/p99/p99.9 latency, batches served, rejections and
 * sheds.
 */

#ifndef TWOINONE_SERVE_RUNTIME_HH
#define TWOINONE_SERVE_RUNTIME_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"

#include "quant/rps_engine.hh"
#include "serve/execution_plan.hh"

namespace twoinone {
namespace serve {

/**
 * A serving request (or serving-control call) was rejected or shed:
 * malformed shape, oversized batch, a precision outside the model's
 * bound set, a full admission queue, or an expired deadline. This is
 * a *recoverable caller-facing* condition — production traffic
 * contains garbage and overload, and one poisoned or late request
 * must not take the server down — so it throws (or is delivered
 * through the request's future) instead of panicking; the server
 * stays healthy and counts the event (ServeStats::rejected /
 * ServeStats::shed).
 */
class ServeError : public std::runtime_error
{
  public:
    explicit ServeError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Serving-loop configuration. */
struct ServeConfig
{
    /** Rows per serving batch (one precision draw each). */
    int maxBatch = 64;
    /** Rows per shard dispatched to a worker (also the plan replicas'
     * compiled batch capacity). */
    int microBatch = 8;
    /** Which datapath the plans compile. */
    PlanMode mode = PlanMode::Quantized;
    /** Precision-sampling seed (deterministic trace). */
    uint64_t seed = 2021;
    /** Plan replicas to compile; 0 = one per concurrent shard worker
     * (min of the pool thread count and shards per serving batch).
     * Shards are dealt to at most this many worker groups, so any
     * positive value is safe — fewer replicas just cap the shard
     * parallelism. */
    int replicas = 0;
    /** Compile plans lazily: skip the per-candidate warm-up dry
     * passes at construction, letting each candidate size its arena
     * buffers on its first served batch instead. Cuts cold-start
     * latency roughly by the candidate-set size (reported as
     * session_cold_start by microbench_rps); served outputs are
     * bit-identical either way. */
    bool lazyPlanWarmup = false;
    /** Precision-distribution policy: restrict the per-batch draw to
     * this subset of the engine's candidate set, weighted by
     * drawWeights. Empty = the historical uniform draw over the full
     * engine set (bit-identical traces to servers predating the
     * knob). Must be a subset of the engine's cached set; validated
     * at BatchExecutor construction. */
    std::vector<int> drawBits;
    /** Relative draw weights, parallel to drawBits (> 0 each). Empty
     * with a non-empty drawBits = uniform over drawBits. */
    std::vector<float> drawWeights;
};

/** Aggregate serving statistics since the last reset. */
struct ServeStats
{
    uint64_t requests = 0;
    uint64_t rows = 0;
    uint64_t batches = 0;
    /** Malformed/oversized submissions rejected with ServeError while
     * the server kept serving (graceful-degradation counter). */
    uint64_t rejected = 0;
    /** Well-formed requests dropped by load shedding: refused at
     * admission (full queue), expired past their deadline before
     * compute, or cancelled by shutdown. */
    uint64_t shed = 0;
    double wallSeconds = 0.0;
    double qps = 0.0;   ///< rows per second of serving wall time
    double p50Us = 0.0; ///< median request latency (submit -> done)
    double p99Us = 0.0;
    double p999Us = 0.0;
};

/**
 * The shared batch-execution core: compiled plan replicas plus the
 * gather/compute/scatter of one serving batch. Not thread-safe — one
 * execute() at a time (the Server calls it from its dispatcher); the
 * parallelism lives *inside* execute(), across the global ThreadPool.
 */
class BatchExecutor
{
  public:
    /**
     * @param net Network to serve (plans compile against it).
     * @param engine Precision-switch cache (must be built on @p net).
     * @param input_shape Per-request image shape [C, H, W...] (the
     *        trailing dims of every submitted batch).
     * @param cfg Serving configuration.
     */
    BatchExecutor(Network &net, RpsEngine &engine,
                  const std::vector<int> &input_shape,
                  ServeConfig cfg = ServeConfig());

    /**
     * Validate a request batch against the compiled geometry: throws
     * ServeError on wrong rank, wrong image shape, empty, or more
     * rows than the serving-batch capacity. Does not count anything —
     * the owning front-end counts rejections.
     */
    void validate(const Tensor &x) const;

    /** Sample one precision: uniform from the engine's candidate set,
     * or the configured weighted draw over ServeConfig::drawBits. */
    int samplePrecision(Rng &rng) const;

    /** Install @p bits through the engine code cache (O(#layers)). */
    void installPrecision(int bits) { engine_.setPrecision(bits); }

    /**
     * Execute one serving batch of @p rows rows at the currently
     * installed precision: gather input rows from @p row_src
     * (rowElems() floats each), shard across the pool on the plan
     * replicas, scatter logit rows (outCols() floats each) into
     * @p row_dst. Shard boundaries depend only on microBatch, so
     * outputs are identical for any thread or replica count.
     */
    void execute(const float *const *row_src, float *const *row_dst,
                 int rows);

    const ServeConfig &config() const { return cfg_; }
    int maxBatch() const { return cfg_.maxBatch; }
    /** [1, C, H, W...]: one image. */
    const std::vector<int> &rowShape() const { return rowShape_; }
    /** Floats per input row. */
    size_t rowElems() const { return rowElems_; }
    /** Floats per logit row. */
    size_t outCols() const { return outCols_; }

    int numReplicas() const { return static_cast<int>(plans_.size()); }
    const ExecutionPlan &plan(int i) const { return *plans_[i]; }

    Network &network() { return net_; }
    RpsEngine &engine() { return engine_; }

  private:
    Network &net_;
    RpsEngine &engine_;
    ServeConfig cfg_;
    std::vector<int> rowShape_;
    size_t rowElems_ = 0;
    size_t outCols_ = 0;
    std::vector<std::unique_ptr<ExecutionPlan>> plans_;
    /** Cumulative draw weights over cfg_.drawBits (empty = the
     * uniform engine draw). */
    std::vector<double> drawCum_;
};

} // namespace serve
} // namespace twoinone

#endif // TWOINONE_SERVE_RUNTIME_HH

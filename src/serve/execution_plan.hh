/**
 * @file
 * Compiled execution plans: the inference datapath that serving
 * (BatchExecutor), Session's predict / forwardQuantized and
 * naturalAccuracy run.
 *
 * A Network is compiled once per (mode, max input shape) into an
 * ExecutionPlan — a flat list of steps (input quantize, int im2col +
 * igemm + fused dequant/bias, fused BN/ReLU, activation quantize,
 * pool, residual join, classifier GEMM) over a preallocated arena of
 * activation values and per-layer scratch buffers. Executing a plan
 * performs *zero tensor allocations*: every buffer is sized during
 * compile()'s warm-up dry runs (one per candidate precision) and
 * reused across forwards; Tensor::allocationCount() pins the contract
 * in tests.
 *
 * Every step runs the exact same kernels as the network's per-layer
 * loops (Network::forward at eval, Network::forwardQuantized) — the
 * layers' *Into refactors are shared between both paths — so a plan
 * forward is bit-identical to those loops, the reference, at every
 * candidate precision, cached or uncached. Precision state is read live from
 * the layers at execution time: RpsEngine::setPrecision() between
 * runs switches the plan with no recompilation.
 *
 * A plan instance is not thread-safe (one arena); BatchExecutor
 * (serve/runtime.hh) compiles one replica per worker and runs them
 * concurrently over read-only layer state.
 */

#ifndef TWOINONE_SERVE_EXECUTION_PLAN_HH
#define TWOINONE_SERVE_EXECUTION_PLAN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"
#include "quant/linear_quantizer.hh"
#include "quant/quant_tensor.hh"
#include "tensor/tensor.hh"

namespace twoinone {

class Network;
class PrecisionSet;

namespace serve {

class ExecutionPlan;

/** Which forward path a plan compiles. */
enum class PlanMode {
    /** The float fake-quant datapath (Network::forward at eval). */
    Float,
    /** The integer-code datapath (Network::forwardQuantized). */
    Quantized,
};

/**
 * An arena-resident activation value: integer codes and/or a float
 * view, mirroring QuantAct but with persistent storage. Steps write
 * codes (hasCodes) or dense (denseReady) or alias another tensor
 * (pass-through and the external input); denseView() materializes
 * the float view from the codes on demand, into arena storage.
 */
struct Value
{
    /** External tensor this value aliases (input / pass-through). */
    const Tensor *alias = nullptr;
    Tensor dense;
    QuantTensor q;
    bool hasCodes = false;
    bool denseReady = false;

    const Tensor &
    denseView()
    {
        if (alias)
            return *alias;
        if (!denseReady && hasCodes) {
            q.dequantizeInto(dense);
            denseReady = true;
        }
        return dense;
    }

    /** Reset per run (storage is retained). */
    void
    reset()
    {
        alias = nullptr;
        hasCodes = false;
        denseReady = false;
    }
};

/**
 * Per-emitted-layer scratch: im2col columns, packed integer operands,
 * accumulators, and the uncached-weight fallback buffers. Allocated
 * once at compile, reused every forward.
 */
struct LayerScratch
{
    Tensor t0;          ///< float scratch (im2col columns)
    QuantResult wq;     ///< uncached weight fake-quant fallback
    QuantTensor wcodes; ///< uncached weight codes fallback
    IntGemmScratch ig;  ///< packed integer operands + accumulators
};

/**
 * Step-emission interface handed to Layer::emitPlanSteps. Tracks the
 * "current" value id flowing through the (mostly sequential) graph;
 * composite layers fork and join ids explicitly.
 */
class PlanBuilder
{
  public:
    explicit PlanBuilder(ExecutionPlan &plan) : plan_(plan) {}

    PlanMode mode() const;

    /** Id of the value feeding the next layer. */
    int top() const { return top_; }
    void setTop(int id) { top_ = id; }

    /** Allocate a fresh arena value. */
    int newValue();

    /** Allocate a per-layer scratch block. */
    int newScratch();

    /** Append a step. @p fn receives the executing plan; it must
     * perform no tensor allocations in the steady state. */
    void addStep(std::string label,
                 std::function<void(ExecutionPlan &)> fn);

  private:
    ExecutionPlan &plan_;
    int top_ = 0;
};

/**
 * The compiled plan: steps + arena. Compile through Network::compile.
 */
class ExecutionPlan
{
  public:
    ExecutionPlan(const ExecutionPlan &) = delete;
    ExecutionPlan &operator=(const ExecutionPlan &) = delete;

    /**
     * Compile @p net for @p mode with buffers sized for
     * @p max_input_shape ([N, C, H, W] of the largest batch). With
     * @p warm_all (the default), runs one warm-up dry pass per
     * candidate in @p precisions (plus full precision) so every arena
     * buffer reaches its high-water size before the first real
     * forward; with it off, only the full-precision structural pass
     * runs (shape discovery) and each candidate's buffers grow on its
     * first real run instead — the lazy-compilation mode that cuts
     * cold-start latency for large candidate sets (the zero-allocation
     * steady state is reached per precision after its first serve).
     * The network's active precision is restored on return.
     */
    static std::unique_ptr<ExecutionPlan>
    compile(Network &net, const PrecisionSet &precisions, PlanMode mode,
            const std::vector<int> &max_input_shape,
            bool warm_all = true);

    /**
     * Execute the plan on @p x (x.dim(0) <= maxBatch(), trailing dims
     * must match the compiled shape) at the network's currently
     * active precision. Returns the logits, resident in the arena —
     * valid until the next run on this plan.
     */
    const Tensor &run(const Tensor &x);

    /**
     * Execute on @p nrows rows gathered straight from caller-owned
     * row pointers (each @p row_elems floats) — the serving runtime's
     * zero-intermediate entry point: request tensors stage directly
     * into the plan arena with no packed batch buffer in between.
     */
    const Tensor &runStaged(const float *const *rows, int nrows,
                            size_t row_elems);

    PlanMode mode() const { return mode_; }
    int maxBatch() const { return maxShape_[0]; }
    const std::vector<int> &outputShape() const { return outShape_; }
    size_t numSteps() const { return steps_.size(); }

    /** One line per step (diagnostics). */
    std::string describe() const;

    /** Mean wall microseconds per step over @p reps runs of @p x
     * (diagnostics; labels match describe()). */
    std::vector<std::pair<std::string, double>>
    profileSteps(const Tensor &x, int reps);

    /** Bytes held by the arena values and scratch blocks. */
    size_t arenaBytes() const;

    /** @name Step-execution accessors (used by emitted closures) */
    /** @{ */
    Value &value(int id);
    LayerScratch &scratch(int id);
    /** @} */

    /** @name Arena introspection (tests/diagnostics) */
    /** @{ */
    size_t numScratch() const { return scratch_.size(); }
    const LayerScratch &scratchAt(int id) const;
    /** @} */

  private:
    friend class PlanBuilder;

    ExecutionPlan() = default;

    struct Step
    {
        std::string label;
        std::function<void(ExecutionPlan &)> fn;
    };

    void execute();

    PlanMode mode_ = PlanMode::Float;
    std::vector<int> maxShape_;
    std::vector<int> outShape_;
    std::vector<Step> steps_;
    /** Deques keep element addresses stable while emitters append. */
    std::deque<Value> values_;
    std::deque<LayerScratch> scratch_;
    Tensor stage_;   ///< runStaged staging buffer
    int inputId_ = 0;
    int outputId_ = 0;
    const Tensor *input_ = nullptr;
};

} // namespace serve
} // namespace twoinone

#endif // TWOINONE_SERVE_EXECUTION_PLAN_HH

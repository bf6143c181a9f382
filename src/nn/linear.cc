/**
 * @file
 * Linear layer implementation.
 */

#include "nn/linear.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "serve/execution_plan.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

namespace twoinone {

Linear::Linear(int in_features, int out_features, bool bias, Rng &rng)
    : inFeatures_(in_features), outFeatures_(out_features), hasBias_(bias),
      weight_(Tensor::randn({out_features, in_features}, rng,
                            static_cast<float>(std::sqrt(2.0 / in_features)))),
      bias_(bias ? Tensor::zeros({out_features}) : Tensor())
{
    TWOINONE_ASSERT(in_features > 0 && out_features > 0,
                    "bad Linear geometry");
}

Tensor
Linear::forward(const Tensor &x, bool train)
{
    (void)train;
    TWOINONE_ASSERT(x.ndim() == 2 && x.dim(1) == inFeatures_,
                    "Linear input shape mismatch");
    QuantResult wq_local;
    const QuantResult &wq = quantizedWeight(quant_.weightBits, wq_local);
    if (&wq == weightCache()) {
        steMask_ = &wq.steMask;
    } else {
        ownedSteMask_ = wq.steMask;
        steMask_ = &ownedSteMask_;
    }
    cachedInput_ = x;

    Tensor out = ops::matmulTransposeB(x, wq.values);
    if (hasBias_)
        addBiasRows(out);
    return out;
}

void
Linear::addBiasRows(Tensor &out) const
{
    // Rows are disjoint, so the bias add parallelizes over the
    // batch; the naive reference backend keeps it serial.
    int n = out.dim(0);
    float *o = out.data();
    const float *b = bias_.value.data();
    int64_t grain_rows = std::max<int64_t>(1, (1 << 15) / outFeatures_);
    ops::gatedParallelFor(n, grain_rows, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            float *row = o + static_cast<size_t>(i) * outFeatures_;
            for (int j = 0; j < outFeatures_; ++j)
                row[j] += b[j];
        }
    });
}

void
Linear::inferFloatInto(const Tensor &x, QuantResult &wq_scratch,
                       Tensor &out)
{
    TWOINONE_ASSERT(x.ndim() == 2 && x.dim(1) == inFeatures_,
                    "Linear input shape mismatch");
    // At full precision the masters feed the GEMM directly (see
    // Conv2d::inferFloatInto); quantized precisions run the same
    // cache/requantize dispatch as forward().
    if (quant_.weightBits <= 0) {
        ops::matmulTransposeBInto(x, weight_.value, out);
    } else {
        const QuantResult &wq =
            quantizedWeight(quant_.weightBits, wq_scratch);
        ops::matmulTransposeBInto(x, wq.values, out);
    }
    if (hasBias_)
        addBiasRows(out);
}

QuantAct
Linear::forwardQuantized(QuantAct &x)
{
    if (quant_.weightBits <= 0 || !x.hasCodes())
        return Layer::forwardQuantized(x);

    QuantTensor wlocal;
    const QuantTensor &wq = quantizedCodes(quant_.weightBits, wlocal);
    Tensor out;
    inferQuantInto(x.q, wq, iscratch_, out);
    return QuantAct(std::move(out));
}

void
Linear::inferQuantInto(const QuantTensor &xq, const QuantTensor &wq,
                       IntGemmScratch &s, Tensor &out)
{
    TWOINONE_ASSERT(xq.shape.size() == 2 && xq.shape[1] == inFeatures_,
                    "Linear quantized input shape mismatch");
    int n = xq.shape[0];

    // acc[N, out] = Xq[N, in] * Wq[out, in]^T, exact int64, through
    // the wide-split packed kernels: the classifier head's activation
    // codes arrive from GlobalAvgPool wider than 16 bits (up to 30, the
    // width GlobalAvgPool keeps codes at), so they run as lo/hi int16
    // passes.
    TWOINONE_ASSERT(wq.bits >= 1 && wq.bits <= 16 && !xq.isSigned &&
                        xq.bits >= 1 && xq.bits <= 30,
                    "Linear integer path needs <= 16-bit weight codes and "
                    "unsigned activation codes of <= 30 bits");
    const gemm::PackedIntWeights &pack =
        packedWeights(wq, outFeatures_, inFeatures_, s);
    s.acc.resize(static_cast<size_t>(n) * outFeatures_);
    gemm::igemmPackedWideTransA(pack, n, xq.codes.data(), inFeatures_,
                                s.acc.data(), outFeatures_, xq.bits,
                                s.wide16);

    float dq = wq.scale * xq.scale;
    const float *b = hasBias_ ? bias_.value.data() : nullptr;
    out.ensure({n, outFeatures_});
    float *o = out.data();
    int64_t grain_rows =
        std::max<int64_t>(1, (1 << 15) / std::max(1, outFeatures_));
    ops::gatedParallelFor(n, grain_rows, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo * outFeatures_; i < hi * outFeatures_; ++i)
            o[i] = static_cast<float>(s.acc[static_cast<size_t>(i)]) * dq +
                   (b ? b[i % outFeatures_] : 0.0f);
    });

    if (quantTrace_) {
        tracedW_ = wq;
        tracedA_ = xq;
        tracedAcc_ = s.acc;
    }
}

void
Linear::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    int sid = b.newScratch();
    if (b.mode() == serve::PlanMode::Quantized) {
        b.addStep("linear[int] " + describe(),
                  [this, in, out, sid](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      serve::LayerScratch &ls = p.scratch(sid);
                      vo.reset();
                      if (quant_.weightBits > 0 && vi.hasCodes) {
                          const QuantTensor &wq = quantizedCodes(
                              quant_.weightBits, ls.wcodes);
                          inferQuantInto(vi.q, wq, ls.ig, vo.dense);
                      } else {
                          inferFloatInto(vi.denseView(), ls.wq,
                                         vo.dense);
                      }
                      vo.denseReady = true;
                  });
    } else {
        b.addStep("linear " + describe(),
                  [this, in, out, sid](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      serve::LayerScratch &ls = p.scratch(sid);
                      vo.reset();
                      inferFloatInto(vi.denseView(), ls.wq, vo.dense);
                      vo.denseReady = true;
                  });
    }
    b.setTop(out);
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedInput_.empty(), "Linear backward before forward");
    TWOINONE_ASSERT(grad_out.ndim() == 2 && grad_out.dim(1) == outFeatures_,
                    "Linear grad_out shape mismatch");

    // dW = grad_out^T x input, masked by the STE.
    TWOINONE_ASSERT(steMask_ != nullptr, "Linear backward before forward");
    const Tensor &mask = *steMask_;
    Tensor dw = ops::matmulTransposeA(grad_out, cachedInput_);
    for (size_t i = 0; i < weight_.grad.size(); ++i)
        weight_.grad[i] += dw[i] * mask[i];

    if (hasBias_) {
        int n = grad_out.dim(0);
        for (int j = 0; j < outFeatures_; ++j) {
            double s = 0.0;
            for (int i = 0; i < n; ++i)
                s += grad_out.at2(i, j);
            bias_.grad[static_cast<size_t>(j)] += static_cast<float>(s);
        }
    }

    QuantResult wq_local;
    const QuantResult &wq = quantizedWeight(quant_.weightBits, wq_local);
    return ops::matmul(grad_out, wq.values);
}

void
Linear::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight_);
    if (hasBias_)
        out.push_back(&bias_);
}

void
Linear::collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out)
{
    out.push_back(this);
}

void
Linear::setWeightCache(const QuantResult *cache)
{
    // See Conv2d::setWeightCache: fail fast on a stale backward
    // instead of dangling into freed cache storage.
    if (cache == nullptr && steMask_ != &ownedSteMask_)
        steMask_ = nullptr;
    WeightQuantizedLayer::setWeightCache(cache);
}

std::string
Linear::describe() const
{
    std::ostringstream oss;
    oss << "Linear(" << inFeatures_ << "->" << outFeatures_ << ")";
    return oss.str();
}

LayerSpec
Linear::spec() const
{
    return {"linear", {inFeatures_, outFeatures_, hasBias_ ? 1 : 0}};
}

void
Linear::collectState(const std::string &prefix, StateDict &out)
{
    out.push_back({prefix + ".weight", &weight_.value, nullptr, nullptr,
                   nullptr});
    if (hasBias_)
        out.push_back({prefix + ".bias", &bias_.value, nullptr, nullptr,
                       nullptr});
}

} // namespace twoinone

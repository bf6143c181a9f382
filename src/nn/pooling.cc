/**
 * @file
 * Pooling layer implementations.
 */

#include "nn/pooling.hh"

#include <algorithm>

#include "serve/execution_plan.hh"

namespace twoinone {

Tensor
GlobalAvgPool::forward(const Tensor &x, bool train)
{
    (void)train;
    TWOINONE_ASSERT(x.ndim() == 4, "GlobalAvgPool expects NCHW");
    cachedInShape_ = x.shape();
    Tensor out;
    inferFloatInto(x, out);
    return out;
}

void
GlobalAvgPool::inferFloatInto(const Tensor &x, Tensor &out) const
{
    TWOINONE_ASSERT(x.ndim() == 4, "GlobalAvgPool expects NCHW");
    int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    float inv = 1.0f / static_cast<float>(h * w);
    out.ensure({n, c});
    for (int ni = 0; ni < n; ++ni) {
        for (int ci = 0; ci < c; ++ci) {
            double s = 0.0;
            for (int y = 0; y < h; ++y)
                for (int xx = 0; xx < w; ++xx)
                    s += x.at4(ni, ci, y, xx);
            out.at2(ni, ci) = static_cast<float>(s) * inv;
        }
    }
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedInShape_.empty(),
                    "GlobalAvgPool backward before forward");
    int n = cachedInShape_[0], c = cachedInShape_[1], h = cachedInShape_[2],
        w = cachedInShape_[3];
    float inv = 1.0f / static_cast<float>(h * w);
    Tensor grad_in(cachedInShape_);
    for (int ni = 0; ni < n; ++ni) {
        for (int ci = 0; ci < c; ++ci) {
            float g = grad_out.at2(ni, ci) * inv;
            for (int y = 0; y < h; ++y)
                for (int xx = 0; xx < w; ++xx)
                    grad_in.at4(ni, ci, y, xx) = g;
        }
    }
    return grad_in;
}

namespace {

/** Width of the pooled codes: the summed codes need ceil(log2(HW))
 * bits on top of the input's. */
int
pooledBits(const QuantTensor &xq)
{
    int hw = xq.shape[2] * xq.shape[3];
    int extra = 0;
    while ((1 << extra) < hw)
        ++extra;
    return xq.bits + extra;
}

/** Whether the pooled codes of @p xq fit 30 bits: the widest
 * activation the packed head kernel (gemm::igemmPackedWideTransA)
 * takes, and every sum stays inside the int32 codes. Wider pools
 * (16-bit codes over more than 2^14 positions) run on the float
 * view. */
bool
codesFit(const QuantTensor &xq)
{
    return xq.shape.size() == 4 && pooledBits(xq) <= 30;
}

} // namespace

QuantAct
GlobalAvgPool::forwardQuantized(QuantAct &x)
{
    if (!x.hasCodes() || !codesFit(x.q))
        return Layer::forwardQuantized(x);
    QuantAct out;
    inferQuantInto(x.q, out.q);
    return out;
}

void
GlobalAvgPool::inferQuantInto(const QuantTensor &xq,
                              QuantTensor &out) const
{
    TWOINONE_ASSERT(xq.shape.size() == 4,
                    "GlobalAvgPool expects NCHW codes");
    TWOINONE_ASSERT(codesFit(xq), "GlobalAvgPool sums overflow ",
                    pooledBits(xq), "-bit codes");
    int n = xq.shape[0], c = xq.shape[1], h = xq.shape[2],
        w = xq.shape[3];
    int hw = h * w;

    out.shape = {n, c};
    out.codes.resize(static_cast<size_t>(n) * c);
    // mean = (sum of codes) * scale / HW: integer partial sums with
    // the averaging divisor folded into the scale.
    out.scale = xq.scale / static_cast<float>(hw);
    out.bits = pooledBits(xq);
    out.isSigned = xq.isSigned;

    const int32_t *in = xq.codes.data();
    int32_t *o = out.codes.data();
    for (int ni = 0; ni < n; ++ni) {
        for (int ci = 0; ci < c; ++ci) {
            const int32_t *plane =
                in + (static_cast<size_t>(ni) * c + ci) * hw;
            int64_t s = 0;
            for (int t = 0; t < hw; ++t)
                s += plane[t];
            o[static_cast<size_t>(ni) * c + ci] =
                static_cast<int32_t>(s);
        }
    }
}

void
GlobalAvgPool::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    if (b.mode() == serve::PlanMode::Quantized) {
        b.addStep("gap[int]", [this, in, out](serve::ExecutionPlan &p) {
            serve::Value &vi = p.value(in);
            serve::Value &vo = p.value(out);
            vo.reset();
            if (vi.hasCodes && codesFit(vi.q)) {
                inferQuantInto(vi.q, vo.q);
                vo.hasCodes = true;
            } else {
                inferFloatInto(vi.denseView(), vo.dense);
                vo.denseReady = true;
            }
        });
    } else {
        b.addStep("gap", [this, in, out](serve::ExecutionPlan &p) {
            serve::Value &vi = p.value(in);
            serve::Value &vo = p.value(out);
            vo.reset();
            inferFloatInto(vi.denseView(), vo.dense);
            vo.denseReady = true;
        });
    }
    b.setTop(out);
}

Tensor
AvgPool2x2::forward(const Tensor &x, bool train)
{
    (void)train;
    TWOINONE_ASSERT(x.ndim() == 4, "AvgPool2x2 expects NCHW");
    TWOINONE_ASSERT(x.dim(2) % 2 == 0 && x.dim(3) % 2 == 0,
                    "AvgPool2x2 needs even spatial dims");
    cachedInShape_ = x.shape();
    Tensor out;
    inferFloatInto(x, out);
    return out;
}

void
AvgPool2x2::inferFloatInto(const Tensor &x, Tensor &out) const
{
    TWOINONE_ASSERT(x.ndim() == 4, "AvgPool2x2 expects NCHW");
    TWOINONE_ASSERT(x.dim(2) % 2 == 0 && x.dim(3) % 2 == 0,
                    "AvgPool2x2 needs even spatial dims");
    int n = x.dim(0), c = x.dim(1), h = x.dim(2) / 2, w = x.dim(3) / 2;
    out.ensure({n, c, h, w});
    for (int ni = 0; ni < n; ++ni) {
        for (int ci = 0; ci < c; ++ci) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < w; ++xx) {
                    float s = x.at4(ni, ci, 2 * y, 2 * xx) +
                              x.at4(ni, ci, 2 * y, 2 * xx + 1) +
                              x.at4(ni, ci, 2 * y + 1, 2 * xx) +
                              x.at4(ni, ci, 2 * y + 1, 2 * xx + 1);
                    out.at4(ni, ci, y, xx) = 0.25f * s;
                }
            }
        }
    }
}

void
AvgPool2x2::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("avgpool2x2", [this, in, out](serve::ExecutionPlan &p) {
        serve::Value &vi = p.value(in);
        serve::Value &vo = p.value(out);
        vo.reset();
        inferFloatInto(vi.denseView(), vo.dense);
        vo.denseReady = true;
    });
    b.setTop(out);
}

Tensor
AvgPool2x2::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedInShape_.empty(),
                    "AvgPool2x2 backward before forward");
    Tensor grad_in(cachedInShape_);
    int n = grad_out.dim(0), c = grad_out.dim(1), h = grad_out.dim(2),
        w = grad_out.dim(3);
    for (int ni = 0; ni < n; ++ni) {
        for (int ci = 0; ci < c; ++ci) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < w; ++xx) {
                    float g = 0.25f * grad_out.at4(ni, ci, y, xx);
                    grad_in.at4(ni, ci, 2 * y, 2 * xx) = g;
                    grad_in.at4(ni, ci, 2 * y, 2 * xx + 1) = g;
                    grad_in.at4(ni, ci, 2 * y + 1, 2 * xx) = g;
                    grad_in.at4(ni, ci, 2 * y + 1, 2 * xx + 1) = g;
                }
            }
        }
    }
    return grad_in;
}

Tensor
Flatten::forward(const Tensor &x, bool train)
{
    (void)train;
    TWOINONE_ASSERT(x.ndim() >= 2, "Flatten expects rank >= 2");
    cachedInShape_ = x.shape();
    int n = x.dim(0);
    int rest = static_cast<int>(x.size()) / n;
    return x.reshape({n, rest});
}

void
Flatten::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("flatten", [in, out](serve::ExecutionPlan &p) {
        serve::Value &vi = p.value(in);
        serve::Value &vo = p.value(out);
        vo.reset();
        const Tensor &x = vi.denseView();
        int n = x.dim(0);
        int rest = static_cast<int>(x.size()) / n;
        vo.dense.ensure({n, rest});
        std::copy(x.data(), x.data() + x.size(), vo.dense.data());
        vo.denseReady = true;
    });
    b.setTop(out);
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedInShape_.empty(),
                    "Flatten backward before forward");
    return grad_out.reshape(cachedInShape_);
}

} // namespace twoinone

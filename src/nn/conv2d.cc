/**
 * @file
 * Conv2d implementation (im2col + GEMM, explicit gradients).
 *
 * The GEMM layout is fused with the NCHW tensor layout: forward runs
 * one [K, C*R*S] x [OH*OW, C*R*S]^T product per image whose output
 * lands directly in that image's [K, OH, OW] slab (bias added in the
 * same pass), and backward reads grad_out's per-image [K, OH*OW]
 * slabs in place. There is no [N*OH*OW, K] <-> NCHW repack loop
 * anywhere. Batch images are independent, so im2col / col2im / the
 * per-image GEMMs parallelize over the batch dimension; the weight
 * gradient accumulates over images in fixed batch order to keep
 * results independent of the thread count.
 */

#include "nn/conv2d.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>

#include "common/thread_pool.hh"
#include "serve/execution_plan.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

namespace twoinone {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, bool bias, Rng &rng)
    : inChannels_(in_channels), outChannels_(out_channels), kernel_(kernel),
      stride_(stride), padding_(padding), hasBias_(bias),
      weight_(Tensor::randn(
          {out_channels, in_channels, kernel, kernel}, rng,
          static_cast<float>(
              std::sqrt(2.0 / (in_channels * kernel * kernel))))),
      bias_(bias ? Tensor::zeros({out_channels}) : Tensor())
{
    TWOINONE_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                        stride > 0 && padding >= 0,
                    "bad Conv2d geometry");
}

int
Conv2d::outSize(int in_size) const
{
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
}

void
Conv2d::im2colInto(const Tensor &x, int oh, int ow, Tensor &cols) const
{
    int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    int patch = c * kernel_ * kernel_;
    cols.ensure({n * oh * ow, patch});
    float *out = cols.data();
    const float *in = x.data();
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    float *dst = out +
                                 (static_cast<size_t>(ni) * oh * ow +
                                  static_cast<size_t>(oy) * ow + ox) *
                                     patch;
                    int iy0 = oy * stride_ - padding_;
                    int ix0 = ox * stride_ - padding_;
                    for (int ci = 0; ci < c; ++ci) {
                        const float *src =
                            in + (static_cast<size_t>(ni) * c + ci) * h * w;
                        for (int ky = 0; ky < kernel_; ++ky) {
                            int iy = iy0 + ky;
                            for (int kx = 0; kx < kernel_; ++kx) {
                                int ix = ix0 + kx;
                                float v = 0.0f;
                                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                    v = src[static_cast<size_t>(iy) * w +
                                            ix];
                                *dst++ = v;
                            }
                        }
                    }
                }
            }
        }
    });
}

void
Conv2d::col2imInto(const Tensor &cols, int oh, int ow, Tensor &x) const
{
    int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    int patch = c * kernel_ * kernel_;
    float *out = x.data();
    const float *in = cols.data();
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    const float *src = in +
                                       (static_cast<size_t>(ni) * oh * ow +
                                        static_cast<size_t>(oy) * ow + ox) *
                                           patch;
                    int iy0 = oy * stride_ - padding_;
                    int ix0 = ox * stride_ - padding_;
                    for (int ci = 0; ci < c; ++ci) {
                        float *dst =
                            out + (static_cast<size_t>(ni) * c + ci) * h * w;
                        for (int ky = 0; ky < kernel_; ++ky) {
                            int iy = iy0 + ky;
                            for (int kx = 0; kx < kernel_; ++kx) {
                                int ix = ix0 + kx;
                                float v = *src++;
                                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                    dst[static_cast<size_t>(iy) * w + ix] +=
                                        v;
                            }
                        }
                    }
                }
            }
        }
    });
}

Tensor
Conv2d::forward(const Tensor &x, bool train)
{
    (void)train;
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == inChannels_,
                    "Conv2d input shape mismatch");
    int n = x.dim(0);
    int oh = outSize(x.dim(2));
    int ow = outSize(x.dim(3));
    TWOINONE_ASSERT(oh > 0 && ow > 0, "Conv2d output collapsed to zero");

    // Quantized weights: the RpsEngine-installed cache entry when
    // present, else a fresh fake-quantization of the masters. A cache
    // hit keeps a pointer into the engine-owned entry (stable while
    // installed) instead of copying the weight-sized mask.
    QuantResult wq_local;
    const QuantResult &wq = quantizedWeight(quant_.weightBits, wq_local);
    if (&wq == weightCache()) {
        steMask_ = &wq.steMask;
    } else {
        ownedSteMask_ = wq.steMask;
        steMask_ = &ownedSteMask_;
    }

    im2colInto(x, oh, ow, cachedCols_);
    cachedInShape_ = x.shape();
    cachedOh_ = oh;
    cachedOw_ = ow;

    // [K, C, R, S] is already contiguous [K, patch]: feed the (cached)
    // quantized buffer to the GEMM directly, no reshape copy.
    Tensor out({n, outChannels_, oh, ow});
    runFloatGemm(wq.values.data(), n, oh, ow, cachedCols_, out);
    return out;
}

void
Conv2d::runFloatGemm(const float *w2d, int n, int oh, int ow,
                     const Tensor &cols, Tensor &out) const
{
    int patch = inChannels_ * kernel_ * kernel_;
    int ohw = oh * ow;
    const float *bias = hasBias_ ? bias_.value.data() : nullptr;

    // Per image: out[K, OH*OW] = W[K, patch] * cols_n[OH*OW, patch]^T,
    // written straight into the NCHW slab with the bias fused in.
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            const float *cols_n = cols.data() +
                                  static_cast<size_t>(ni) * ohw * patch;
            float *out_n = out.data() +
                           static_cast<size_t>(ni) * outChannels_ * ohw;
            gemm::sgemm(false, true, outChannels_, ohw, patch, w2d,
                        patch, cols_n, patch, out_n, ohw,
                        /*accumulate=*/false, bias);
        }
    });
}

void
Conv2d::inferFloatInto(const Tensor &x, QuantResult &wq_scratch,
                       Tensor &cols, Tensor &out)
{
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == inChannels_,
                    "Conv2d input shape mismatch");
    int n = x.dim(0);
    int oh = outSize(x.dim(2));
    int ow = outSize(x.dim(3));
    TWOINONE_ASSERT(oh > 0 && ow > 0, "Conv2d output collapsed to zero");

    // At full precision the masters feed the GEMM directly (the
    // fake-quant identity pass would only copy them); at quantized
    // precisions the same cache/requantize dispatch as forward().
    const float *w2d;
    if (quant_.weightBits <= 0) {
        w2d = weight_.value.data();
    } else {
        const QuantResult &wq =
            quantizedWeight(quant_.weightBits, wq_scratch);
        w2d = wq.values.data();
    }
    im2colInto(x, oh, ow, cols);
    out.ensure({n, outChannels_, oh, ow});
    runFloatGemm(w2d, n, oh, ow, cols, out);
}

namespace {

/**
 * One image's integer im2col: [C,H,W] codes -> [OH*OW, C*R*S] operand
 * columns (zero padding = code 0). A standalone function with value
 * parameters: the hot gather runs free of the batch dispatch's
 * closure indirection, and the per-(ci, ky) kx runs are branchless —
 * zero-fill the out-of-image prefix/suffix, cast-copy the interior.
 */
template <typename T>
void
im2colCodesImage(const int32_t *in, int c, int h, int w, int oh, int ow,
                 int kernel, int stride, int padding, T *out)
{
    for (int oy = 0; oy < oh; ++oy) {
        int iy0 = oy * stride - padding;
        for (int ox = 0; ox < ow; ++ox) {
            int ix0 = ox * stride - padding;
            // kx bounds shared by every (ci, ky): ix0+kx in [0, w),
            // clamped to the kernel (padding may exceed it).
            int kx_lo = ix0 < 0 ? -ix0 : 0;
            if (kx_lo > kernel)
                kx_lo = kernel;
            int kx_hi = kernel < w - ix0 ? kernel : w - ix0;
            if (kx_hi < kx_lo)
                kx_hi = kx_lo;
            T *dst = out + (static_cast<size_t>(oy) * ow + ox) *
                               (static_cast<size_t>(c) * kernel * kernel);
            for (int ci = 0; ci < c; ++ci) {
                const int32_t *plane =
                    in + static_cast<size_t>(ci) * h * w;
                for (int ky = 0; ky < kernel; ++ky) {
                    int iy = iy0 + ky;
                    T *d = dst +
                           (static_cast<size_t>(ci) * kernel + ky) *
                               kernel;
                    if (iy < 0 || iy >= h) {
                        for (int kx = 0; kx < kernel; ++kx)
                            d[kx] = 0;
                        continue;
                    }
                    const int32_t *src =
                        plane + static_cast<size_t>(iy) * w + ix0;
                    for (int kx = 0; kx < kx_lo; ++kx)
                        d[kx] = 0;
                    for (int kx = kx_lo; kx < kx_hi; ++kx)
                        d[kx] = static_cast<T>(src[kx]);
                    for (int kx = kx_hi; kx < kernel; ++kx)
                        d[kx] = 0;
                }
            }
        }
    }
}

/**
 * im2col over integer codes: [N,C,H,W] codes -> [N*OH*OW, C*R*S]
 * packed operand columns, parallel over the batch like the float
 * im2col.
 */
template <typename T>
void
im2colCodes(const int32_t *in, int n, int c, int h, int w, int oh, int ow,
            int kernel, int stride, int padding, T *out)
{
    int patch = c * kernel * kernel;
    ThreadPool::global().parallelFor(0, n, 1, [=](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            im2colCodesImage(in + static_cast<size_t>(ni) * c * h * w, c,
                             h, w, oh, ow, kernel, stride, padding,
                             out + static_cast<size_t>(ni) * oh * ow *
                                       patch);
        }
    });
}

/**
 * Build the per-image im2col gather table: for every [position,
 * patch] column element the source offset within one [C,H,W] image
 * (-1 for zero padding). Geometry-only — computed once per compiled
 * input shape and reused by every serving forward.
 */
void
buildGatherTable(int c, int h, int w, int oh, int ow, int kernel,
                 int stride, int padding, std::vector<int32_t> &idx)
{
    int patch = c * kernel * kernel;
    idx.resize(static_cast<size_t>(oh) * ow * patch);
    int32_t *out = idx.data();
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            int iy0 = oy * stride - padding;
            int ix0 = ox * stride - padding;
            for (int ci = 0; ci < c; ++ci) {
                for (int ky = 0; ky < kernel; ++ky) {
                    int iy = iy0 + ky;
                    for (int kx = 0; kx < kernel; ++kx) {
                        int ix = ix0 + kx;
                        bool in_img = iy >= 0 && iy < h && ix >= 0 &&
                                      ix < w;
                        *out++ = in_img
                                     ? (static_cast<int32_t>(ci) * h +
                                        iy) * w + ix
                                     : -1;
                    }
                }
            }
        }
    }
}

/**
 * The process-wide gather-table registry: tables are a pure function
 * of the conv/input geometry, so every scratch block (plan replicas,
 * per-layer legacy scratch) of the same geometry shares one
 * heap-allocated table instead of building its own copy — the big
 * per-worker arena saving for multi-replica serving. Entries are held
 * weakly: tables die with their last consumer instead of accumulating
 * for the life of the process. Mutex-guarded — first touch can come
 * from concurrent serving workers.
 */
std::shared_ptr<const std::vector<int32_t>>
sharedGatherTable(int c, int h, int w, int oh, int ow, int kernel,
                  int stride, int padding)
{
    using Key = std::array<int, 8>;
    static std::mutex mu;
    static std::map<Key, std::weak_ptr<const std::vector<int32_t>>> reg;

    Key key = {c, h, w, oh, ow, kernel, stride, padding};
    std::lock_guard<std::mutex> lock(mu);
    auto it = reg.find(key);
    if (it != reg.end()) {
        if (auto table = it->second.lock())
            return table;
    }
    // Miss: before building, sweep out map nodes whose tables died —
    // builds are rare, and without the sweep a long-lived process
    // would accumulate one dead node per geometry ever served.
    for (auto iter = reg.begin(); iter != reg.end();) {
        if (iter->second.expired())
            iter = reg.erase(iter);
        else
            ++iter;
    }
    auto table = std::make_shared<std::vector<int32_t>>();
    buildGatherTable(c, h, w, oh, ow, kernel, stride, padding, *table);
    reg[key] = table;
    return table;
}

/**
 * im2col via the precomputed gather table (serving path): one flat
 * indexed copy per image, parallel over the batch. Identical output
 * to im2colCodes — the table encodes the same source elements and
 * zero padding.
 */
template <typename T>
void
im2colGather(const int32_t *in, int n, size_t img_elems,
             const std::vector<int32_t> &idx, T *out)
{
    const int32_t *gi = idx.data();
    const size_t cols = idx.size();
    ThreadPool::global().parallelFor(0, n, 1, [=](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            const int32_t *src = in + static_cast<size_t>(ni) * img_elems;
            T *dst = out + static_cast<size_t>(ni) * cols;
            for (size_t t = 0; t < cols; ++t) {
                int32_t ix = gi[t];
                dst[t] = static_cast<T>(ix >= 0 ? src[ix] : 0);
            }
        }
    });
}

} // namespace

bool
Conv2d::intPathEligible(const QuantTensor &xq) const
{
    // The integer path needs weight quantization on and unsigned
    // activation codes of a width the narrow kernels take; anything
    // else composes through the float fallback.
    return quant_.weightBits > 0 && !xq.empty() && !xq.isSigned &&
           xq.bits <= 16;
}

QuantAct
Conv2d::forwardQuantized(QuantAct &x)
{
    if (!x.hasCodes() || !intPathEligible(x.q))
        return Layer::forwardQuantized(x);

    QuantTensor wlocal;
    const QuantTensor &wq = quantizedCodes(quant_.weightBits, wlocal);
    Tensor out;
    inferQuantInto(x.q, wq, iscratch_, out);
    return QuantAct(std::move(out));
}

void
Conv2d::inferQuantInto(const QuantTensor &xq, const QuantTensor &wq,
                       IntGemmScratch &s, Tensor &out, bool serve)
{
    TWOINONE_ASSERT(xq.shape.size() == 4 && xq.shape[1] == inChannels_,
                    "Conv2d quantized input shape mismatch");
    int n = xq.shape[0], h = xq.shape[2], w = xq.shape[3];
    int oh = outSize(h), ow = outSize(w);
    TWOINONE_ASSERT(oh > 0 && ow > 0, "Conv2d output collapsed to zero");

    int patch = inChannels_ * kernel_ * kernel_;
    int ohw = oh * ow;
    s.acc.resize(static_cast<size_t>(n) * outChannels_ * ohw);
    int64_t *acc = s.acc.data();
    const gemm::PackedIntWeights &pack =
        packedWeights(wq, outChannels_, patch, s);

    if (serve && (s.gatherH != h || s.gatherW != w || !s.gather)) {
        // Compiled-geometry gather table, shared across every scratch
        // block (plan replica) of this geometry: fetched from the
        // registry on first touch of this input shape, then reused by
        // every serving forward.
        s.gather = sharedGatherTable(inChannels_, h, w, oh, ow, kernel_,
                                     stride_, padding_);
        s.gatherH = h;
        s.gatherW = w;
    }
    // Stage the activation columns at the narrowest operand width the
    // packed kernels take: uint8 when both operands fit 8 bits.
    const bool narrow8 = wq.bits <= 8 && xq.bits <= 8;
    const size_t img_elems = static_cast<size_t>(inChannels_) * h * w;
    auto stage = [&](auto *cols) {
        if (serve)
            im2colGather(xq.codes.data(), n, img_elems, *s.gather, cols);
        else
            im2colCodes(xq.codes.data(), n, inChannels_, h, w, oh, ow,
                        kernel_, stride_, padding_, cols);
    };
    if (narrow8) {
        s.a8.resize(static_cast<size_t>(n) * ohw * patch);
        stage(s.a8.data());
    } else {
        s.a16.resize(static_cast<size_t>(n) * ohw * patch);
        stage(s.a16.data());
    }

    // Per image: acc[K, OH*OW] = Wq[K, patch] * cols_n[OH*OW, patch]^T
    // in exact integer arithmetic.
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            int64_t *acc_n =
                acc + static_cast<size_t>(ni) * outChannels_ * ohw;
            size_t cols_off = static_cast<size_t>(ni) * ohw * patch;
            if (narrow8)
                gemm::igemmPackedTransB(pack, ohw, s.a8.data() + cols_off,
                                        patch, acc_n, ohw, xq.bits);
            else
                gemm::igemmPackedTransB(pack, ohw,
                                        s.a16.data() + cols_off, patch,
                                        acc_n, ohw, xq.bits);
        }
    });

    // Dequantize: out = acc * (w_scale * a_scale) + bias[k].
    float dq = wq.scale * xq.scale;
    const float *bias = hasBias_ ? bias_.value.data() : nullptr;
    out.ensure({n, outChannels_, oh, ow});
    float *o = out.data();
    int64_t rows = static_cast<int64_t>(n) * outChannels_;
    int64_t grain_rows = std::max<int64_t>(1, (1 << 15) / ohw);
    ops::gatedParallelFor(rows, grain_rows, [&](int64_t lo, int64_t hi) {
        for (int64_t row = lo; row < hi; ++row) {
            float b = bias ? bias[row % outChannels_] : 0.0f;
            const int64_t *arow = acc + row * ohw;
            float *orow = o + row * ohw;
            for (int t = 0; t < ohw; ++t)
                orow[t] = static_cast<float>(arow[t]) * dq + b;
        }
    });

    if (quantTrace_) {
        tracedW_ = wq;
        tracedA_ = xq;
        tracedAcc_ = s.acc;
    }
}

void
Conv2d::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    int sid = b.newScratch();
    if (b.mode() == serve::PlanMode::Quantized) {
        b.addStep("conv[int] " + describe(),
                  [this, in, out, sid](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      serve::LayerScratch &ls = p.scratch(sid);
                      vo.reset();
                      if (vi.hasCodes && intPathEligible(vi.q)) {
                          const QuantTensor &wq = quantizedCodes(
                              quant_.weightBits, ls.wcodes);
                          inferQuantInto(vi.q, wq, ls.ig, vo.dense,
                                         /*serve=*/true);
                      } else {
                          inferFloatInto(vi.denseView(), ls.wq, ls.t0,
                                         vo.dense);
                      }
                      vo.denseReady = true;
                  });
    } else {
        b.addStep("conv " + describe(),
                  [this, in, out, sid](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      serve::LayerScratch &ls = p.scratch(sid);
                      vo.reset();
                      inferFloatInto(vi.denseView(), ls.wq, ls.t0,
                                     vo.dense);
                      vo.denseReady = true;
                  });
    }
    b.setTop(out);
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedCols_.empty(), "Conv2d backward before forward");
    int n = grad_out.dim(0);
    int oh = cachedOh_, ow = cachedOw_;
    TWOINONE_ASSERT(grad_out.dim(1) == outChannels_ && grad_out.dim(2) == oh &&
                        grad_out.dim(3) == ow,
                    "Conv2d grad_out shape mismatch");
    int patch = inChannels_ * kernel_ * kernel_;
    int ohw = oh * ow;
    const float *g = grad_out.data();

    // Weight gradient: dW[K, patch] = sum_n grad_n[K, OH*OW] *
    // cols_n[OH*OW, patch]. Fixed batch order (serial over n, GEMM
    // parallel inside) keeps the accumulation deterministic.
    dwBuf_.ensure({outChannels_, patch});
    for (int ni = 0; ni < n; ++ni) {
        const float *grad_n = g + static_cast<size_t>(ni) * outChannels_ *
                                      ohw;
        const float *cols_n =
            cachedCols_.data() + static_cast<size_t>(ni) * ohw * patch;
        gemm::sgemm(false, false, outChannels_, patch, ohw, grad_n, ohw,
                    cols_n, patch, dwBuf_.data(), patch,
                    /*accumulate=*/ni > 0);
    }
    // STE: gradients flow to master weights where quantization did not
    // clip.
    {
        TWOINONE_ASSERT(steMask_ != nullptr,
                        "Conv2d backward before forward");
        float *wgrad = weight_.grad.data();
        const float *dw = dwBuf_.data();
        const float *mask = steMask_->data();
        ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(weight_.grad.size()), 1 << 15,
            [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i)
                    wgrad[i] += dw[i] * mask[i];
            });
    }

    if (hasBias_) {
        // Per-channel reduction straight off the NCHW slabs; each
        // channel sums its images in batch order.
        float *bgrad = bias_.grad.data();
        ThreadPool::global().parallelFor(0, outChannels_, 1,
                                         [&](int64_t klo, int64_t khi) {
            for (int64_t k = klo; k < khi; ++k) {
                double s = 0.0;
                for (int ni = 0; ni < n; ++ni) {
                    const float *p =
                        g + (static_cast<size_t>(ni) * outChannels_ + k) *
                                ohw;
                    for (int t = 0; t < ohw; ++t)
                        s += p[t];
                }
                bgrad[k] += static_cast<float>(s);
            }
        });
    }

    // Input gradient: dcols_n[OH*OW, patch] = grad_n[K, OH*OW]^T *
    // Wq[K, patch]; then col2im. Per-image outputs are disjoint.
    QuantResult wq_local;
    const QuantResult &wq = quantizedWeight(quant_.weightBits, wq_local);
    const float *w2d = wq.values.data();
    dcolsBuf_.ensure({n * ohw, patch});
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            const float *grad_n =
                g + static_cast<size_t>(ni) * outChannels_ * ohw;
            float *dcols_n =
                dcolsBuf_.data() + static_cast<size_t>(ni) * ohw * patch;
            gemm::sgemm(true, false, ohw, patch, outChannels_, grad_n, ohw,
                        w2d, patch, dcols_n, patch);
        }
    });

    Tensor dx(cachedInShape_);
    col2imInto(dcolsBuf_, oh, ow, dx);
    return dx;
}

void
Conv2d::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight_);
    if (hasBias_)
        out.push_back(&bias_);
}

void
Conv2d::collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out)
{
    out.push_back(this);
}

void
Conv2d::setWeightCache(const QuantResult *cache)
{
    // Clearing the cache may precede freeing its storage; drop the
    // mask pointer into it so a stale backward fails fast instead of
    // reading freed memory. A mask owned by the layer stays valid.
    if (cache == nullptr && steMask_ != &ownedSteMask_)
        steMask_ = nullptr;
    WeightQuantizedLayer::setWeightCache(cache);
}

std::string
Conv2d::describe() const
{
    std::ostringstream oss;
    oss << "Conv2d(" << inChannels_ << "->" << outChannels_ << ", k="
        << kernel_ << ", s=" << stride_ << ", p=" << padding_ << ")";
    return oss.str();
}

LayerSpec
Conv2d::spec() const
{
    return {"conv2d",
            {inChannels_, outChannels_, kernel_, stride_, padding_,
             hasBias_ ? 1 : 0}};
}

void
Conv2d::collectState(const std::string &prefix, StateDict &out)
{
    out.push_back({prefix + ".weight", &weight_.value, nullptr, nullptr,
                   nullptr});
    if (hasBias_)
        out.push_back({prefix + ".bias", &bias_.value, nullptr, nullptr,
                       nullptr});
}

} // namespace twoinone

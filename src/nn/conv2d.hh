/**
 * @file
 * 2-D convolution layer with im2col forward and explicit backward.
 *
 * Master weights stay full precision; when QuantState::weightBits > 0
 * the forward pass runs on fake-quantized weights and the backward pass
 * routes the weight gradient through the straight-through estimator
 * back onto the master weights (standard quantization-aware training,
 * as used by the paper's linear quantizer [34]).
 */

#ifndef TWOINONE_NN_CONV2D_HH
#define TWOINONE_NN_CONV2D_HH

#include "nn/layer.hh"

namespace twoinone {

/**
 * Conv2d: NCHW convolution, square kernel, zero padding, no dilation.
 */
class Conv2d : public Layer, public WeightQuantizedLayer
{
  public:
    /**
     * @param in_channels Input channel count C.
     * @param out_channels Output channel count K.
     * @param kernel Kernel side length (R = S = kernel).
     * @param stride Stride in both spatial dims.
     * @param padding Zero padding in both spatial dims.
     * @param bias Whether to learn a per-output-channel bias.
     * @param rng Weight initialization stream (He normal).
     */
    Conv2d(int in_channels, int out_channels, int kernel, int stride,
           int padding, bool bias, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /**
     * Integer-datapath forward: consumes unsigned activation codes
     * (<= 16 bit) and the installed QuantTensor weight codes, packs
     * both to the narrowest operand width (int8/uint8 under 8 bits,
     * int16/uint16 otherwise), accumulates exactly via
     * gemm::igemmPackedTransB, and dequantizes the integer outputs with the
     * combined scale (bias fused). Falls back to the float forward
     * when the input carries no codes or weight quantization is off.
     */
    QuantAct forwardQuantized(QuantAct &x) override;

    void emitPlanSteps(serve::PlanBuilder &b) override;

    /** @name Allocation-free plan kernels
     * Shared with the legacy paths so plan forwards are bit-identical
     * by construction. */
    /** @{ */
    /**
     * Float inference forward into caller-owned buffers: weights from
     * the installed cache / a fresh fake-quantization into
     * @p wq_scratch (the masters directly at full precision), im2col
     * into @p cols, fused GEMM+bias into @p out.
     */
    void inferFloatInto(const Tensor &x, QuantResult &wq_scratch,
                        Tensor &cols, Tensor &out);
    /** Whether the integer datapath can consume these input codes at
     * the active weight precision. */
    bool intPathEligible(const QuantTensor &xq) const;
    /**
     * Integer inference forward: int im2col + packed igemm + fused
     * dequant/bias into @p out, staging through @p s (a scratch
     * weight pack is cached in @p s across calls while the weights
     * stand still; see WeightQuantizedLayer::packedWeights). @p serve
     * selects only the im2col: the compiled geometry's shared gather
     * table (plan steps) instead of the direct gather (the per-layer
     * loop). Both stage identical columns.
     */
    void inferQuantInto(const QuantTensor &xq, const QuantTensor &wq,
                        IntGemmScratch &s, Tensor &out,
                        bool serve = false);
    /** @} */

    void collectParameters(std::vector<Parameter *> &out) override;
    void collectWeightQuantized(
        std::vector<WeightQuantizedLayer *> &out) override;
    std::string describe() const override;
    LayerSpec spec() const override;
    void collectState(const std::string &prefix, StateDict &out) override;

    const Tensor &masterWeight() const override { return weight_.value; }
    uint64_t masterWeightVersion() const override
    {
        return weight_.version;
    }
    void setWeightCache(const QuantResult *cache) override;

    /** Weight tensor shape [K, C, R, S]. */
    Parameter &weight() { return weight_; }
    /** Bias tensor shape [K] (empty when bias disabled). */
    Parameter &bias() { return bias_; }

    int inChannels() const { return inChannels_; }
    int outChannels() const { return outChannels_; }
    int kernel() const { return kernel_; }
    int stride() const { return stride_; }
    int padding() const { return padding_; }

    /** Output spatial size for a given input size. */
    int outSize(int in_size) const;

  private:
    int inChannels_;
    int outChannels_;
    int kernel_;
    int stride_;
    int padding_;
    bool hasBias_;

    Parameter weight_;
    Parameter bias_;

    // Forward caches for backward. cachedCols_/dcolsBuf_/dwBuf_ are
    // reused across iterations (Tensor::ensure) instead of being
    // reallocated every step. steMask_ points at the engine-owned
    // cache entry when one is installed (stable while installed) and
    // at ownedSteMask_ on the uncached path — no weight-sized mask
    // copy per cached forward.
    Tensor cachedCols_;    // im2col matrix [N*OH*OW, C*R*S]
    const Tensor *steMask_ = nullptr; // STE mask of quantized weights
    Tensor ownedSteMask_;  // mask storage for the uncached path
    Tensor dcolsBuf_;      // input-gradient columns [N*OH*OW, C*R*S]
    Tensor dwBuf_;         // weight-gradient GEMM output [K, C*R*S]
    std::vector<int> cachedInShape_;
    int cachedOh_ = 0;
    int cachedOw_ = 0;

    // Integer-path scratch for the legacy per-layer loop, reused
    // across forwards (plan steps carry their own IntGemmScratch).
    IntGemmScratch iscratch_;

    /** The fused per-image GEMM+bias loop shared by forward() and
     * inferFloatInto(): out[K, OH*OW] slabs from W[K, patch] x
     * cols[OH*OW, patch]^T. @p out must already have its shape. */
    void runFloatGemm(const float *w2d, int n, int oh, int ow,
                      const Tensor &cols, Tensor &out) const;

    /**
     * im2col into the reused cols buffer: [N,C,H,W] ->
     * [N*OH*OW, C*R*S], parallel over the batch dimension.
     */
    void im2colInto(const Tensor &x, int oh, int ow, Tensor &cols) const;

    /**
     * col2im: scatter-accumulate cols [N*OH*OW, C*R*S] into the
     * zero-initialized x [N,C,H,W], parallel over the batch dimension
     * (each image's slab is disjoint).
     */
    void col2imInto(const Tensor &cols, int oh, int ow, Tensor &x) const;
};

} // namespace twoinone

#endif // TWOINONE_NN_CONV2D_HH

/**
 * @file
 * Fully connected layer with quantization-aware forward/backward.
 */

#ifndef TWOINONE_NN_LINEAR_HH
#define TWOINONE_NN_LINEAR_HH

#include "nn/layer.hh"

namespace twoinone {

/**
 * Linear: y = x W^T + b over rank-2 inputs [N, in].
 */
class Linear : public Layer, public WeightQuantizedLayer
{
  public:
    /**
     * @param in_features Input feature count.
     * @param out_features Output feature count.
     * @param bias Whether to learn a bias.
     * @param rng Initialization stream (He normal).
     */
    Linear(int in_features, int out_features, bool bias, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /**
     * Integer-datapath forward: consumes unsigned activation codes of
     * up to 30 bits (the classifier head sits behind GlobalAvgPool,
     * whose integer partial sums outgrow 16 bits) through the packed
     * wide-split kernel (gemm::igemmPackedWideTransA), dequantizing
     * with the combined scale. Falls back to the float forward when
     * the input carries no codes or weight quantization is off.
     */
    QuantAct forwardQuantized(QuantAct &x) override;

    void emitPlanSteps(serve::PlanBuilder &b) override;

    /** @name Allocation-free plan kernels
     * Shared with the legacy paths so plan forwards are bit-identical
     * by construction. */
    /** @{ */
    /** Float inference forward into a caller-owned buffer (weights
     * from the installed cache / a fresh fake-quantization into
     * @p wq_scratch; the masters directly at full precision). */
    void inferFloatInto(const Tensor &x, QuantResult &wq_scratch,
                        Tensor &out);
    /** Wide integer inference forward: packed igemm + fused
     * dequant/bias into @p out, staging through @p s. */
    void inferQuantInto(const QuantTensor &xq, const QuantTensor &wq,
                        IntGemmScratch &s, Tensor &out);
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

    Parameter &weight() { return weight_; }
    Parameter &bias() { return bias_; }

    int inFeatures() const { return inFeatures_; }
    int outFeatures() const { return outFeatures_; }

  private:
    int inFeatures_;
    int outFeatures_;
    bool hasBias_;
    Parameter weight_; // [out, in]
    Parameter bias_;   // [out]

    Tensor cachedInput_;
    // STE mask for backward: points at the engine-owned cache entry
    // when installed, else at ownedSteMask_ (see Conv2d).
    const Tensor *steMask_ = nullptr;
    Tensor ownedSteMask_;
    // Integer-path scratch for the legacy loop (plan steps carry
    // their own IntGemmScratch).
    IntGemmScratch iscratch_;

    /** The batch-parallel bias add shared by forward() and
     * inferFloatInto(). */
    void addBiasRows(Tensor &out) const;
};

} // namespace twoinone

#endif // TWOINONE_NN_LINEAR_HH

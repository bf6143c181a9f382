/**
 * @file
 * Layer base-class shared behaviour.
 */

#include "nn/layer.hh"

namespace twoinone {

const QuantResult &
WeightQuantizedLayer::quantizedWeight(int bits, QuantResult &local) const
{
    // The installed entry only serves its own precision; a direct
    // Network::setPrecision to some other width (e.g. EPGD cycling
    // precisions mid-attack) falls back to re-quantizing the masters,
    // which is always correct, just uncached.
    if (weightCache_ && weightCache_->bits == bits) {
        if (bits > 0)
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
        return *weightCache_;
    }
    if (bits > 0)
        cacheMisses_.fetch_add(1, std::memory_order_relaxed);
    local = LinearQuantizer::fakeQuantSymmetric(masterWeight(), bits);
    return local;
}

const QuantTensor &
WeightQuantizedLayer::quantizedCodes(int bits, QuantTensor &local) const
{
    if (weightCodes_ && weightCodes_->bits == bits) {
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        return *weightCodes_;
    }
    cacheMisses_.fetch_add(1, std::memory_order_relaxed);
    local = QuantTensor::quantizeSymmetric(masterWeight(), bits);
    return local;
}

const gemm::PackedIntWeights &
WeightQuantizedLayer::packedWeights(const QuantTensor &wq, int m, int k,
                                    IntGemmScratch &s) const
{
    const gemm::PackedIntWeights *inst = weightPacked_;
    if (inst && weightCodes_ == &wq && inst->bits == wq.bits &&
        inst->m == m && inst->k == k)
        return *inst;
    if (s.packedFrom != wq.codes.data() || s.packedBits != wq.bits ||
        s.packedVersion != masterWeightVersion()) {
        gemm::packWeights(wq.codes.data(), m, k, wq.bits, s.wpack);
        s.packedFrom = wq.codes.data();
        s.packedBits = wq.bits;
        s.packedVersion = masterWeightVersion();
    }
    return s.wpack;
}

void
WeightQuantizedLayer::setQuantTrace(bool on)
{
    quantTrace_ = on;
    if (!on) {
        tracedW_ = QuantTensor();
        tracedA_ = QuantTensor();
        tracedAcc_.clear();
        tracedAcc_.shrink_to_fit();
    }
}

QuantAct
Layer::forwardQuantized(QuantAct &x)
{
    // Default: materialize the float view and run the ordinary
    // inference forward. Codes do not propagate through layers
    // without an integer datapath.
    return QuantAct(forward(x.denseView(), /*train=*/false));
}

void
Layer::collectState(const std::string &prefix, StateDict &out)
{
    (void)prefix;
    (void)out; // stateless layer
}

void
Layer::collectParameters(std::vector<Parameter *> &out)
{
    (void)out; // parameter-free layer
}

void
Layer::collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out)
{
    (void)out; // no quantized weights
}

void
Layer::collectActQuant(std::vector<ActQuant *> &out)
{
    (void)out; // no activation quantizer
}

void
Layer::zeroGrad()
{
    std::vector<Parameter *> params;
    collectParameters(params);
    for (Parameter *p : params)
        p->grad.fill(0.0f);
}

} // namespace twoinone

/**
 * @file
 * ExecutionPlan implementation: builder plumbing, the compile walk
 * (with the SBN+ReLU fusion peephole), warm-up sizing, and the
 * allocation-free dispatch loop.
 */

#include "serve/execution_plan.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/network.hh"

namespace twoinone {
namespace serve {

PlanMode
PlanBuilder::mode() const
{
    return plan_.mode();
}

int
PlanBuilder::newValue()
{
    plan_.values_.emplace_back();
    return static_cast<int>(plan_.values_.size()) - 1;
}

int
PlanBuilder::newScratch()
{
    plan_.scratch_.emplace_back();
    return static_cast<int>(plan_.scratch_.size()) - 1;
}

void
PlanBuilder::addStep(std::string label,
                     std::function<void(ExecutionPlan &)> fn)
{
    plan_.steps_.push_back({std::move(label), std::move(fn)});
}

Value &
ExecutionPlan::value(int id)
{
    TWOINONE_ASSERT(id >= 0 &&
                        static_cast<size_t>(id) < values_.size(),
                    "plan value id out of range");
    return values_[static_cast<size_t>(id)];
}

LayerScratch &
ExecutionPlan::scratch(int id)
{
    TWOINONE_ASSERT(id >= 0 &&
                        static_cast<size_t>(id) < scratch_.size(),
                    "plan scratch id out of range");
    return scratch_[static_cast<size_t>(id)];
}

const LayerScratch &
ExecutionPlan::scratchAt(int id) const
{
    TWOINONE_ASSERT(id >= 0 &&
                        static_cast<size_t>(id) < scratch_.size(),
                    "plan scratch id out of range");
    return scratch_[static_cast<size_t>(id)];
}

std::unique_ptr<ExecutionPlan>
ExecutionPlan::compile(Network &net, const PrecisionSet &precisions,
                       PlanMode mode,
                       const std::vector<int> &max_input_shape,
                       bool warm_all)
{
    TWOINONE_ASSERT(net.numLayers() > 0, "compiling an empty network");
    TWOINONE_ASSERT(!max_input_shape.empty() && max_input_shape[0] > 0,
                    "plan needs a max input shape with a batch dim");
    for (int bits : precisions.bits()) {
        TWOINONE_ASSERT(net.precisionSet().contains(bits),
                        "plan precision ", bits,
                        " not in the network's bound set ",
                        net.precisionSet().name());
    }

    std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan());
    plan->mode_ = mode;
    plan->maxShape_ = max_input_shape;
    plan->values_.emplace_back(); // id 0: the external input
    plan->inputId_ = 0;

    PlanBuilder b(*plan);
    b.setTop(plan->inputId_);
    // The integer datapath quantizes the network input so the stem
    // conv consumes codes; the float path feeds the raw input.
    if (mode == PlanMode::Quantized)
        net.inputQuant().emitPlanSteps(b);
    for (size_t i = 0; i < net.numLayers(); ++i) {
        Layer *l = &net.layer(i);
        // Peephole: an SBN immediately followed by a ReLU runs as one
        // fused normalize+rectify pass (identical per-element
        // arithmetic, one buffer and one sweep saved).
        auto *bn = dynamic_cast<SwitchableBatchNorm2d *>(l);
        if (bn && i + 1 < net.numLayers() &&
            dynamic_cast<ReLU *>(&net.layer(i + 1)) != nullptr) {
            bn->emitFusedBnRelu(b);
            ++i;
            continue;
        }
        l->emitPlanSteps(b);
    }
    plan->outputId_ = b.top();

    // Warm-up: one dry pass at full precision and at every candidate
    // sizes each arena buffer to its high-water mark, so real
    // forwards allocate nothing. The dry input is all zeros (buffer
    // shapes are data-independent); the active precision is restored.
    // Lazy mode (!warm_all) keeps only the full-precision structural
    // pass — candidates size their buffers on first serve instead,
    // trading first-run allocations for cold-start latency.
    int restore = net.activePrecision();
    Tensor dummy(max_input_shape);
    net.setPrecision(0);
    plan->run(dummy);
    if (warm_all) {
        for (int bits : precisions.bits()) {
            net.setPrecision(bits);
            plan->run(dummy);
        }
    }
    net.setPrecision(restore);
    plan->outShape_ = plan->value(plan->outputId_).denseView().shape();
    return plan;
}

void
ExecutionPlan::execute()
{
    for (Value &v : values_)
        v.reset();
    values_[static_cast<size_t>(inputId_)].alias = input_;
    for (Step &s : steps_)
        s.fn(*this);
}

const Tensor &
ExecutionPlan::run(const Tensor &x)
{
    TWOINONE_ASSERT(x.ndim() == static_cast<int>(maxShape_.size()),
                    "plan input rank mismatch");
    TWOINONE_ASSERT(x.dim(0) > 0 && x.dim(0) <= maxShape_[0],
                    "plan batch ", x.dim(0), " exceeds compiled max ",
                    maxShape_[0]);
    for (size_t i = 1; i < maxShape_.size(); ++i) {
        TWOINONE_ASSERT(x.dim(static_cast<int>(i)) ==
                            maxShape_[i],
                        "plan input dim ", i, " mismatch");
    }
    input_ = &x;
    execute();
    return values_[static_cast<size_t>(outputId_)].denseView();
}

const Tensor &
ExecutionPlan::runStaged(const float *const *rows, int nrows,
                         size_t row_elems)
{
    TWOINONE_ASSERT(nrows > 0 && nrows <= maxShape_[0],
                    "staged batch ", nrows, " exceeds compiled max ",
                    maxShape_[0]);
    size_t expect = 1;
    for (size_t i = 1; i < maxShape_.size(); ++i)
        expect *= static_cast<size_t>(maxShape_[i]);
    TWOINONE_ASSERT(row_elems == expect,
                    "staged row size mismatches the compiled shape");
    std::vector<int> shape = maxShape_;
    shape[0] = nrows;
    stage_.ensure(shape);
    for (int t = 0; t < nrows; ++t)
        std::copy(rows[t], rows[t] + row_elems,
                  stage_.data() + static_cast<size_t>(t) * row_elems);
    return run(stage_);
}

const Tensor &
ExecutionPlan::runRows(const Tensor &batch, int row_lo, int row_hi)
{
    TWOINONE_ASSERT(batch.ndim() >= 1 && row_lo >= 0 &&
                        row_lo < row_hi && row_hi <= batch.dim(0),
                    "plan row range [", row_lo, ",", row_hi,
                    ") out of batch ", batch.dim(0));
    std::vector<int> shape = batch.shape();
    shape[0] = row_hi - row_lo;
    stage_.ensure(shape);
    size_t stride = batch.size() / static_cast<size_t>(batch.dim(0));
    std::copy(batch.data() + static_cast<size_t>(row_lo) * stride,
              batch.data() + static_cast<size_t>(row_hi) * stride,
              stage_.data());
    return run(stage_);
}

std::vector<std::pair<std::string, double>>
ExecutionPlan::profileSteps(const Tensor &x, int reps)
{
    using Clock = std::chrono::steady_clock;
    std::vector<std::pair<std::string, double>> out;
    for (const Step &s : steps_)
        out.emplace_back(s.label, 0.0);
    input_ = &x;
    for (int r = 0; r < reps; ++r) {
        for (Value &v : values_)
            v.reset();
        values_[static_cast<size_t>(inputId_)].alias = input_;
        for (size_t i = 0; i < steps_.size(); ++i) {
            auto t0 = Clock::now();
            steps_[i].fn(*this);
            out[i].second +=
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          t0)
                    .count();
        }
    }
    for (auto &e : out)
        e.second /= static_cast<double>(reps);
    return out;
}

std::string
ExecutionPlan::describe() const
{
    std::ostringstream oss;
    oss << (mode_ == PlanMode::Quantized ? "quantized" : "float")
        << " plan, " << steps_.size() << " steps, " << values_.size()
        << " values:\n";
    for (const Step &s : steps_)
        oss << "  " << s.label << "\n";
    return oss.str();
}

size_t
ExecutionPlan::arenaBytes() const
{
    size_t bytes = stage_.size() * sizeof(float);
    for (const Value &v : values_)
        bytes += v.dense.size() * sizeof(float) + v.q.bytes();
    for (const LayerScratch &s : scratch_) {
        bytes += s.t0.size() * sizeof(float);
        bytes += s.wq.values.size() * sizeof(float) +
                 s.wq.steMask.size() * sizeof(float);
        bytes += s.wcodes.bytes();
        bytes += s.ig.a8.size() * sizeof(uint8_t) +
                 s.ig.a16.size() * sizeof(uint16_t) +
                 s.ig.acc.size() * sizeof(int64_t);
        bytes += s.ig.wpack.bytes() +
                 s.ig.wide16.size() * sizeof(uint16_t);
    }
    return bytes;
}

} // namespace serve
} // namespace twoinone

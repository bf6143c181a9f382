/**
 * @file
 * Tests for the compiled execution plans: plan forwards must be
 * bit-identical to the legacy per-layer loops at every candidate
 * precision (cached, uncached, calibrated, full precision), allocate
 * zero tensors after compile, reuse the arena safely across batch
 * sizes, and produce outputs independent of the thread count (CMake
 * re-runs this binary under TWOINONE_THREADS=1/4 and
 * TWOINONE_BACKEND=naive). The batched serving tests live in
 * test_server.cc.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/execution_plan.hh"

namespace twoinone {
namespace {

Network
makeResidualNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    return preActResNetMini(cfg, rng);
}

Network
makeTinyNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 4;
    return convNetTiny(cfg, rng);
}

Tensor
makeInput(uint64_t seed, int batch = 4)
{
    Rng rng(seed);
    return Tensor::uniform({batch, 3, 8, 8}, rng, 0.0f, 1.0f);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b, int bits)
{
    ASSERT_EQ(a.shape(), b.shape()) << "bits=" << bits;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "bits=" << bits << " i=" << i;
}

/** Float-mode plans reproduce the legacy eval forward bit-for-bit at
 * every candidate (cached and uncached) and at full precision. */
TEST(ExecutionPlan, FloatBitIdenticalToLegacyAllPrecisions)
{
    Network net = makeResidualNet(42);
    Tensor x = makeInput(7);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Float, x.shape());

    for (int bits : net.precisionSet().bits()) {
        // Cached path (engine-installed weights).
        engine.setPrecision(bits);
        Tensor y_ref = net.forward(x, /*train=*/false);
        expectBitIdentical(y_ref, plan->run(x), bits);

        // Uncached path (per-forward re-quantization).
        engine.detach();
        net.setPrecision(bits);
        Tensor y_unc = net.forward(x, /*train=*/false);
        expectBitIdentical(y_unc, plan->run(x), bits);
    }
    engine.setPrecision(0);
    Tensor y_fp = net.forward(x, /*train=*/false);
    expectBitIdentical(y_fp, plan->run(x), 0);
}

/** Quantized-mode plans reproduce the legacy integer forward
 * bit-for-bit — dynamic activation ranges and calibrated static
 * scales, every candidate, plus the full-precision passthrough. */
TEST(ExecutionPlan, QuantizedBitIdenticalToLegacyAllPrecisions)
{
    Network net = makeResidualNet(43);
    Tensor x = makeInput(8);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    // Dynamic ranges first.
    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_ref = net.forwardQuantized(x);
        expectBitIdentical(y_ref, plan->run(x), bits);
    }

    // Calibrated static scales.
    Calibrator cal(net);
    cal.calibrate({x});
    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_ref = net.forwardQuantized(x);
        expectBitIdentical(y_ref, plan->run(x), bits);
    }

    engine.setPrecision(0);
    Tensor y_fp = net.forwardQuantized(x);
    expectBitIdentical(y_fp, plan->run(x), 0);
}

/** Same property on the Linear-headed tiny net (covers Linear and
 * GlobalAvgPool emitters). */
TEST(ExecutionPlan, QuantizedBitIdenticalTinyNet)
{
    Network net = makeTinyNet(44);
    Tensor x = makeInput(9);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor y_ref = net.forwardQuantized(x);
        expectBitIdentical(y_ref, plan->run(x), bits);
    }
}

/** The arena contract: once compiled (and with the engine cache
 * installed), plan forwards perform zero tensor allocations. */
TEST(ExecutionPlan, ZeroTensorAllocationsAfterCompile)
{
    Network net = makeResidualNet(45);
    Tensor x = makeInput(10);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> qplan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());
    std::unique_ptr<serve::ExecutionPlan> fplan = net.compile(
        net.precisionSet(), serve::PlanMode::Float, x.shape());

    // One pass over every precision so engine-side float views and
    // plan buffers are at their high-water marks.
    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        qplan->run(x);
        fplan->run(x);
    }

    uint64_t before = Tensor::allocationCount();
    for (int rep = 0; rep < 3; ++rep) {
        for (int bits : net.precisionSet().bits()) {
            engine.setPrecision(bits);
            qplan->run(x);
            fplan->run(x);
        }
    }
    EXPECT_EQ(Tensor::allocationCount(), before)
        << "plan forwards allocated tensors after warm-up";
}

/** Arena reuse across batch sizes: smaller batches run correctly in
 * the max-sized arena, and returning to the larger batch is still
 * allocation-free and bit-identical. */
TEST(ExecutionPlan, ArenaReuseAcrossBatchSizes)
{
    Network net = makeTinyNet(46);
    Tensor x4 = makeInput(11, 4);
    Tensor x2 = x4.slice0(0, 2);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x4.shape());

    engine.setPrecision(8);
    Tensor ref4 = net.forwardQuantized(x4);
    Tensor ref2 = net.forwardQuantized(x2);

    expectBitIdentical(ref4, plan->run(x4), 8);
    expectBitIdentical(ref2, plan->run(x2), 8);
    uint64_t before = Tensor::allocationCount();
    expectBitIdentical(ref4, plan->run(x4), 8);
    expectBitIdentical(ref2, plan->run(x2), 8);
    EXPECT_EQ(Tensor::allocationCount(), before);
}

/** Serial and pooled executions of the same plan agree bit-for-bit
 * (the in-process arm of the TWOINONE_THREADS matrix). */
TEST(ExecutionPlan, DeterministicAcrossThreadCounts)
{
    Network net = makeResidualNet(47);
    Tensor x = makeInput(12);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    for (int bits : net.precisionSet().bits()) {
        engine.setPrecision(bits);
        Tensor serial;
        {
            ThreadPool::ScopedSerial guard;
            serial = plan->run(x);
        }
        expectBitIdentical(serial, plan->run(x), bits);
    }
}

/** im2col gather tables are geometry-pure and come from a shared
 * registry: plan replicas of the same geometry hold pointers to the
 * SAME table instead of private copies (PR 4 follow-up — shrinks the
 * per-worker serving arena). */
TEST(ExecutionPlan, GatherTablesSharedAcrossReplicas)
{
    Network net = makeResidualNet(52);
    Tensor x = makeInput(15);
    RpsEngine engine(net);
    std::unique_ptr<serve::ExecutionPlan> a = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());
    std::unique_ptr<serve::ExecutionPlan> b = net.compile(
        net.precisionSet(), serve::PlanMode::Quantized, x.shape());

    // Run both replicas at a quantized precision so every conv step
    // has touched its gather table.
    engine.setPrecision(8);
    a->run(x);
    b->run(x);

    auto tables = [](const serve::ExecutionPlan &p) {
        std::vector<const void *> out;
        for (size_t i = 0; i < p.numScratch(); ++i) {
            const IntGemmScratch &ig =
                p.scratchAt(static_cast<int>(i)).ig;
            if (ig.gather)
                out.push_back(ig.gather.get());
        }
        return out;
    };
    std::vector<const void *> ta = tables(*a);
    std::vector<const void *> tb = tables(*b);
    ASSERT_FALSE(ta.empty()) << "no conv step built a gather table";
    ASSERT_EQ(ta.size(), tb.size());
    // Same geometry, same scratch order: replica B's conv steps must
    // point at replica A's tables, not private copies.
    EXPECT_EQ(ta, tb);
}

} // namespace
} // namespace twoinone

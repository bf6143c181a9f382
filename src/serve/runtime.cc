/**
 * @file
 * BatchExecutor implementation.
 */

#include "serve/runtime.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace twoinone {
namespace serve {

BatchExecutor::BatchExecutor(Network &net, RpsEngine &engine,
                             const std::vector<int> &input_shape,
                             ServeConfig cfg)
    : net_(net), engine_(engine), cfg_(cfg)
{
    TWOINONE_ASSERT(cfg_.maxBatch > 0 && cfg_.microBatch > 0,
                    "bad serving batch geometry");
    TWOINONE_ASSERT(!input_shape.empty(),
                    "serving needs a per-request image shape");
    cfg_.microBatch = std::min(cfg_.microBatch, cfg_.maxBatch);
    rowShape_.push_back(1);
    rowShape_.insert(rowShape_.end(), input_shape.begin(),
                     input_shape.end());
    rowElems_ = 1;
    for (size_t i = 1; i < rowShape_.size(); ++i)
        rowElems_ *= static_cast<size_t>(rowShape_[i]);

    // One plan replica per concurrent shard worker (each runs its
    // shards on its own arena); sized for one micro-batch. More
    // replicas than a batch has shards could never execute
    // concurrently, so the default clamps to the shard count.
    int max_shards =
        (cfg_.maxBatch + cfg_.microBatch - 1) / cfg_.microBatch;
    int replicas =
        cfg_.replicas > 0
            ? cfg_.replicas
            : std::min(ThreadPool::global().threads(), max_shards);
    replicas = std::max(1, replicas);
    for (int i = 0; i < replicas; ++i) {
        std::vector<int> plan_shape = rowShape_;
        plan_shape[0] = cfg_.microBatch;
        plans_.push_back(net_.compile(engine_.set(), cfg_.mode,
                                      plan_shape,
                                      !cfg_.lazyPlanWarmup));
    }

    const std::vector<int> &oshape = plans_[0]->outputShape();
    outCols_ = 1;
    for (size_t i = 1; i < oshape.size(); ++i)
        outCols_ *= static_cast<size_t>(oshape[i]);

    // Precision-distribution policy: precompute the cumulative draw
    // table once so each batch draw is one uniform + one scan.
    if (!cfg_.drawBits.empty()) {
        TWOINONE_ASSERT(cfg_.drawWeights.empty() ||
                            cfg_.drawWeights.size() ==
                                cfg_.drawBits.size(),
                        "drawWeights must be empty or parallel to "
                        "drawBits");
        double acc = 0.0;
        for (size_t i = 0; i < cfg_.drawBits.size(); ++i) {
            TWOINONE_ASSERT(engine_.set().contains(cfg_.drawBits[i]),
                            "drawBits ", cfg_.drawBits[i],
                            " is not in the engine's candidate set ",
                            engine_.set().name());
            double w = cfg_.drawWeights.empty()
                           ? 1.0
                           : static_cast<double>(cfg_.drawWeights[i]);
            TWOINONE_ASSERT(w > 0.0, "draw weight must be positive");
            acc += w;
            drawCum_.push_back(acc);
        }
    }
}

int
BatchExecutor::samplePrecision(Rng &rng) const
{
    if (drawCum_.empty())
        return engine_.samplePrecision(rng);
    double u = rng.uniform(0.0, drawCum_.back());
    size_t i = 0;
    while (i + 1 < drawCum_.size() && u >= drawCum_[i])
        ++i;
    return cfg_.drawBits[i];
}

void
BatchExecutor::validate(const Tensor &x) const
{
    if (x.ndim() != static_cast<int>(rowShape_.size()))
        throw ServeError(formatMessage(
            "rejected request: rank ", x.ndim(), " != expected ",
            rowShape_.size()));
    for (size_t i = 1; i < rowShape_.size(); ++i) {
        if (x.dim(static_cast<int>(i)) != rowShape_[i]) {
            throw ServeError(formatMessage(
                "rejected request: image dim ", i, " is ",
                x.dim(static_cast<int>(i)), ", expected ",
                rowShape_[i]));
        }
    }
    if (x.dim(0) <= 0 || x.dim(0) > cfg_.maxBatch)
        throw ServeError(formatMessage(
            "rejected request: batch ", x.dim(0),
            " exceeds the serving batch capacity ", cfg_.maxBatch));
}

void
BatchExecutor::execute(const float *const *row_src,
                       float *const *row_dst, int rows)
{
    TWOINONE_ASSERT(rows > 0 && rows <= cfg_.maxBatch,
                    "batch of ", rows, " rows outside (0, ",
                    cfg_.maxBatch, "]");

    // Shard across the pool: the shards are dealt to at most
    // numReplicas() worker groups, each group running its shards on
    // its own plan replica and writing disjoint logit rows. Shard
    // boundaries depend only on microBatch, so outputs are identical
    // for any thread count or replica count.
    int mb = cfg_.microBatch;
    int nshards = (rows + mb - 1) / mb;
    int ngroups = std::min(nshards, numReplicas());
    size_t out_cols = outCols_;
    size_t row_elems = rowElems_;

    std::atomic<int> plan_cursor{0};
    ThreadPool::global().parallelFor(
        0, ngroups, 1, [&](int64_t glo, int64_t ghi) {
            int pid = plan_cursor.fetch_add(1);
            TWOINONE_ASSERT(pid < static_cast<int>(plans_.size()),
                            "more worker chunks than plan replicas");
            ExecutionPlan &plan = *plans_[static_cast<size_t>(pid)];
            for (int64_t g = glo; g < ghi; ++g) {
                for (int s = static_cast<int>(g); s < nshards;
                     s += ngroups) {
                    int row_lo = s * mb;
                    int row_hi = std::min(rows, row_lo + mb);
                    const Tensor &logits = plan.runStaged(
                        &row_src[static_cast<size_t>(row_lo)],
                        row_hi - row_lo, row_elems);
                    for (int t = 0; t < row_hi - row_lo; ++t) {
                        const float *src =
                            logits.data() +
                            static_cast<size_t>(t) * out_cols;
                        std::copy(
                            src, src + out_cols,
                            row_dst[static_cast<size_t>(row_lo + t)]);
                    }
                }
            }
        });
}

} // namespace serve
} // namespace twoinone

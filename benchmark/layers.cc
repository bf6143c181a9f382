/**
 * @file
 * Per-layer measurements shared by the workloads' traced runs: plan
 * step profiles, computed conv work, and the one place that names
 * every per-layer metric.
 */

#include <chrono>

#include "common.hh"
#include "nn/conv2d.hh"
#include "stats.hh"

namespace rpsbench {

using namespace twoinone;

namespace {

constexpr double kMiB = 1048576.0;

/** The step kinds a plan forward is grouped into (profileSteps
 * labels start with the emitting layer's step name). */
const char *const kKinds[] = {"conv",     "actquant", "bn_relu",
                              "residual", "pool",     "linear"};

std::string
kindOf(const std::string &label)
{
    auto starts = [&](const char *p) { return label.rfind(p, 0) == 0; };
    if (starts("conv"))
        return "conv";
    if (starts("actquant"))
        return "actquant";
    if (starts("sbn") || starts("relu"))
        return "bn_relu";
    if (starts("residual"))
        return "residual";
    if (starts("gap") || starts("avgpool") || starts("flatten"))
        return "pool";
    if (starts("linear"))
        return "linear";
    return "other";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Median and the highest supported tail of @p us under @p prefix. */
void
timing(Result &r, const std::string &prefix, const std::vector<double> &v,
       double scale, const std::string &unit)
{
    double tp = tailPercent(v.size());
    double tail = tp > 0.0 ? percentile(v, tp) : percentile(v, 100.0);
    r.metric(prefix + ".p50", median(v) * scale, unit, v.size());
    r.metric(prefix + ".tail", tail * scale, unit, v.size(),
             tp > 0.0 ? pctLabel(tp) : "max");
}

} // namespace

void
emitLayers(const LayerReport &l, Result &r)
{
    timing(r, "unit_ms", l.unitUs, 1e-3, "ms");
    r.metric("unit.rows", l.unitRows, "count", l.unitUs.size());

    timing(r, "engine.install_us", l.installUs, 1.0, "us");
    double installs = static_cast<double>(l.installUs.size());
    r.metric("engine.fills_per_install",
             ratio(static_cast<double>(l.fills), installs), "count",
             l.installUs.size(), "hydrated or rebuilt cells");
    r.metric("engine.hydrations_per_install",
             ratio(static_cast<double>(l.hydrations), installs), "count",
             l.installUs.size());
    r.metric("engine.evictions_per_install",
             ratio(static_cast<double>(l.evictions), installs), "count",
             l.installUs.size());
    r.metric("engine.hit_frac",
             installs > 0.0
                 ? 1.0 - static_cast<double>(l.coldInstalls) / installs
                 : 0.0,
             "frac", l.installUs.size(), "installs that filled no cell");

    auto kind_us = [&](const std::string &k) {
        auto it = l.stepKindUs.find(k);
        return it == l.stepKindUs.end() ? 0.0 : it->second;
    };
    r.metric("plan.forward_us", l.forwardUs, "us");
    for (const char *k : kKinds)
        r.metric(std::string("plan.") + k + "_us", kind_us(k), "us");
    r.metric("plan.unaccounted_frac", 1.0 - ratio(l.stepSumUs, l.forwardUs),
             "frac", 1, "1 - sum of step times / plan forward");
    r.metric("tensor.conv_gops", ratio(l.convOps, kind_us("conv") * 1e3),
             "Gop/s", 1, "computed conv ops / measured conv step time");
    r.metric("tensor.conv_mb", l.convBytes / kMiB, "MB", 1,
             "computed from Conv2d shapes: im2col + weights + output");

    r.metric("mem.master_mb", l.masterBytes / kMiB, "MB");
    r.metric("mem.cache_mb", l.cacheBytes / kMiB, "MB");
    r.metric("mem.arena_mb", l.arenaBytes / kMiB, "MB");
    r.metric("io.read_mb_per_unit", l.ioBytesPerUnit / kMiB, "MB");

    r.metric("setup.load_s", median(l.setupLoadS), "s",
             l.setupLoadS.size());
    r.metric("setup.compile_s", median(l.setupCompileS), "s",
             l.setupCompileS.size());
    r.metric("setup.first_s", median(l.setupFirstS), "s",
             l.setupFirstS.size());

    r.metric("serve.generator_busy_frac", l.generatorBusyFrac, "frac");
    r.metric("serve.goodput_rows_s", l.goodputRowsS, "rows/s", 1,
             "highest rate within 20 ms p99, 6-probe bisection");
    r.metric("trace.overhead_frac",
             ratio(Tracer::spanCostUs() * l.spansPerUnit, median(l.unitUs)),
             "frac", 1, "span recording cost per unit / unit time");

    double unit_total = 0.0;
    for (const auto &kv : l.selfUs)
        unit_total += kv.second;
    for (const char *span : {"unit", "install", "execute", "pgd", "pgd_step",
                             "forward", "backward", "sgd", "refresh"}) {
        auto it = l.selfUs.find(span);
        double self = it == l.selfUs.end() ? 0.0 : it->second;
        r.metric(std::string("share.") + span, ratio(self, unit_total),
                 "frac", l.unitUs.size(), "self time / replayed unit time");
    }
}

double
profilePlan(Network &net, RpsEngine &engine, serve::PlanMode mode,
            const Tensor &x, int reps, LayerReport &l)
{
    using Clock = std::chrono::steady_clock;
    std::unique_ptr<serve::ExecutionPlan> plan =
        net.compile(engine.set(), mode, x.shape(), /*warm_all=*/false);
    std::map<std::string, double> kinds;
    double fwd = 0.0, sum = 0.0;
    const std::vector<int> &bits = engine.set().bits();
    for (int b : bits) {
        engine.setPrecision(b);
        plan->run(x); // size this precision's buffers
        std::vector<double> runs;
        for (int i = 0; i < reps; ++i) {
            Clock::time_point t0 = Clock::now();
            plan->run(x);
            runs.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - t0)
                               .count());
        }
        fwd += median(runs);
        for (const auto &step : plan->profileSteps(x, reps)) {
            kinds[kindOf(step.first)] += step.second;
            sum += step.second;
        }
    }
    double n = static_cast<double>(bits.size());
    l.forwardUs = fwd / n;
    l.stepSumUs = sum / n;
    for (auto &kv : kinds)
        kv.second /= n;
    l.stepKindUs = std::move(kinds);
    return static_cast<double>(plan->arenaBytes());
}

void
convCost(Network &net, int batch, int hw, double elem_bytes, LayerReport &l)
{
    // Both model families double the channel count at every 2x
    // downsample, so a conv's output side is hw * stem width / its
    // output channels.
    int stem = 0;
    double ops = 0.0, bytes = 0.0;
    for (WeightQuantizedLayer *w : net.weightQuantizedLayers()) {
        auto *c = dynamic_cast<Conv2d *>(w);
        if (c == nullptr)
            continue;
        if (stem == 0)
            stem = c->outChannels();
        double out_hw = static_cast<double>(hw) * stem / c->outChannels();
        double pixels = batch * out_hw * out_hw;
        double patch = static_cast<double>(c->inChannels()) * c->kernel() *
                       c->kernel();
        ops += 2.0 * pixels * patch * c->outChannels();
        bytes += (pixels * patch + patch * c->outChannels()) * elem_bytes +
                 pixels * c->outChannels() * sizeof(float);
    }
    l.convOps = ops;
    l.convBytes = bytes;
}

double
masterBytes(Network &net)
{
    double bytes = 0.0;
    for (const Parameter *p : net.parameters())
        bytes += static_cast<double>(p->value.size() * sizeof(float));
    return bytes;
}

} // namespace rpsbench

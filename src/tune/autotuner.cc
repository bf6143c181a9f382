/**
 * @file
 * Serving autotuner implementation.
 *
 * Cost-model constants are expressed relative to the *default
 * configuration's* analytical per-row cost, so the same constants are
 * meaningful from the test-sized tiny nets to the bench models. The
 * virtual-time simulation uses a nominal worker count (kSimWorkers)
 * instead of the live thread pool on purpose: the objective must be a
 * pure function of (seed, model) so the winning genome — and the
 * TuningArtifact bytes — reproduce across TWOINONE_THREADS settings
 * and machines.
 */

#include "tune/autotuner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "accel/accelerator.hh"
#include "common/logging.hh"
#include "optimizer/evolutionary.hh"
#include "serve/session.hh"
#include "workloads/layer_shape.hh"

namespace twoinone {
namespace tune {

namespace {

/** Nominal shard workers of the virtual-time sim (NOT the live pool:
 * determinism across thread settings). */
constexpr int kSimWorkers = 4;
/** Per-batch overhead (precision switch + dispatch), in units of the
 * default config's per-row cost. */
constexpr double kOverheadRows = 2.0;
/** Per-shard dispatch cost, in default-row units. */
constexpr double kShardRows = 0.25;
/** Synthetic request size of the sim (rows per request — matches the
 * serving benches). */
constexpr int kSimRowsPerReq = 4;
/** Requests simulated per evaluation. */
constexpr int kSimRequests = 64;
/** Weight of the scheduling-round term in the objective. */
constexpr double kSchedWeight = 0.25;
/** Robustness penalties: precision-set coverage and draw skew (the
 * paper's Fig. 11 trade-off — a tuner chasing pure throughput would
 * otherwise collapse the RPS defense to its cheapest candidate). */
constexpr double kCoverPenalty = 0.12;
constexpr double kSkewPenalty = 0.08;

/**
 * Walk a NetworkSpec into the predictor's NetworkWorkload: every
 * weight-bearing layer becomes a ConvShape (preact blocks expand to
 * their two 3x3 convolutions plus the 1x1 shortcut when present —
 * mirroring PreActBlock's construction); pooling/stride updates the
 * tracked activation geometry.
 */
NetworkWorkload
workloadFromSpec(const NetworkSpec &spec,
                 const std::vector<int> &input_shape)
{
    TWOINONE_ASSERT(input_shape.size() == 3,
                    "serving autotune expects a [C, H, W] image shape");
    int ch = input_shape[0];
    int h = input_shape[1];
    int w = input_shape[2];

    NetworkWorkload wl;
    wl.name = "serving";
    auto conv = [&](const std::string &name, int in, int out, int k,
                    int stride, int pad) {
        ConvShape s;
        s.name = name;
        s.n = 1;
        s.k = out;
        s.c = in;
        s.r = k;
        s.s = k;
        s.stride = stride;
        s.oy = (h + 2 * pad - k) / stride + 1;
        s.ox = (w + 2 * pad - k) / stride + 1;
        wl.layers.push_back(s);
        ch = out;
        h = s.oy;
        w = s.ox;
    };

    for (size_t i = 0; i < spec.layers.size(); ++i) {
        const LayerSpec &ls = spec.layers[i];
        const std::string tag = "L" + std::to_string(i);
        if (ls.kind == "conv2d") {
            conv(tag, ls.args[0], ls.args[1], ls.args[2], ls.args[3],
                 ls.args[4]);
        } else if (ls.kind == "preact") {
            int in = ls.args[0], out = ls.args[1], stride = ls.args[2];
            int h0 = h, w0 = w;
            conv(tag + ".conv1", in, out, 3, stride, 1);
            conv(tag + ".conv2", out, out, 3, 1, 1);
            if (stride != 1 || in != out) {
                // The 1x1 shortcut reads the block input geometry.
                int sh = h, sw = w;
                h = h0;
                w = w0;
                conv(tag + ".shortcut", in, out, 1, stride, 0);
                h = sh;
                w = sw;
            }
        } else if (ls.kind == "linear") {
            wl.layers.push_back(ConvShape::fullyConnected(
                tag, ls.args[0], ls.args[1], 1));
            ch = ls.args[1];
            h = 1;
            w = 1;
        } else if (ls.kind == "gap") {
            h = 1;
            w = 1;
        } else if (ls.kind == "avgpool2x2") {
            h = std::max(1, h / 2);
            w = std::max(1, w / 2);
        }
        // sbn / relu / actquant / flatten: geometry-preserving.
    }
    TWOINONE_ASSERT(!wl.layers.empty(),
                    "network spec has no predictable layers");
    return wl;
}

/** Semantic validity against the model set (the seed genome may sit
 * off the search grids; children are grid-valid by construction). */
bool
usable(const ServingGenome &g, const PrecisionSet &model_set)
{
    if (g.maxBatch <= 0 || g.microBatch <= 0 ||
        g.microBatch > g.maxBatch || g.maxDelayUs < 0.0 ||
        g.replicas < 0 || (g.policy != 0 && g.policy != 1))
        return false;
    if (g.drawBits.empty() ||
        g.drawWeights.size() != g.drawBits.size())
        return false;
    for (size_t i = 0; i < g.drawBits.size(); ++i) {
        if (!model_set.contains(g.drawBits[i]))
            return false;
        if (g.drawWeights[i] <= 0)
            return false;
    }
    return true;
}

/** Draw-weighted mean of the per-precision row costs. */
double
weightedRowCost(const ServingGenome &g,
                const std::map<int, double> &row_cycles)
{
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < g.drawBits.size(); ++i) {
        double w = static_cast<double>(g.drawWeights[i]);
        num += w * row_cycles.at(g.drawBits[i]);
        den += w;
    }
    return num / den;
}

/**
 * Virtual-time single-tenant serving round: requests of kSimRowsPerReq
 * rows arrive at a fixed near-saturation gap (derived from the
 * *default* config's row cost, so cheaper precision mixes genuinely
 * buy headroom); batches close by size, age, or end-of-stream flush —
 * the Server::closeable rules — and execute with shard parallelism
 * over the nominal workers. Returns mean latency + amortized makespan
 * (both ns-equivalent; relative scale is all the search needs).
 */
double
servingRoundCost(const ServingGenome &g, double row_ns,
                 double default_row_ns)
{
    const double overhead_ns = kOverheadRows * default_row_ns;
    const double shard_ns = kShardRows * default_row_ns;
    const double gap =
        1.05 * default_row_ns * static_cast<double>(kSimRowsPerReq);
    const double delay_ns = g.maxDelayUs * 1000.0;
    const int max_reqs = std::max(1, g.maxBatch / kSimRowsPerReq);

    double server_free = 0.0, total_latency = 0.0, done_at = 0.0;
    int next = 0;
    while (next < kSimRequests) {
        double first_arr = next * gap;
        double ready = std::max(first_arr, server_free);
        // Whole requests already waiting when the server frees up.
        int count = 1;
        while (count < max_reqs && next + count < kSimRequests &&
               (next + count) * gap <= ready)
            ++count;
        double close = ready;
        if (count < max_reqs && next + count < kSimRequests) {
            // Partial batch: wait for the age close (or the flush at
            // end of stream when age closing is disabled).
            double age_close = delay_ns > 0.0
                                   ? first_arr + delay_ns
                                   : std::numeric_limits<double>::infinity();
            while (count < max_reqs && next + count < kSimRequests &&
                   (next + count) * gap <= age_close)
                ++count;
            if (count == max_reqs) {
                close = std::max(ready, (next + count - 1) * gap);
            } else if (std::isfinite(age_close)) {
                close = std::max(ready, age_close);
            } else {
                close = std::max(ready,
                                 (kSimRequests - 1) * gap); // flush
            }
        }
        int rows = count * kSimRowsPerReq;
        int shards = (rows + g.microBatch - 1) / g.microBatch;
        int repl = g.replicas > 0 ? g.replicas : kSimWorkers;
        int groups = std::max(1, std::min({kSimWorkers, repl, shards}));
        int shards_per_group = (shards + groups - 1) / groups;
        double compute =
            shards_per_group *
                (g.microBatch * row_ns + shard_ns) +
            overhead_ns;
        double done = close + compute;
        for (int i = 0; i < count; ++i)
            total_latency += done - (next + i) * gap;
        server_free = done;
        done_at = done;
        next += count;
    }
    double mean_latency =
        total_latency / static_cast<double>(kSimRequests);
    double makespan_per_req =
        done_at / static_cast<double>(kSimRequests);
    return mean_latency + makespan_per_req;
}

/**
 * Two-tenant scheduling round: tenant A's batches carry a deadline of
 * 2.2 batch times, tenant B's none; both arrive faster than one
 * server drains, so the pick order matters. EDF trades B's latency
 * for A's deadline hits; round-robin the reverse — the term that
 * makes SchedulingPolicy genuinely searchable.
 */
double
schedulingRoundCost(const ServingGenome &g, double batch_ns)
{
    const int nb = 8; // batches per tenant
    const double gap = 1.1 * batch_ns;
    const double deadline_after = 2.2 * batch_ns;
    const double miss_penalty = 3.0 * batch_ns;

    int next_a = 0, next_b = 0, cursor = 0;
    double t = 0.0, latency = 0.0;
    int misses = 0;
    while (next_a < nb || next_b < nb) {
        double arr_a = next_a < nb
                           ? next_a * gap
                           : std::numeric_limits<double>::infinity();
        double arr_b = next_b < nb
                           ? next_b * gap
                           : std::numeric_limits<double>::infinity();
        double now = std::max(t, std::min(arr_a, arr_b));
        bool a_ready = arr_a <= now;
        bool b_ready = arr_b <= now;
        bool pick_a;
        if (a_ready != b_ready) {
            pick_a = a_ready;
        } else if (g.policy == 1) {
            pick_a = true; // EDF: only A carries deadlines
        } else {
            pick_a = cursor == 0; // round-robin
            cursor = 1 - cursor;
        }
        double arr = pick_a ? arr_a : arr_b;
        double done = std::max(now, arr) + batch_ns;
        latency += done - arr;
        if (pick_a) {
            if (done > arr + deadline_after)
                ++misses;
            ++next_a;
        } else {
            ++next_b;
        }
        t = done;
    }
    return latency / static_cast<double>(2 * nb) +
           misses * miss_penalty / static_cast<double>(nb);
}

/** Coverage + skew robustness penalty (multiplicative, >= 0). */
double
robustnessPenalty(const ServingGenome &g, size_t model_candidates)
{
    double cover = static_cast<double>(g.drawBits.size()) /
                   static_cast<double>(model_candidates);
    double pen = kCoverPenalty * (1.0 - cover);
    if (g.drawBits.size() > 1) {
        double total = 0.0;
        for (int w : g.drawWeights)
            total += static_cast<double>(w);
        double entropy = 0.0;
        for (int w : g.drawWeights) {
            double p = static_cast<double>(w) / total;
            entropy -= p * std::log(p);
        }
        double max_entropy =
            std::log(static_cast<double>(g.drawBits.size()));
        pen += kSkewPenalty * (1.0 - entropy / max_entropy);
    }
    return pen;
}

/** The probe precision: the genome's most-weighted candidate (ties
 * to the larger width, matching the calibration anchor). */
int
probeBits(const ServingGenome &g)
{
    size_t best = 0;
    for (size_t i = 1; i < g.drawBits.size(); ++i)
        if (g.drawWeights[i] >= g.drawWeights[best])
            best = i;
    return g.drawBits[best];
}

/** Wall-clock an executed probe batch; returns ns per row. Keeps the
 * fastest of several executes: one preempted run would otherwise set
 * the cycles-to-ns scale of every prediction. */
double
measureRowNs(serve::BatchExecutor &exec, int bits, int rows)
{
    std::vector<float> input(static_cast<size_t>(rows) *
                             exec.rowElems());
    // Deterministic synthetic pixels (the value pattern is irrelevant
    // to timing; no Rng so probe count never perturbs other streams).
    for (size_t i = 0; i < input.size(); ++i)
        input[i] =
            0.25f * static_cast<float>(i % 17) / 17.0f - 0.125f;
    std::vector<float> output(static_cast<size_t>(rows) *
                              exec.outCols());
    std::vector<const float *> src(static_cast<size_t>(rows));
    std::vector<float *> dst(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
        src[static_cast<size_t>(r)] =
            input.data() + static_cast<size_t>(r) * exec.rowElems();
        dst[static_cast<size_t>(r)] =
            output.data() + static_cast<size_t>(r) * exec.outCols();
    }
    exec.installPrecision(bits);
    exec.execute(src.data(), dst.data(), rows); // warm-up (arenas)
    double best_ns = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
        auto start = std::chrono::steady_clock::now();
        exec.execute(src.data(), dst.data(), rows);
        best_ns = std::min(best_ns,
                           std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    }
    return best_ns / static_cast<double>(rows);
}

} // namespace

void
applyGenome(const ServingGenome &genome, serve::ServeConfig &serving)
{
    serving.maxBatch = genome.maxBatch;
    serving.microBatch = genome.microBatch;
    serving.replicas = genome.replicas;
    serving.drawBits = genome.drawBits;
    serving.drawWeights.assign(genome.drawWeights.begin(),
                               genome.drawWeights.end());
}

TuneResult
autotune(Session &session, const TuneConfig &cfg)
{
    Network &net = session.network();
    const std::vector<int> &input_shape = session.config().inputShape;
    TWOINONE_ASSERT(!input_shape.empty(),
                    "autotune needs SessionConfig::inputShape");
    const PrecisionSet &model_set = session.engine().set();

    // Analytical per-row cycle cost at every candidate precision:
    // one sweep, static-scale activations (the calibrated serving
    // datapath the probes run on).
    NetworkWorkload wl = workloadFromSpec(net.spec(), input_shape);
    Accelerator accel(AcceleratorKind::TwoInOne,
                      Accelerator::defaultAreaBudget(),
                      TechModel::defaults());
    std::vector<NetworkPrediction> preds =
        accel.sweep(wl, model_set, ActQuantMode::StaticScale);
    std::map<int, double> row_cycles;
    for (size_t i = 0; i < model_set.bits().size(); ++i)
        row_cycles[model_set.bits()[i]] = preds[i].totalCycles;

    // Seed genome = the session's current serving config (uniform
    // full-set draw, round-robin, the Server's default age close).
    const serve::ServeConfig &cur = session.config().serving;
    ServingGenome seed;
    seed.maxBatch = cur.maxBatch;
    seed.microBatch = cur.microBatch;
    seed.maxDelayUs = 1000.0;
    seed.replicas = cur.replicas;
    seed.policy = 0;
    if (cur.drawBits.empty()) {
        seed.drawBits = model_set.bits();
        seed.drawWeights.assign(seed.drawBits.size(), 1);
    } else {
        seed.drawBits = cur.drawBits;
        seed.drawWeights.assign(seed.drawBits.size(), 1);
        for (size_t i = 0; i < cur.drawWeights.size() &&
                           i < seed.drawWeights.size();
             ++i)
            seed.drawWeights[i] = std::max(
                1, static_cast<int>(cur.drawWeights[i]));
    }
    const double default_row = weightedRowCost(seed, row_cycles);

    ServingSearchSpace space(model_set.bits(), cfg.maxBatchCap);

    TuneResult result;
    std::map<std::string, size_t> seen; // genome key -> candidate idx

    auto objective = [&](const ServingGenome &g) {
        if (!usable(g, model_set))
            return std::numeric_limits<double>::infinity();
        std::string key = g.describe();
        auto it = seen.find(key);
        if (it != seen.end())
            return result.candidates[it->second].cost;
        double row = weightedRowCost(g, row_cycles);
        double serving = servingRoundCost(g, row, default_row);
        int repl = g.replicas > 0 ? g.replicas : kSimWorkers;
        int groups = std::max(
            1, std::min({kSimWorkers, repl,
                         (g.maxBatch + g.microBatch - 1) /
                             g.microBatch}));
        double batch_ns = g.maxBatch * row / groups +
                          kOverheadRows * default_row;
        double sched = schedulingRoundCost(g, batch_ns);
        double cost = (serving + kSchedWeight * sched) *
                      (1.0 + robustnessPenalty(g, model_set.size()));
        CandidateReport rep;
        rep.genome = g;
        rep.cost = cost;
        seen.emplace(std::move(key), result.candidates.size());
        result.candidates.push_back(std::move(rep));
        return cost;
    };

    EvoConfig evo;
    evo.populationSize = cfg.population;
    evo.totalCycles = cfg.cycles;
    evo.seed = cfg.seed;
    EvolveOutcome<ServingGenome> out =
        evolveGenome<ServingGenome>(space, seed, evo, objective);

    result.evaluated = out.evaluated;
    result.costHistory = std::move(out.costHistory);
    result.found = out.found;
    result.bestCost = out.bestCost;
    result.artifact.seed = cfg.seed;
    result.artifact.genome = out.found ? out.best : seed;
    result.artifact.predictedCost =
        static_cast<float>(out.found ? out.bestCost : 0.0);

    // Measured probes: calibrate cycles -> ns on the *current*
    // geometry at the model's widest candidate, then probe each
    // distinct candidate's geometry at its dominant precision. The
    // probes fill the falsifiability report only — nothing measured
    // feeds the search above or the artifact bytes.
    if (cfg.measuredProbes && out.found) {
        struct GeomProbe
        {
            double rowNs = 0.0;
        };
        std::map<std::string, GeomProbe> probes;
        auto probe = [&](const ServingGenome &g, int bits) {
            std::string key = std::to_string(g.maxBatch) + "/" +
                              std::to_string(g.microBatch) + "/" +
                              std::to_string(g.replicas) + "/" +
                              std::to_string(bits);
            auto pit = probes.find(key);
            if (pit != probes.end())
                return pit->second.rowNs;
            serve::ServeConfig pc = cur;
            pc.maxBatch = g.maxBatch;
            pc.microBatch = g.microBatch;
            pc.replicas = g.replicas;
            pc.lazyPlanWarmup = true;
            pc.drawBits.clear();
            pc.drawWeights.clear();
            serve::BatchExecutor exec(net, session.engine(),
                                      input_shape, pc);
            int rows = std::min(cfg.probeRows, g.maxBatch);
            double ns = measureRowNs(exec, bits, std::max(1, rows));
            probes.emplace(std::move(key), GeomProbe{ns});
            return ns;
        };

        int anchor_bits = model_set.maxBits();
        double anchor_ns = probe(seed, anchor_bits);
        double kappa = anchor_ns / row_cycles.at(anchor_bits);

        double err_sum = 0.0;
        size_t probed = 0;
        for (CandidateReport &rep : result.candidates) {
            if (!std::isfinite(rep.cost))
                continue;
            int bits = probeBits(rep.genome);
            rep.measuredRowNs = probe(rep.genome, bits);
            rep.predictedRowNs = kappa * row_cycles.at(bits);
            if (rep.measuredRowNs > 0.0) {
                rep.errorPct =
                    std::abs(rep.predictedRowNs - rep.measuredRowNs) /
                    rep.measuredRowNs * 100.0;
                err_sum += rep.errorPct;
                ++probed;
            }
        }
        if (probed > 0)
            result.meanErrorPct =
                err_sum / static_cast<double>(probed);
    }
    return result;
}

} // namespace tune
} // namespace twoinone

/**
 * @file
 * rps_train (batch): RPS PGD-7 adversarial training (Trainer with
 * TrainConfig::rps) of preActResNetMini at width 16 on the seeded
 * CIFAR-10-like set, then RPS natural accuracy and a PGD-20 RPS robust
 * accuracy on the test split, one small batch per timed request.
 *
 * It writes through the RpsEngine (refreshDirty after every step)
 * where the serving workloads only read, and runs the float conv
 * forward and backward plus the attacks; it never touches the serving
 * front end, the checkpoint io or the integer kernels, so a change to
 * those should leave it unmoved.
 *
 * The amount of training is fixed by --seconds alone (one epoch of 512
 * images per 2.5 seconds), never by the clock, so the accuracies are a
 * function of the seed. Throughput is the median over epochs, which a
 * slow stretch of the host moves less than the total would.
 */

#include <cmath>
#include <numeric>

#include "adversarial/evaluation.hh"
#include "adversarial/pgd.hh"
#include "adversarial/trainer.hh"
#include "common.hh"
#include "nn/loss.hh"
#include "nn/model_zoo.hh"
#include "stats.hh"

namespace rpsbench {

using namespace twoinone;

namespace {

struct TrainSpec
{
    int width = 16;
    double scale = 1.0;    ///< makeCifar10Like size factor
    int trainImages = 512; ///< leading slice of the training split
    int epochs = 8;
    int evalBatch = 4;
};

TrainSpec
specFor(const Options &o)
{
    TrainSpec s;
    if (o.smoke) {
        s.width = 8;
        s.scale = 0.0625;
        s.trainImages = 64;
        s.epochs = 2;
    } else {
        s.epochs =
            std::max(2, static_cast<int>(std::lround(o.seconds / 2.5)));
    }
    return s;
}

TrainConfig
trainConfig()
{
    TrainConfig c;
    c.method = TrainMethod::Pgd7;
    c.rps = true;
    c.epochs = 1; // fit() is called once per epoch
    c.seed = kDrawSeed;
    return c;
}

struct Model
{
    DatasetPair data;
    Network net;
};

/** Build the seeded dataset and the fixed-weight model, timing the
 * two halves of set-up; @p model_s also covers an RpsEngine build,
 * the cache Trainer::fit constructs before its first step. */
Model
setUpOnce(const Options &o, const TrainSpec &s, double &data_s,
          double &model_s, Tracer &t)
{
    Scope sp(t, "setup");
    double t0 = nowS();
    Model m;
    {
        Scope l(t, "load");
        m.data = makeCifar10Like(s.scale, o.seed * 1000003ULL + 11);
        m.data.train = m.data.train.batch(0, s.trainImages);
    }
    double t1 = nowS();
    {
        Scope c(t, "compile");
        Rng rng(kWeightSeed);
        ModelConfig mc;
        mc.baseWidth = s.width;
        m.net = preActResNetMini(mc, rng);
        RpsEngine engine(m.net);
    }
    double t2 = nowS();
    data_s = t1 - t0;
    model_s = t2 - t1;
    return m;
}

/** The input rows and labels of training batch @p b under @p order. */
void
gather(const Dataset &d, const std::vector<int> &order, int b, int bs,
       Tensor &x, std::vector<int> &y)
{
    x = Tensor({bs, d.images.dim(1), d.images.dim(2), d.images.dim(3)});
    y.resize(static_cast<size_t>(bs));
    int n = d.size();
    for (int i = 0; i < bs; ++i) {
        int src = order[static_cast<size_t>((b * bs + i) % n)];
        x.setSlice0(i, d.images.slice0(src, 1));
        y[static_cast<size_t>(i)] = d.labels[static_cast<size_t>(src)];
    }
}

/**
 * The traced run: the steps Trainer::fit takes for RPS PGD-7 (draw and
 * install a precision, PgdAttack::perturb with train-mode gradients,
 * forward, backward, SGD, refreshDirty) issued from here through the
 * same public calls, so each gets its own span.
 */
void
tracedRun(const Options &o, const TrainSpec &s, Model &m, LayerReport &l,
          Result &r, Tracer &t)
{
    TrainConfig cfg = trainConfig();
    Network &net = m.net;
    RpsEngine engine(net);
    Sgd sgd(cfg.lr, cfg.momentum, cfg.weightDecay);
    // The attack Trainer builds for TrainMethod::Pgd7.
    AttackConfig acfg;
    acfg.eps = cfg.eps;
    acfg.alpha = cfg.alpha;
    acfg.steps = cfg.pgdSteps;
    acfg.trainMode = true;
    acfg.restarts = 1;
    PgdAttack pgd(acfg);
    Rng rng(cfg.seed);
    const Dataset &train = m.data.train;
    const int bs = std::min(cfg.batchSize, train.size());
    std::vector<int> order(static_cast<size_t>(train.size()));
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);

    // The cold first step is set-up; the steps after it are the units.
    auto step = [&](int unit, const char *root) {
        bool counted = std::string(root) == "unit";
        double u0 = nowS();
        int uid = t.begin(root);
        int bits = net.precisionSet().sample(rng);
        uint64_t rb0 = engine.columnRebuilds();
        int id = t.begin("install");
        engine.setPrecision(bits);
        t.end(id);
        if (counted) {
            l.installUs.push_back((nowS() - u0) * 1e6);
            uint64_t fills = engine.columnRebuilds() - rb0;
            l.fills += fills;
            l.coldInstalls += fills > 0 ? 1 : 0;
        }
        Tensor x;
        std::vector<int> y;
        gather(train, order, unit, bs, x, y);

        id = t.begin("pgd");
        Tensor x_adv = pgd.perturb(net, x, y, rng);
        t.end(id);
        // One more input gradient, timed alone: the cost of each of the
        // attack's steps. Replay only; training makes no such call.
        id = t.begin("pgd_step");
        Tensor grad;
        ceInputGradient(net, x_adv, y, /*train_mode=*/true, grad);
        t.end(id);

        SoftmaxCrossEntropy loss;
        id = t.begin("forward");
        Tensor logits = net.forward(x_adv, /*train=*/true);
        float lv = loss.forward(logits, y);
        t.end(id);
        id = t.begin("backward");
        net.zeroGrad();
        net.backward(loss.backward());
        t.end(id);
        id = t.begin("sgd");
        sgd.step(net.parameters());
        net.zeroGrad();
        t.end(id);
        id = t.begin("refresh");
        engine.refreshDirty();
        t.end(id);
        t.end(uid);
        if (!std::isfinite(lv))
            r.fail("training loss is not finite");
        return nowS() - u0;
    };

    double io0 = rcharBytes();
    l.setupFirstS.push_back(step(0, "first_step"));
    int unit = 1;
    for (double start = nowS(); nowS() - start < 0.6 * o.seconds || unit < 3;
         ++unit)
        l.unitUs.push_back(step(unit, "unit") * 1e6);
    r.attempted += static_cast<uint64_t>(unit);
    l.unitRows = bs;
    l.ioBytesPerUnit = (rcharBytes() - io0) / unit;
    l.selfUs = t.selfTimeUs("unit");
    l.spansPerUnit = static_cast<double>(t.countUnder("unit")) / (unit - 1);

    Tensor xe = m.data.test.images.slice0(0, s.evalBatch);
    {
        Scope sp(t, "plan_profile");
        l.arenaBytes = profilePlan(net, engine, serve::PlanMode::Float, xe,
                                   o.smoke ? 2 : 20, l);
    }
    convCost(net, s.evalBatch, xe.dim(2), sizeof(float), l);
    l.masterBytes = masterBytes(net);
    l.cacheBytes = static_cast<double>(engine.cacheBytes());
    emitLayers(l, r);
}

} // namespace

void
runTraining(const Options &o, Result &r, Tracer &t)
{
    TrainSpec s = specFor(o);
    LayerReport l;
    std::vector<double> setup;
    Model m;
    for (int rep = 0; rep < 9; ++rep) {
        double data_s = 0.0, model_s = 0.0;
        m = setUpOnce(o, s, data_s, model_s, t);
        l.setupLoadS.push_back(data_s);
        l.setupCompileS.push_back(model_s);
        setup.push_back(data_s + model_s);
    }
    if (o.traced()) {
        tracedRun(o, s, m, l, r, t);
        return;
    }

    const int n_train = m.data.train.size();
    const Dataset &test = m.data.test;
    SessionConfig scfg;
    scfg.inputShape = {3, 8, 8};
    AttackConfig ac;
    ac.steps = 20;
    PgdAttack pgd20(ac);
    // One robust-inference request: a PGD-20 attack and an RPS
    // prediction on evalBatch test images, timed from outside.
    auto request = [&](Session &sess, int start, Rng &rng,
                       std::vector<double> &lat_ms) {
        int len = std::min(s.evalBatch, test.size() - start);
        Dataset one = test.batch(start, len);
        double t0 = nowS();
        double acc = rpsRobustAccuracy(sess, pgd20, one, rng, len);
        lat_ms.push_back((nowS() - t0) * 1e3);
        ++r.attempted;
        return acc / 100.0 * len;
    };

    // The latency samples come from a few requests after every epoch,
    // so they spread over the run as the epochs do. They run in eval
    // mode on their own generator: the training trajectory, and so the
    // accuracies below, are the same with or without them.
    Trainer trainer(m.net, trainConfig());
    std::vector<double> epoch_rate, lat_ms;
    Rng probe_rng(kDrawSeed + 2);
    const int per_epoch = (o.smoke ? 12 : 104) / s.epochs;
    int next = 0;
    for (int e = 0; e < s.epochs; ++e) {
        double t0 = nowS();
        float loss = trainer.fit(m.data.train);
        epoch_rate.push_back(n_train / (nowS() - t0));
        if (!std::isfinite(loss))
            r.fail("training loss is not finite");
        Session probe = Session::attach(m.net, scfg);
        for (int k = 0; k < per_epoch; ++k, next += s.evalBatch)
            request(probe, next % test.size(), probe_rng, lat_ms);
    }
    r.attempted += static_cast<uint64_t>(trainer.stepsTaken());

    Session sess = Session::attach(m.net, scfg);
    Rng erng(kDrawSeed + 1);
    double natural = rpsNaturalAccuracy(sess, test, erng);
    std::vector<double> eval_ms;
    double correct = 0.0;
    for (int start = 0; start < test.size(); start += s.evalBatch)
        correct += request(sess, start, erng, eval_ms);
    double robust = 100.0 * correct / test.size();
    double eval_s =
        std::accumulate(eval_ms.begin(), eval_ms.end(), 0.0) * 1e-3;

    for (double acc : {natural, robust})
        if (!(acc >= 0.0 && acc <= 100.0))
            r.fail("accuracy outside [0, 100]");
    // A broken training or attack path collapses toward chance (10%);
    // a working one lands far above these floors.
    if (!o.smoke && (natural < 60.0 || robust < 30.0))
        r.fail("accuracy below the floor: natural " +
               std::to_string(natural) + ", robust " +
               std::to_string(robust));

    double tp = tailPercent(lat_ms.size());
    r.metric("throughput", median(epoch_rate), "items/s", epoch_rate.size(),
             "RPS PGD-7 training images/s, median of epochs");
    r.metric("p50_ms", median(lat_ms), "ms", lat_ms.size(),
             "PGD-20 + RPS inference per request of " +
                 std::to_string(s.evalBatch) + " images");
    r.metric("tail_ms", tp > 0.0 ? percentile(lat_ms, tp)
                                 : percentile(lat_ms, 100.0),
             "ms", lat_ms.size(),
             tp > 0.0 ? pctLabel(tp) : "max");
    r.metric("setup_s", median(setup), "s", setup.size(),
             "dataset + model + engine build");
    r.details.set("epochs", Json(s.epochs));
    r.details.set("train_images", Json(n_train));
    r.details.set("natural_acc", Json(natural));
    r.details.set("robust_acc", Json(robust));
    r.details.set("eval_img_s", Json(test.size() / eval_s));
}

} // namespace rpsbench
